"""Reachable-workspace scans: dense boolean grids and point-set coverage.

Reachability is always an exact per-point test; a grid only decides where
the test runs (cell centres).  Both scans and coverage decide most points
below the base plane from the closed forms of an arm's reach in kinematics,
and run the one arm kernel that scalar inverse kinematics also runs on the
points at or above the plane and where those forms are within rounding of a
verdict change.  A grid scan cuts each column's arm planes once
(kinematics._plane_cut), decides the interior of each column's reachable
run, and the cells far outside it, from closed-form z-bounds on that cut
(kinematics._arm_bounds), and hands the kernel (kinematics._reachable) the
bands about the run ends with their columns' cuts.  Coverage decides each
geometry x point pair by kinematics._reach_verdict and hands the kernel
(kinematics.reachable_mask) whole each block where the verdict leaves a
pair open.  So a scan equals a kernel call on every cell bit for bit,
coverage counts are the kernel's own, and grid scans, coverage fractions
and kinematics.is_reachable never disagree on a point.
"""

from __future__ import annotations

import functools
import json
import math
import mmap
import os
from collections import namedtuple
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import (CellBudgetExceeded, as_count, as_list, as_number, fields, naming, read_json,
                     write_json)
from .geometry import RobotGeometry
from .kinematics import _TINY, _arm_bounds, _plane_cut, _reach_verdict, _reachable, reachable_mask

CELL_BUDGET = 100_000_000

# Most geometry x point pairs one coverage kernel call tests, so that peak
# memory does not grow with the population or the point set.
PAIR_BUDGET = 32_768

# Most grid cells one scan kernel call tests, and most (y, x) columns one
# scan tile bounds, so that the kernel's float64 temporaries stay a fixed
# size whatever the grid; grid dumps are written in blocks of the same size.
SLAB_CELLS = 262_144

# Grid files of this many bytes or more are loaded into a mapping of their
# own (see _file_buffer).  Smaller ones stay on the heap, where a scan's
# freed float64 temporaries (8 * SLAB_CELLS bytes) leave them room.
MAPPED_LOAD_BYTES = 1 << 20

# The link fields _arm_kernel reads, as (m, 1) columns of m geometries.
_LinkColumns = namedtuple("_LinkColumns", "a b r_f r_e")

_GRID_MAGIC = "deltacut-grid"
_GRID_VERSION = 1


@dataclass(frozen=True, slots=True)
class GridSpec:
    """Axis-aligned scan box and cubic cell size, mm.

    Each axis is split into ceil(span / resolution) cells starting at the
    lower bound; flags are evaluated at cell centres.
    """

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    z_min: float
    z_max: float
    resolution: float

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            object.__setattr__(self, name, as_number(name, getattr(self, name)))
        if not self.resolution > 0.0:
            raise ValueError(f"resolution must be positive, got {self.resolution}")
        for axis in ("x", "y", "z"):
            lo = getattr(self, f"{axis}_min")
            hi = getattr(self, f"{axis}_max")
            if not hi > lo:
                raise ValueError(f"{axis}_max must exceed {axis}_min ({lo} .. {hi})")
            if not math.isfinite((hi - lo) / self.resolution):
                raise ValueError(f"{axis} cell count is not finite "
                                 f"({lo} .. {hi} at {self.resolution} mm)")
        nx, ny, nz = self.dims
        if nx * ny * nz > CELL_BUDGET:
            raise CellBudgetExceeded(
                f"grid would hold {nx * ny * nz} cells, budget is {CELL_BUDGET}"
            )
        # volume_estimate's product, with every cell occupied; * rather than
        # **, which raises OverflowError on floats.
        r = self.resolution
        if not math.isfinite(nx * ny * nz * (r * r * r)):
            raise ValueError(f"resolution={r!r} is too large: the grid's volume overflows")

    @property
    def dims(self) -> tuple[int, int, int]:
        """Cell counts (nx, ny, nz)."""
        counts = []
        for axis in ("x", "y", "z"):
            lo = getattr(self, f"{axis}_min")
            hi = getattr(self, f"{axis}_max")
            counts.append(max(1, math.ceil((hi - lo) / self.resolution)))
        return tuple(counts)

    def axis_centers(self, axis: str) -> np.ndarray:
        lo = getattr(self, f"{axis}_min")
        n = self.dims[("x", "y", "z").index(axis)]
        return lo + (np.arange(n, dtype=np.float64) + 0.5) * self.resolution

    def cell_center(self, ix: int, iy: int, iz: int) -> tuple[float, float, float]:
        return (
            self.x_min + (ix + 0.5) * self.resolution,
            self.y_min + (iy + 0.5) * self.resolution,
            self.z_min + (iz + 0.5) * self.resolution,
        )

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True, slots=True, eq=False)
class WorkspaceGrid:
    """Dense occupancy flags over a GridSpec, indexed [iz, iy, ix]."""

    spec: GridSpec
    occupancy: np.ndarray

    def __post_init__(self):
        nx, ny, nz = self.spec.dims
        if self.occupancy.shape != (nz, ny, nx) or self.occupancy.dtype != np.bool_:
            raise ValueError(
                f"occupancy must be bool with shape {(nz, ny, nx)}, "
                f"got {self.occupancy.dtype} {self.occupancy.shape}"
            )
        self.occupancy.setflags(write=False)

    @property
    def occupied_count(self) -> int:
        return int(np.count_nonzero(self.occupancy))


@dataclass(frozen=True, slots=True, eq=False)
class PrescribedWorkspace:
    """A finite set of poses the mechanism is required to reach."""

    points: np.ndarray = field()

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] == 0:
            raise ValueError("points must be a non-empty (n, 3) array")
        if not np.isfinite(pts).all():
            raise ValueError("points must be finite")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]


def compute_workspace(geometry: RobotGeometry, spec: GridSpec) -> WorkspaceGrid:
    """Scan the grid; each flag is the exact reachability of the cell centre.

    The (y, x) plane is cut into tiles of at most SLAB_CELLS columns, the
    blocks _blocks gives for a single z layer.  Each arm's plane is cut once
    per column (kinematics._plane_cut); the closed forms and the kernel read
    that cut.  Along each column every arm reaches one z-interval below the
    base plane, in closed form (kinematics._arm_bounds), so the column's
    reachable cells below the plane are at most one run.  A cell below
    z = -kinematics._TINY further than a margin inside every arm's interval
    is True, and one further than the margin outside some arm's interval is
    False.  The margin is at least one cell and covers the rounding of the
    bounds and of the kernel, so those verdicts are the kernel's own.  The
    kernel decides the cells left, the bands about the run ends and every
    cell from z = -_TINY up, in blocks of at most SLAB_CELLS cells; a column
    whose margin is not finite, near a tangent plane cut, runs through it
    whole.  The flags therefore equal a kernel call on every cell bit for
    bit, and peak memory is the occupancy plus a fixed tile's temporaries.
    """
    nx, ny, nz = spec.dims
    x = spec.axis_centers("x")
    y = spec.axis_centers("y")
    z = spec.axis_centers("z")
    occupancy = np.zeros((nz, ny, nx), dtype=bool)
    # Runs are written as +1 at their first cell and -1 after their last,
    # then summed along z in place.
    diff = occupancy.view(np.int8)
    # The closed forms decide only cells below the base plane; the kernel the rest.
    below = int(np.searchsorted(z, -_TINY, "left"))
    # Link lengths, offsets and the largest |coordinate| the kernel meets
    # bound the terms it rounds.
    extent = (geometry.r_f + geometry.r_e + abs(geometry.a) + abs(geometry.b)
              + sum(max(abs(c[0]), abs(c[-1])) for c in (x, y, z)))
    for _, ys, xs in _blocks(nx, ny, 1):
        cuts = [_plane_cut(geometry, x[xs], y[ys, None], arm) for arm in (1, 2, 3)]
        iy, ix = np.nonzero(~(cuts[0][0] | cuts[1][0] | cuts[2][0]))
        if iy.size == 0:
            continue
        # Each live column's cut, one entry per column.
        cuts = [(miss[iy, ix], rc2[iy, ix], dy[iy, ix], tol) for miss, rc2, dy, tol in cuts]
        per_arm = zip(*[_arm_bounds(geometry, cut, extent * extent) for cut in cuts])
        # Every arm must reach a cell: the intervals intersect, -z in [lo, hi].
        lo, hi, err = (functools.reduce(op, arms)
                       for op, arms in zip((np.maximum, np.minimum, np.maximum), per_arm))
        margin = np.maximum(err, spec.resolution)
        whole = ~np.isfinite(lo + hi + margin)
        u0, c0, c1, u1 = _run_indices(z, -hi, -lo, margin, whole, below)
        tile = diff[:, ys, xs]
        has = c0 < c1
        tile[c0[has], iy[has], ix[has]] += 1
        has &= c1 < nz
        tile[c1[has], iy[has], ix[has]] -= 1
        for k in range(1, nz):
            np.add(tile[k], tile[k - 1], out=tile[k])
        # Cells the closed forms leave undecided: [u0, c0), [c1, u1) and
        # [below, nz), every cell from z = -_TINY up.
        starts = np.concatenate((u0, c1, np.full_like(u0, below)))
        stops = np.concatenate((c0, u1, np.full_like(u0, nz)))
        column = np.tile(np.arange(iy.size), 3)
        keep = stops > starts
        for cell, iz in _range_cells(column[keep], starts[keep], stops[keep] - starts[keep]):
            # Gathered one arm at a time, so one arm's gather is alive.
            arms = ((miss[cell], rc2[cell], dy[cell], tol) for miss, rc2, dy, tol in cuts)
            tile[iz, iy[cell], ix[cell]] = _reachable(geometry, arms, z[iz])
    return WorkspaceGrid(spec=spec, occupancy=occupancy)


def _run_indices(z, lo, hi, margin, whole, stop):
    """Index bounds of the cells of z[:stop] within a closed-form interval
    [lo, hi] of each column: the cells in [c0, c1) lie more than margin
    inside it, and those outside [u0, u1) more than margin outside it.
    Columns flagged whole get an undecided [u0, u1) of the full range."""
    u0 = np.minimum(np.searchsorted(z, lo - margin, "left"), stop)
    u1 = np.clip(np.searchsorted(z, hi + margin, "right"), u0, stop)
    c0 = np.clip(np.searchsorted(z, lo + margin, "right"), u0, u1)
    c1 = np.clip(np.searchsorted(z, hi - margin, "left"), c0, u1)
    u0[whole] = 0
    u1[whole] = c0[whole] = c1[whole] = stop
    return (u0, c0, c1, u1)


def _range_cells(column, start, length):
    """(column, z index) arrays of the cells of the ranges
    [start, start + length) of each column, in blocks of at most SLAB_CELLS."""
    ends = np.cumsum(length)
    total = int(ends[-1]) if ends.size else 0
    for b0 in range(0, total, SLAB_CELLS):
        b1 = min(b0 + SLAB_CELLS, total)
        r0 = int(np.searchsorted(ends, b0, "right"))
        r1 = int(np.searchsorted(ends, b1, "left")) + 1
        first = ends[r0:r1] - length[r0:r1]
        counts = np.minimum(ends[r0:r1], b1) - np.maximum(first, b0)
        r = np.repeat(np.arange(r0, r1), counts)
        yield column[r], start[r] + (np.arange(b0, b1) - first[r - r0])


def _blocks(nx: int, ny: int, nz: int):
    """(z, y, x) slices that tile an [nz, ny, nx] grid in C order, in blocks
    of at most SLAB_CELLS cells: whole (y, x) planes stacked in z when a
    plane fits, else runs of whole x rows, else runs of cells of one row."""
    kx = min(nx, SLAB_CELLS)
    ky = min(ny, max(1, SLAB_CELLS // nx))
    kz = min(nz, max(1, SLAB_CELLS // (nx * ny)))
    for z0 in range(0, nz, kz):
        for y0 in range(0, ny, ky):
            for x0 in range(0, nx, kx):
                yield slice(z0, z0 + kz), slice(y0, y0 + ky), slice(x0, x0 + kx)


def coverage(geometry: RobotGeometry, prescribed: PrescribedWorkspace) -> float:
    """Fraction of prescribed points reachable, each tested exactly."""
    links = [(geometry.a, geometry.b, geometry.r_f, geometry.r_e)]
    return float(coverage_links(links, prescribed)[0])


def coverage_links(links, prescribed: PrescribedWorkspace) -> np.ndarray:
    """coverage() of each row (a, b, r_f, r_e) of links, the link fields of
    assemblable geometries, in blocks of at most PAIR_BUDGET pairs.

    kinematics._reach_verdict decides most geometry x point pairs in closed
    form; a block where it leaves any pair open, as it does every pair of a
    point at or above the base plane, goes to the kernel (reachable_mask)
    whole.  So the counts are the kernel's own."""
    links = np.asarray(links, dtype=np.float64)
    pts = prescribed.points
    n = len(pts)
    rows = max(1, PAIR_BUDGET // n)
    cols = min(n, PAIR_BUDGET)
    counts = np.zeros(len(links), dtype=np.int64)
    for i in range(0, len(links), rows):
        columns = _LinkColumns(*links[i:i + rows].T[:, :, None])
        for j in range(0, n, cols):
            x, y, z = pts[j:j + cols].T
            reached, missed = _reach_verdict(columns, x, y, z)
            if not (reached | missed).all():
                reached = reachable_mask(columns, x, y, z)
            counts[i:i + rows] += np.count_nonzero(reached, axis=1)
    return counts / n


def volume_estimate(grid: WorkspaceGrid) -> float:
    """Occupied cell count times the cell volume, mm^3."""
    r = grid.spec.resolution
    return grid.occupied_count * (r * r * r)


def default_grid_spec(geometry: RobotGeometry, resolution: float = 10.0) -> GridSpec:
    """Bounding box that provably contains the workspace.

    Horizontal radius a + r_f + r_e; z from -(r_f + r_e) up to the base
    plane, and past it by under a cell where the resolution does not divide
    r_f + r_e; compute_workspace leaves such cells to the kernel.
    """
    radius = geometry.a + geometry.r_f + geometry.r_e
    depth = geometry.r_f + geometry.r_e
    return GridSpec(
        x_min=-radius, x_max=radius,
        y_min=-radius, y_max=radius,
        z_min=-depth, z_max=0.0,
        resolution=resolution,
    )


def dump_grid(grid: WorkspaceGrid, path: str | Path, geometry: RobotGeometry | None = None) -> None:
    """Write the grid as a text file: one JSON header line, then one line of
    '0'/'1' flags per (z, y) row, x fastest, every line ending in LF.

    Byte-exact across platforms.  The body is written as bytes, one block of
    _blocks at a time, so no second full copy of the grid is held.
    """
    nx, ny, nz = grid.spec.dims
    header = {
        "format": _GRID_MAGIC,
        "version": _GRID_VERSION,
        "bounds": grid.spec.to_dict(),
        "dims": [nx, ny, nz],
        "order": "x fastest, then y, then z",
    }
    if geometry is not None:
        header["geometry"] = geometry.to_dict()
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True, separators=(",", ":")).encode("ascii"))
        fh.write(b"\n")
        for zs, ys, xs in _blocks(nx, ny, nz):
            flags = grid.occupancy[zs, ys, xs].view(np.uint8)
            width = flags.shape[2]
            # A newline column closes each row; an x-split row gets it with
            # its last block.
            ends_rows = xs.stop >= nx
            chunk = np.empty(flags.shape[:2] + (width + ends_rows,), dtype=np.uint8)
            np.add(flags, ord("0"), out=chunk[:, :, :width])
            if ends_rows:
                chunk[:, :, width] = ord("\n")
            fh.write(chunk)


def load_grid(path: str | Path) -> WorkspaceGrid:
    """Read a grid written by dump_grid.

    After the header the file must hold exactly nz * ny rows of nx '0'/'1'
    bytes, each ending in a newline: a truncated body (a missing final
    newline included) or anything after the last row is an error naming the
    first bad (z, y) row.  CRLF and CR line endings are read as LF.
    """
    with open(path, "rb") as fh:
        # The flags are converted in place and the grid is a view of this
        # buffer, so a load allocates one grid-sized buffer, not two.
        size = os.fstat(fh.fileno()).st_size
        data = _file_buffer(size)
        got = fh.readinto(data)
        rest = fh.read()
    if got < size or rest:
        # The file changed size while it was read, or has none (a pipe).
        data = bytearray(data[:got]) + rest
    with naming(f"grid file {path}"):
        return _parse_grid(data)


def _file_buffer(size: int):
    """A writable buffer of size zero bytes.

    On the malloc heap, whether a buffer the size of the 6 mm g0 grid
    (3.4 MB) reused resident pages or faulted in 800 fresh ones hung on what
    earlier calls had left free there, and its load time nearly doubled from
    one process to the next.  A buffer of MAPPED_LOAD_BYTES or more
    gets a private mapping instead: it always starts fresh, is populated in
    one call where the system can, and goes back to the system with the grid.
    """
    if size < MAPPED_LOAD_BYTES or not hasattr(mmap, "MAP_ANONYMOUS"):
        return bytearray(size)
    flags = mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS | getattr(mmap, "MAP_POPULATE", 0)
    return mmap.mmap(-1, size, flags=flags)


def _parse_grid(data) -> WorkspaceGrid:
    # find, not `in`: an mmap has no fast membership test.
    if data.find(b"\r") >= 0:
        data = bytearray(data).replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    end = data.find(b"\n")
    if end < 0:
        end = len(data)
    try:
        header = json.loads(data[:end].decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"bad header ({exc})") from exc
    fields(header, "header", ("format", "version", "bounds", "dims"), ("order", "geometry"))
    if (header["format"] != _GRID_MAGIC
            or as_count("version", header["version"], 1) != _GRID_VERSION):
        raise ValueError("unrecognised format header")
    spec = GridSpec(**fields(header["bounds"], "bounds", GridSpec.__dataclass_fields__))
    nx, ny, nz = spec.dims
    if [as_count("dims", n, 1) for n in as_list("dims", header["dims"], 3)] != [nx, ny, nz]:
        raise ValueError("dims do not match bounds/resolution")

    body = np.frombuffer(data, dtype=np.uint8)[end + 1:]
    n_rows = nz * ny
    whole = min(body.size // (nx + 1), n_rows)
    rows = body[:whole * (nx + 1)].reshape(whole, nx + 1)
    bad = rows[:, nx] != ord("\n")
    # uint8 arithmetic wraps, so every byte but '0' and '1' maps above 1.
    rows -= np.uint8(ord("0"))
    flags = rows[:, :nx]
    # Row by row only when some flag byte is bad, to name the first bad row.
    if flags.max(initial=0) > 1:
        bad |= flags.max(axis=1) > 1
    first_bad = int(bad.argmax()) if bad.any() else whole
    if first_bad < n_rows:
        iz, iy = divmod(first_bad, ny)
        raise ValueError(f"bad row at z={iz} y={iy}")
    if body.size > n_rows * (nx + 1):
        raise ValueError(f"data after the last row (z={nz - 1} y={ny - 1})")
    return WorkspaceGrid(spec=spec, occupancy=flags.view(bool).reshape(nz, ny, nx))


def load_prescribed(path: str | Path) -> PrescribedWorkspace:
    """Read a prescribed-workspace JSON file: a list of [x, y, z] triples, or
    an object holding that list under "points" beside annotation keys."""
    with read_json(path, "prescribed file") as raw:
        if isinstance(raw, dict):
            # Annotation keys (coverage_g0, say) may sit beside "points".
            raw = fields(raw, "top level", ("points",), optional=raw)["points"]
        points = [[as_number(f"point {i} {axis}", value)
                   for axis, value in zip("xyz", as_list(f"point {i}", item, 3))]
                  for i, item in enumerate(as_list("points", raw))]
        return PrescribedWorkspace(points=np.array(points, dtype=np.float64).reshape(-1, 3))


def save_prescribed(prescribed: PrescribedWorkspace, path: str | Path) -> None:
    write_json([[float(v) for v in row] for row in prescribed.points], path)


def is_reachable_many(geometry: RobotGeometry, points: np.ndarray) -> np.ndarray:
    """Exact reachability for an (n, 3) array of poses."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError("points must be an (n, 3) array")
    return reachable_mask(geometry, pts[:, 0], pts[:, 1], pts[:, 2])
