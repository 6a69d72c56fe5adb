"""Reachable-workspace scans: dense boolean grids and point-set coverage.

Reachability is always an exact per-point test; a grid only decides where
the test runs (cell centres).  Every test here goes through
kinematics.reachable_mask, the array mode of the one arm kernel that scalar
inverse kinematics also uses, or through kinematics.plane_mask, that
kernel's own first flag, so grid scans, coverage fractions and
kinematics.is_reachable can never disagree on a point.
"""

from __future__ import annotations

import json
import math
import os
from collections import namedtuple
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import CellBudgetExceeded, as_list, as_number, fields, naming, read_json, write_json
from .geometry import RobotGeometry
from .kinematics import plane_mask, reachable_mask

CELL_BUDGET = 100_000_000

# Most geometry x point pairs one coverage kernel call tests, so that peak
# memory does not grow with the population or the point set.
PAIR_BUDGET = 32_768

# Most grid cells one scan kernel call tests, and most (y, x) columns one
# scan tile probes, so that the kernel's float64 temporaries stay a fixed
# size whatever the grid; grid dumps are written in blocks of the same size.
SLAB_CELLS = 262_144

# The link fields _arm_kernel reads, as (m, 1) columns of m geometries.
_LinkColumns = namedtuple("_LinkColumns", "a b r_f r_e")

_GRID_MAGIC = "deltacut-grid"
_GRID_VERSION = 1
_GRID_FIELDS = ("x_min", "x_max", "y_min", "y_max", "z_min", "z_max", "resolution")


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
        for name in _GRID_FIELDS:
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
        return {
            "x_min": self.x_min, "x_max": self.x_max,
            "y_min": self.y_min, "y_max": self.y_max,
            "z_min": self.z_min, "z_max": self.z_max,
            "resolution": self.resolution,
        }


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
    blocks _blocks gives for a single z layer.  Where kinematics.plane_mask
    is False a column is unreachable at every z and keeps its initial False;
    the kernel runs only on a tile's live columns, over z, in blocks of at
    most SLAB_CELLS cells.  So peak memory is the occupancy plus a fixed
    block's temporaries, and as the kernel is elementwise, the flags do not
    depend on the tiling.
    """
    nx, ny, nz = spec.dims
    x = spec.axis_centers("x")
    y = spec.axis_centers("y")
    # z broadcasts against a tile's live columns inside the kernel, so steps
    # that do not depend on z run once per column of a block.
    z = spec.axis_centers("z")[:, None]
    occupancy = np.zeros((nz, ny, nx), dtype=bool)
    for _, ys, xs in _blocks(nx, ny, 1):
        iy, ix = np.nonzero(plane_mask(geometry, x[xs], y[ys, None]))
        if iy.size == 0:
            continue
        tile = occupancy[:, ys, xs]
        xl = x[xs][ix]
        yl = y[ys][iy]
        kz = SLAB_CELLS // iy.size
        for z0 in range(0, nz, kz):
            tile[z0:z0 + kz, iy, ix] = reachable_mask(geometry, xl, yl, z[z0:z0 + kz])
    return WorkspaceGrid(spec=spec, occupancy=occupancy)


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
    assemblable geometries, from kernel calls of at most PAIR_BUDGET pairs."""
    links = np.asarray(links, dtype=np.float64)
    pts = prescribed.points
    n = len(pts)
    rows = max(1, PAIR_BUDGET // n)
    cols = min(n, PAIR_BUDGET)
    counts = np.zeros(len(links), dtype=np.int64)
    for i in range(0, len(links), rows):
        columns = _LinkColumns(*links[i:i + rows].T[:, :, None])
        for j in range(0, n, cols):
            part = pts[j:j + cols]
            mask = reachable_mask(columns, part[:, 0], part[:, 1], part[:, 2])
            counts[i:i + rows] += mask.sum(axis=1)
    return counts / n


def volume_estimate(grid: WorkspaceGrid) -> float:
    """Occupied cell count times the cell volume, mm^3."""
    r = grid.spec.resolution
    return grid.occupied_count * (r * r * r)


def default_grid_spec(geometry: RobotGeometry, resolution: float = 10.0) -> GridSpec:
    """Bounding box that provably contains the workspace.

    Horizontal radius a + r_f + r_e; z from -(r_f + r_e) up to the base
    plane.
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
        data = bytearray(os.fstat(fh.fileno()).st_size)
        del data[fh.readinto(data):]
        data += fh.read()
    with naming(f"grid file {path}"):
        return _parse_grid(data)


def _parse_grid(data: bytearray) -> WorkspaceGrid:
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    end = data.find(b"\n")
    if end < 0:
        end = len(data)
    try:
        header = json.loads(data[:end].decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"bad header ({exc})") from exc
    if (not isinstance(header, dict) or header.get("format") != _GRID_MAGIC
            or header.get("version") != _GRID_VERSION):
        raise ValueError("unrecognised format header")
    spec = GridSpec(**fields(header.get("bounds"), "bounds", _GRID_FIELDS))
    nx, ny, nz = spec.dims
    if header.get("dims") != [nx, ny, nz]:
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
