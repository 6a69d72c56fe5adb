"""Reachable-workspace scans: dense boolean grids and point-set coverage.

Reachability is always an exact per-point test; a grid only decides where
the test runs (cell centres).  Every test here goes through
kinematics.reachable_mask, the array mode of the one arm kernel that scalar
inverse kinematics also uses, so grid scans, coverage fractions and
kinematics.is_reachable can never disagree on a point.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import CellBudgetExceeded, as_number, read_json
from .geometry import RobotGeometry
from .kinematics import reachable_mask

CELL_BUDGET = 100_000_000

# Most geometry x point pairs one coverage kernel call tests, so that peak
# memory does not grow with the population or the point set.
PAIR_BUDGET = 32_768

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
        for name in ("x_min", "x_max", "y_min", "y_max", "z_min", "z_max", "resolution"):
            value = as_number(name, getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, value)
        if not self.resolution > 0.0:
            raise ValueError(f"resolution must be positive, got {self.resolution}")
        for axis in ("x", "y", "z"):
            lo = getattr(self, f"{axis}_min")
            hi = getattr(self, f"{axis}_max")
            if not hi > lo:
                raise ValueError(f"{axis}_max must exceed {axis}_min ({lo} .. {hi})")
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
        return int(self.occupancy.sum())


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
    """Scan the grid; each flag is the exact reachability of the cell centre."""
    # Axis centres broadcast to the [iz, iy, ix] grid inside the kernel, so
    # steps that do not depend on z run once per (y, x) column.
    mask = reachable_mask(
        geometry,
        spec.axis_centers("x")[None, None, :],
        spec.axis_centers("y")[None, :, None],
        spec.axis_centers("z")[:, None, None],
    )
    return WorkspaceGrid(spec=spec, occupancy=mask)


def coverage(geometry: RobotGeometry, prescribed: PrescribedWorkspace) -> float:
    """Fraction of prescribed points reachable, each tested exactly."""
    return float(coverage_many([geometry], prescribed)[0])


def coverage_many(geometries, prescribed: PrescribedWorkspace) -> np.ndarray:
    """coverage() of each geometry, from kernel calls of at most PAIR_BUDGET pairs."""
    pts = prescribed.points
    n = len(pts)
    rows = max(1, PAIR_BUDGET // n)
    cols = min(n, PAIR_BUDGET)
    counts = np.zeros(len(geometries), dtype=np.int64)
    for i in range(0, len(geometries), rows):
        links = np.array([(g.a, g.b, g.r_f, g.r_e) for g in geometries[i:i + rows]])
        columns = _LinkColumns(*links.T[:, :, None])
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
    '0'/'1' flags per (z, y) row, x fastest.  Byte-exact across platforms."""
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
    digits = np.where(grid.occupancy, "1", "0")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(header, sort_keys=True, separators=(",", ":")))
        fh.write("\n")
        for iz in range(nz):
            for iy in range(ny):
                fh.write("".join(digits[iz, iy]))
                fh.write("\n")


def load_grid(path: str | Path) -> WorkspaceGrid:
    """Read a grid written by dump_grid."""
    with open(path, "r", encoding="utf-8") as fh:
        header_line = fh.readline()
        try:
            header = json.loads(header_line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"grid file {path}: bad header ({exc})") from exc
        if header.get("format") != _GRID_MAGIC or header.get("version") != _GRID_VERSION:
            raise ValueError(f"grid file {path}: unrecognised format header")
        spec = GridSpec(**header["bounds"])
        nx, ny, nz = spec.dims
        if header.get("dims") != [nx, ny, nz]:
            raise ValueError(f"grid file {path}: dims do not match bounds/resolution")
        rows = []
        for iz in range(nz):
            for iy in range(ny):
                line = fh.readline().rstrip("\n")
                if len(line) != nx or set(line) - {"0", "1"}:
                    raise ValueError(f"grid file {path}: bad row at z={iz} y={iy}")
                rows.append([ch == "1" for ch in line])
    occupancy = np.array(rows, dtype=bool).reshape(nz, ny, nx)
    return WorkspaceGrid(spec=spec, occupancy=occupancy)


def load_prescribed(path: str | Path) -> PrescribedWorkspace:
    """Read a prescribed-workspace JSON file: a list of [x, y, z] triples."""
    raw = read_json(path, "prescribed file")
    if isinstance(raw, dict) and "points" in raw:
        raw = raw["points"]
    if not isinstance(raw, list) or not raw:
        raise ValueError(f"prescribed file {path}: expected a non-empty list of points")
    for i, item in enumerate(raw):
        if not (isinstance(item, list) and len(item) == 3):
            raise ValueError(f"prescribed file {path}: point {i} is not an [x, y, z] triple")
    return PrescribedWorkspace(points=np.array(raw, dtype=np.float64))


def save_prescribed(prescribed: PrescribedWorkspace, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump([[float(v) for v in row] for row in prescribed.points], fh)
        fh.write("\n")


def is_reachable_many(geometry: RobotGeometry, points: np.ndarray) -> np.ndarray:
    """Exact reachability for an (n, 3) array of poses."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError("points must be an (n, 3) array")
    return reachable_mask(geometry, pts[:, 0], pts[:, 1], pts[:, 2])
