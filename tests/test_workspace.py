import json
import math
import os
import re
import tempfile
import threading
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import load_fixture
from deltacut import (
    CELL_BUDGET,
    CellBudgetExceeded,
    GridSpec,
    Pose,
    PrescribedWorkspace,
    WorkspaceGrid,
    compute_workspace,
    coverage,
    default_grid_spec,
    dump_grid,
    is_reachable,
    is_reachable_many,
    load_grid,
    load_prescribed,
    save_prescribed,
    volume_estimate,
    workspace,
)
from deltacut.errors import json_text
from oracles import grid_dump_bytes


def reference_spec():
    return GridSpec(-300.0, 300.0, -300.0, 300.0, -550.0, -50.0, 10.0)


def test_grid_spec_dims_round_up():
    spec = GridSpec(0.0, 25.0, 0.0, 10.0, -10.0, -1.0, 10.0)
    assert spec.dims == (3, 1, 1)


def test_grid_spec_cell_centers():
    spec = GridSpec(0.0, 30.0, -10.0, 10.0, -20.0, 0.0, 10.0)
    assert list(spec.axis_centers("x")) == [5.0, 15.0, 25.0]
    assert spec.cell_center(0, 1, 0) == (5.0, 5.0, -15.0)


@pytest.mark.parametrize("kwargs", [
    dict(x_min=0.0, x_max=0.0, y_min=0.0, y_max=1.0, z_min=0.0, z_max=1.0, resolution=1.0),
    dict(x_min=0.0, x_max=1.0, y_min=0.0, y_max=1.0, z_min=0.0, z_max=1.0, resolution=0.0),
    dict(x_min=0.0, x_max=1.0, y_min=2.0, y_max=1.0, z_min=0.0, z_max=1.0, resolution=1.0),
    dict(x_min=0.0, x_max=math.nan, y_min=0.0, y_max=1.0, z_min=0.0, z_max=1.0, resolution=1.0),
])
def test_grid_spec_rejects_degenerate_boxes(kwargs):
    with pytest.raises(ValueError):
        GridSpec(**kwargs)


@pytest.mark.parametrize("axis, kwargs", [
    ("x", dict(x_min=-1e308, x_max=1e308)),
    ("y", dict(y_min=-1e308, y_max=1e308)),
    # A subnormal cell size overflows the first axis's count.
    ("x", dict(resolution=5e-324)),
])
def test_grid_spec_refuses_a_cell_count_that_overflows(axis, kwargs):
    bounds = dict(x_min=0.0, x_max=1.0, y_min=0.0, y_max=1.0, z_min=-1.0, z_max=0.0,
                  resolution=1.0)
    with pytest.raises(ValueError, match=f"^{axis} cell count is not finite"):
        GridSpec(**{**bounds, **kwargs})


@pytest.mark.parametrize("kwargs", [
    dict(resolution=1e103),
    # Each cell's 1e306 mm^3 is finite, their sum over 1000 cells is not.
    dict(x_max=1e105, resolution=1e102),
])
def test_grid_spec_refuses_a_volume_that_overflows(kwargs):
    bounds = dict(x_min=0.0, x_max=1.0, y_min=0.0, y_max=1.0, z_min=-1.0, z_max=0.0,
                  resolution=1.0)
    with pytest.raises(ValueError, match="is too large: the grid's volume overflows$"):
        GridSpec(**{**bounds, **kwargs})
    # One cell of 1e102 mm is 1e306 mm^3.
    assert GridSpec(**{**bounds, "resolution": 1e102}).dims == (1, 1, 1)


def test_cell_budget_guard():
    with pytest.raises(CellBudgetExceeded):
        GridSpec(-1000.0, 1000.0, -1000.0, 1000.0, -1000.0, 0.0, 0.1)
    assert CELL_BUDGET == 100_000_000


def test_reference_grid_matches_brute_force_fixture(g0):
    record = load_fixture("workspace_g0_res10.json")
    spec = reference_spec()
    assert list(spec.dims) == record["dims"]
    grid = compute_workspace(g0, spec)
    assert grid.occupied_count == record["occupied_count"]
    assert volume_estimate(grid) == record["volume_mm3"]


def test_vector_scan_agrees_with_scalar_solver(g0):
    rng = np.random.default_rng(31415)
    pts = rng.uniform([-350, -350, -600], [350, 350, 0], size=(5000, 3))
    flags = is_reachable_many(g0, pts)
    for i in range(0, 5000, 7):
        want = is_reachable(g0, Pose(*pts[i]))
        assert bool(flags[i]) == want


@pytest.mark.parametrize("call, error", [
    (lambda g0: WorkspaceGrid(spec=GridSpec(**_BOUNDS), occupancy=np.zeros((1, 1, 2), np.uint8)),
     "occupancy must be bool with shape (1, 1, 2), got uint8 (1, 1, 2)"),
    (lambda g0: is_reachable_many(g0, np.zeros(3)), "points must be an (n, 3) array"),
])
def test_arrays_of_the_wrong_kind_are_refused(g0, call, error):
    with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
        call(g0)


def test_coverage_matches_fixture(g0):
    record = load_fixture("prescribed_mixed10.json")
    prescribed = PrescribedWorkspace(points=np.array(record["points"]))
    assert coverage(g0, prescribed) == record["coverage_g0"]


def test_coverage_of_unreachable_set_is_zero(g0):
    pts = PrescribedWorkspace(points=np.array([[0.0, 0.0, -900.0], [700.0, 0.0, -300.0]]))
    assert coverage(g0, pts) == 0.0


def test_prescribed_validation():
    with pytest.raises(ValueError):
        PrescribedWorkspace(points=np.zeros((0, 3)))
    with pytest.raises(ValueError):
        PrescribedWorkspace(points=np.array([[0.0, 1.0]]))
    with pytest.raises(ValueError):
        PrescribedWorkspace(points=np.array([[0.0, 1.0, math.inf]]))


def test_prescribed_file_round_trip(tmp_path):
    pts = PrescribedWorkspace(points=np.array([[1.0, 2.0, -3.0], [4.0, 5.0, -6.0]]))
    path = tmp_path / "points.json"
    save_prescribed(pts, path)
    assert path.read_bytes() == json_text([[1.0, 2.0, -3.0], [4.0, 5.0, -6.0]]).encode()
    again = load_prescribed(path)
    assert np.array_equal(again.points, pts.points)


def test_load_prescribed_accepts_bare_list(tmp_path):
    path = tmp_path / "points.json"
    path.write_text("[[1.0, 2.0, -3.0]]", encoding="utf-8")
    assert len(load_prescribed(path)) == 1


def test_default_grid_spec_covers_the_reach(g0):
    spec = default_grid_spec(g0)
    radius = g0.a + g0.r_f + g0.r_e
    assert spec.x_min == -radius and spec.x_max == radius
    assert spec.y_min == -radius and spec.y_max == radius
    assert spec.z_min == -(g0.r_f + g0.r_e) and spec.z_max == 0.0
    assert spec.resolution == 10.0


def test_grid_dump_round_trip(tmp_path, g0):
    spec = GridSpec(-120.0, 120.0, -120.0, 120.0, -400.0, -200.0, 20.0)
    grid = compute_workspace(g0, spec)
    path = tmp_path / "grid.txt"
    dump_grid(grid, path, geometry=g0)

    again = load_grid(path)
    assert again.spec == grid.spec
    assert np.array_equal(again.occupancy, grid.occupancy)

    second = tmp_path / "grid2.txt"
    dump_grid(again, second, geometry=g0)
    assert path.read_bytes() == second.read_bytes()


def test_grid_dump_header_is_json_with_geometry(tmp_path, g0):
    spec = GridSpec(-60.0, 60.0, -60.0, 60.0, -320.0, -280.0, 20.0)
    grid = compute_workspace(g0, spec)
    path = tmp_path / "grid.txt"
    dump_grid(grid, path, geometry=g0)
    header = json.loads(path.read_text(encoding="utf-8").splitlines()[0])
    assert header["dims"] == list(spec.dims)
    assert header["geometry"]["rf"] == g0.r_f
    assert header["order"].startswith("x fastest")


def test_load_grid_rejects_corrupt_rows(tmp_path, g0):
    spec = GridSpec(-60.0, 60.0, -60.0, 60.0, -320.0, -280.0, 20.0)
    grid = compute_workspace(g0, spec)
    path = tmp_path / "grid.txt"
    dump_grid(grid, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[1] = lines[1][:-1] + "2"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_grid(path)


def test_occupied_cells_are_actually_reachable(g0):
    spec = GridSpec(-150.0, 150.0, -150.0, 150.0, -450.0, -150.0, 30.0)
    grid = compute_workspace(g0, spec)
    xs = spec.axis_centers("x")
    ys = spec.axis_centers("y")
    zs = spec.axis_centers("z")
    occ = grid.occupancy
    for iz in range(len(zs)):
        for iy in range(len(ys)):
            for ix in range(len(xs)):
                want = is_reachable(g0, Pose(xs[ix], ys[iy], zs[iz]))
                assert bool(occ[iz, iy, ix]) == want


def _dump_bytes(tmp_path, g0):
    # A 3 x 2 x 2 grid: rows are 3 flags and a newline, 4 rows in all.
    spec = GridSpec(-30.0, 30.0, -20.0, 20.0, -320.0, -280.0, 20.0)
    occupancy = np.array([[[1, 0, 1], [0, 0, 1]], [[1, 1, 1], [0, 1, 0]]], dtype=bool)
    grid = WorkspaceGrid(spec=spec, occupancy=occupancy)
    path = tmp_path / "grid.txt"
    dump_grid(grid, path, geometry=g0)
    return grid, path, path.read_bytes()


@pytest.fixture(params=["heap", "mapped"])
def load_buffer(request):
    """load_grid reading into a heap buffer, then into a mapping of its own."""
    if request.param == "heap":
        yield
    else:
        with mock.patch.object(workspace, "MAPPED_LOAD_BYTES", 1):
            yield


@pytest.mark.usefixtures("load_buffer")
@pytest.mark.parametrize("ending", [b"\n", b"\r\n"], ids=["lf", "crlf"])
def test_load_grid_reads_into_either_buffer(tmp_path, g0, ending):
    grid, path, data = _dump_bytes(tmp_path, g0)
    path.write_bytes(data.replace(b"\n", ending))
    again = load_grid(path)
    assert again.spec == grid.spec
    assert np.array_equal(again.occupancy, grid.occupancy)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_load_grid_reads_a_file_with_no_size(tmp_path, g0):
    # A pipe reports size 0, so the whole body comes from the read after
    # the sized one.
    grid, path, data = _dump_bytes(tmp_path, g0)
    fifo = tmp_path / "grid.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=lambda: fifo.write_bytes(data))
    writer.start()
    try:
        again = load_grid(fifo)
    finally:
        writer.join()
    assert again.spec == grid.spec
    assert np.array_equal(again.occupancy, grid.occupancy)


def test_load_grid_reads_crlf_line_endings(tmp_path, g0):
    grid, path, data = _dump_bytes(tmp_path, g0)
    path.write_bytes(data.replace(b"\n", b"\r\n"))
    again = load_grid(path)
    assert again.spec == grid.spec
    assert np.array_equal(again.occupancy, grid.occupancy)


@pytest.mark.parametrize("edit, error", [
    (lambda d: d[:-1], "bad row at z=1 y=1"),
    (lambda d: d[:-4], "bad row at z=1 y=1"),
    (lambda d: d[:d.index(b"\n") + 1], "bad row at z=0 y=0"),
    (lambda d: d + b"\n", "data after the last row"),
    (lambda d: d + b"010\n", "data after the last row"),
    (lambda d: d.replace(b"\n101\n", b"\n1010\n", 1), "bad row at z=0 y=0"),
    (lambda d: d.replace(b"\n001\n", b"\n01\n", 1), "bad row at z=0 y=1"),
    (lambda d: d.replace(b"\n010\n", b"\n0x0\n", 1), "bad row at z=1 y=1"),
    (lambda d: d[:d.index(b"\n")], "bad row at z=0 y=0"),
], ids=["no-final-newline", "last-row-missing", "header-only", "blank-line-after",
        "row-after", "long-row", "short-row", "bad-digit", "header-without-newline"])
def test_load_grid_rejects_bodies_of_the_wrong_shape(tmp_path, g0, edit, error):
    _, path, data = _dump_bytes(tmp_path, g0)
    path.write_bytes(edit(data))
    with pytest.raises(ValueError, match=re.escape(f"grid file {path}: {error}")):
        load_grid(path)


_BOUNDS = {"x_min": 0.0, "x_max": 2.0, "y_min": 0.0, "y_max": 1.0,
           "z_min": -1.0, "z_max": 0.0, "resolution": 1.0}
_HEAD = {"format": "deltacut-grid", "version": 1, "dims": [2, 1, 1]}


@pytest.mark.parametrize("header", [
    _HEAD,
    ["deltacut-grid", 1],
    {**_HEAD, "bounds": [1, 2]},
    {**_HEAD, "bounds": {"x_min": 0.0}},
    {**_HEAD, "bounds": {**_BOUNDS, "resolution": 0.0}},
    {**_HEAD, "bounds": {**_BOUNDS, "x_min": -1e308, "x_max": 1e308}},
    {**_HEAD, "bounds": _BOUNDS, "dims": [1, 2, 1]},
    {**_HEAD, "bounds": _BOUNDS, "version": True},
    {**_HEAD, "bounds": _BOUNDS, "version": 1.0},
    {**_HEAD, "bounds": _BOUNDS, "dims": [2.0, 1.0, 1.0]},
    {**_HEAD, "bounds": _BOUNDS, "colour": "red"},
], ids=["no-bounds", "list-header", "list-bounds", "missing-bound", "zero-resolution",
        "overflowing-span", "dims-disagree", "bool-version", "float-version", "float-dims",
        "unknown-key"])
def test_load_grid_rejects_malformed_headers(tmp_path, header):
    path = tmp_path / "grid.txt"
    path.write_bytes(json.dumps(header).encode("ascii") + b"\n01\n")
    with pytest.raises(ValueError, match=re.escape(f"grid file {path}: ")):
        load_grid(path)


def test_load_grid_refuses_a_header_whose_volume_overflows(tmp_path):
    # A well-formed one-cell file, but its cell is 1e309 mm^3.
    header = {**_HEAD, "dims": [1, 1, 1], "bounds": {**_BOUNDS, "resolution": 1e103}}
    path = tmp_path / "grid.txt"
    path.write_bytes(json.dumps(header).encode("ascii") + b"\n1\n")
    with pytest.raises(ValueError, match=re.escape(
            f"grid file {path}: resolution=1e+103 is too large: the grid's volume overflows")):
        load_grid(path)


def test_load_grid_rejects_a_too_deeply_nested_header(tmp_path):
    path = tmp_path / "grid.txt"
    path.write_bytes(b"[" * 100_000 + b"\n01\n")
    with pytest.raises(ValueError, match=re.escape(f"grid file {path}: bad header")):
        load_grid(path)


def test_grid_load_holds_one_copy_of_the_file(tmp_path, g0):
    grid = compute_workspace(g0, default_grid_spec(g0, 8.0))
    path = tmp_path / "grid.txt"
    dump_grid(grid, path)
    tracemalloc.start()
    try:
        again = load_grid(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(again.occupancy, grid.occupancy)
    # The flags are converted inside the file buffer, not copied out of it.
    assert peak < path.stat().st_size + 500_000


@st.composite
def grids(draw):
    """Random occupancy over a small box; any dimension may be 1."""
    res = draw(st.sampled_from([0.5, 1.0, 7.25, 20.0]))
    n = [draw(st.integers(1, 8)) for _ in range(3)]
    spec = GridSpec(-n[0] * res / 2, n[0] * res / 2, -n[1] * res / 2, n[1] * res / 2,
                    -300.0 - n[2] * res, -300.0, res)
    nx, ny, nz = spec.dims
    flags = np.frombuffer(draw(st.binary(min_size=nx * ny * nz, max_size=nx * ny * nz)), np.uint8)
    return WorkspaceGrid(spec=spec, occupancy=(flags & 1).astype(bool).reshape(nz, ny, nx))


# Small budgets make the writer split rows in x and end them mid-block.
slabs = st.one_of(st.just(workspace.SLAB_CELLS), st.integers(1, 600))


@settings(max_examples=60, deadline=None)
@given(grid=grids(), with_geometry=st.booleans(), slab=slabs)
def test_dump_equals_the_per_row_writer(g0, grid, with_geometry, slab):
    geometry = g0 if with_geometry else None
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "grid.txt"
        with mock.patch.object(workspace, "SLAB_CELLS", slab):
            dump_grid(grid, path, geometry=geometry)
        assert path.read_bytes() == grid_dump_bytes(grid, geometry)


@settings(max_examples=60, deadline=None)
@given(grid=grids(), slab=slabs, mapped=st.booleans())
def test_load_grid_inverts_dump_grid(grid, slab, mapped):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "grid.txt"
        with mock.patch.object(workspace, "SLAB_CELLS", slab):
            dump_grid(grid, path)
        with mock.patch.object(workspace, "MAPPED_LOAD_BYTES", 1 if mapped else 1 << 20):
            again = load_grid(path)
    assert again.spec == grid.spec
    assert np.array_equal(again.occupancy, grid.occupancy)


@pytest.mark.parametrize("spec_of, slab, margin", [
    (lambda g: default_grid_spec(g, 8.0), workspace.SLAB_CELLS, 48_000_000),
    # One row of a million cells: the budget splits it along x.
    (lambda g: GridSpec(-5e5, 5e5, -0.5, 0.5, -300.5, -299.5, 1.0), 4096, 48_000_000),
    # One layer of a million columns: the column probe runs in tiles too, so
    # no plane-sized float64 or index array (8 MB each) is ever held.
    (lambda g: GridSpec(-500.0, 500.0, -500.0, 500.0, -300.5, -299.5, 1.0), 4096, 4_000_000),
], ids=["g0-8mm", "one-long-row", "one-wide-layer"])
def test_scan_memory_is_bounded(g0, spec_of, slab, margin):
    spec = spec_of(g0)
    with mock.patch.object(workspace, "SLAB_CELLS", slab):
        tracemalloc.start()
        try:
            grid = compute_workspace(g0, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert grid.occupancy.size >= 1_000_000
    assert peak < grid.occupancy.nbytes + margin
