"""The arm kernel must agree with itself bit for bit on floats and arrays.

Scalar inverse kinematics, the reachability mask, blocked grid scans, batch
planning and batch GA fitness all run the same numpy kernel, on Python
floats as numpy scalars or on arrays.  These properties check that every
caller reaches the same verdicts, angles and fitness values on arbitrary
finite poses, axis poses, poses a few ulps inside the joint-range ends, the
frozen recovery point set, random grids and random genomes.
"""

import math
from collections import namedtuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import load_fixture
from deltacut import (
    ArcSegment,
    Contour,
    CutProgram,
    DesignBounds,
    GridSpec,
    JointAngles,
    LineSegment,
    NoSolution,
    Pose,
    PrescribedWorkspace,
    RobotGeometry,
    Singular,
    THETA_MAX,
    THETA_MIN,
    Unreachable,
    UnreachableSample,
    compute_workspace,
    default_grid_spec,
    forward_kinematics,
    inverse_kinematics,
    is_reachable,
    is_reachable_many,
    plan_program,
    random_search,
    trajectory,
)
from deltacut import design_opt, kinematics, workspace
from deltacut.design_opt import population_fitness
from deltacut.kinematics import (_arm_kernel, _plane_cut, _reachable, inverse_kinematics_many,
                                 reachable_mask)
import oracles
from oracles import arm_kernel_selects, pick, scan_live_columns

G0 = RobotGeometry(f=200.0 * math.sqrt(3.0), e=60.0 * math.sqrt(3.0), r_f=150.0, r_e=350.0)
RECOVERY = [tuple(p) for p in load_fixture("recovery_points.json")["points"]]
# Arms fully stretched on the axis, and every arm horizontal.
BOUNDARY = [
    (0.0, 0.0, -math.sqrt((G0.r_f + G0.r_e) ** 2 - (G0.a - G0.b) ** 2)),
    (0.0, 0.0, G0.home_z()),
]


@st.composite
def geometries(draw):
    f, e, r_f, r_e = (draw(st.floats(lo, hi)) for lo, hi in
                      ((80, 500), (30, 250), (50, 300), (100, 600)))
    try:
        return RobotGeometry(f=f, e=e, r_f=r_f, r_e=r_e)
    except ValueError:
        assume(False)


finite = st.floats(allow_nan=False, allow_infinity=False)
span = st.floats(-700, 700)
near = st.tuples(span, span, st.floats(-1100, 100))
poses = st.one_of(
    near,
    near.map(lambda p: (0.0, p[1], p[2])),
    near.map(lambda p: (p[0], 0.0, p[2])),
    st.sampled_from(RECOVERY + BOUNDARY),
    st.tuples(finite, finite, finite),
    # Far along z only: every arm meets its plane, and d^2 overflows.
    st.tuples(span, span, finite),
)
any_geometry = st.one_of(st.just(G0), geometries())
pose_lists = st.lists(poses, min_size=1, max_size=30)


def arm_kernel(links, x, y, z, arm):
    """One arm's kernel on world poses: its plane cut, then the kernel."""
    return _arm_kernel(links, _plane_cut(links, x, y, arm), z)


@settings(max_examples=150, deadline=None)
@given(geometry=any_geometry, points=pose_lists)
def test_scalar_and_array_reachability_agree(geometry, points):
    flags = is_reachable_many(geometry, np.array(points, dtype=np.float64))
    assert flags.tolist() == [is_reachable(geometry, Pose(*p)) for p in points]


@settings(max_examples=150, deadline=None)
@given(geometry=any_geometry, points=pose_lists)
def test_batch_angles_equal_scalar_angles(geometry, points):
    joints, reachable = inverse_kinematics_many(geometry, np.array(points, dtype=np.float64))
    for row, ok, p in zip(joints, reachable, points):
        try:
            want = inverse_kinematics(geometry, Pose(*p)).as_tuple()
        except Unreachable:
            assert not ok
            continue
        assert ok
        assert row.view(np.uint64).tolist() == np.array(want).view(np.uint64).tolist()


# Angles a few ulps inside THETA_MIN or THETA_MAX, where the solved knee
# angle may round onto the end itself.
end_angles = st.integers(1, 64).flatmap(lambda k: st.sampled_from(
    [THETA_MIN + k * math.ulp(THETA_MIN), THETA_MAX - k * math.ulp(THETA_MAX)]))
joint_angles = st.one_of(end_angles, st.floats(THETA_MIN, THETA_MAX,
                                               exclude_min=True, exclude_max=True))


@settings(max_examples=300, deadline=None)
@given(geometry=any_geometry, thetas=st.tuples(end_angles, joint_angles, joint_angles),
       turn=st.integers(0, 2))
def test_poses_near_the_joint_range_ends_solve_or_are_unreachable(geometry, thetas, turn):
    thetas = thetas[turn:] + thetas[:turn]
    try:
        pose = forward_kinematics(geometry, JointAngles(*thetas))
    except (NoSolution, Singular):
        assume(False)
    # A knee angle on a joint-range end would raise JointAngles' ValueError.
    try:
        inverse_kinematics(geometry, pose)
        solved = True
    except Unreachable:
        solved = False
    assert is_reachable(geometry, pose) is solved
    assert is_reachable_many(geometry, np.array([[pose.x, pose.y, pose.z]])).tolist() == [solved]


Links = namedtuple("Links", "a b r_f r_e")
# Integral links make the special poses below exact; links of 1e154 mm and
# up overflow the squares, and the verdict then rests on NaN propagation.
small_link = st.one_of(st.integers(1, 1000).map(float), st.floats(1.0, 1000.0))
huge_link = st.one_of(st.floats(1e154, 1e308), st.sampled_from([1e154, 1e200, 1.7e308]))


@st.composite
def kernel_cases(draw):
    """Links and a pose, often one that sits on a branch point of arm 1.

    In arm 1's frame: the platform joint on the pivot (coincident), the two
    circles tangent outside or inside (h2 = 0, so oy = 0 ties), or a pose
    on the base plane (uz = 0, so oy = 0 ties with h > 0); each exact, or
    nudged by a relative step within or beyond the tangent tolerance.  One
    case in four has some links of 1e154 mm or more.
    """
    links = [draw(small_link) for _ in range(4)]
    if draw(st.integers(0, 3)) == 0:
        for i in draw(st.sets(st.integers(0, 3), min_size=1)):
            links[i] = draw(huge_link)
    links = Links(*links)
    a, b, r_f, r_e = links
    kind = draw(st.sampled_from(["pose", "coincident", "outer", "inner", "base"]))
    if kind == "pose":
        return links, draw(poses)
    # Tangency needs x = 0; elsewhere x may pass the square of a huge r_e.
    x = 0.0 if kind in ("outer", "inner") else draw(st.one_of(st.just(0.0), span, huge_link))
    y = {"coincident": b - a, "outer": b - a + (r_f + r_e), "inner": b - a + abs(r_e - r_f),
         "base": draw(span)}[kind]
    y *= 1.0 + draw(st.sampled_from([0.0, 0.0, 0.0, 1e-15, -1e-15, 1e-7, -1e-7]))
    return links, (x, y, 0.0)


def canonical_bits(values):
    """The float64 bits of values, with every NaN as the same NaN."""
    v = np.asarray(values, dtype=np.float64)
    return np.where(np.isnan(v), np.nan, v).view(np.uint64).tolist()


@settings(max_examples=300, deadline=None)
@given(cases=st.lists(kernel_cases(), min_size=1, max_size=20), arm=st.sampled_from([1, 2, 3]))
def test_kernel_without_selects_equals_the_select_kernel(cases, arm):
    # On Python floats, one case at a time.
    for links, (x, y, z) in cases:
        got = arm_kernel(links, x, y, z, arm)
        want = arm_kernel_selects(links, x, y, z, arm, math.sqrt, pick)
        assert got[0] == want[0]
        assert canonical_bits(got[1:]) == canonical_bits(want[1:])
    # On arrays, every case at once, with one set of links per pose.
    links = Links(*(np.array(v) for v in zip(*(c[0] for c in cases))))
    x, y, z = (np.array(v) for v in zip(*(c[1] for c in cases)))
    with np.errstate(all="ignore"):
        got = arm_kernel(links, x, y, z, arm)
        want = arm_kernel_selects(links, x, y, z, arm, np.sqrt, np.where)
    for g, w in zip(got[0], want[0]):
        assert g.dtype == bool and g.tolist() == w.tolist()
    assert canonical_bits(got[1:]) == canonical_bits(want[1:])


@st.composite
def grid_specs(draw):
    """Small boxes in, across and beyond the reach of the drawn geometries."""
    res = draw(st.floats(2.0, 120.0))
    lo = (draw(span), draw(span), draw(st.floats(-1100, 0)))
    n = [draw(st.integers(1, 9)) for _ in range(3)]
    return GridSpec(lo[0], lo[0] + n[0] * res, lo[1], lo[1] + n[1] * res,
                    lo[2], lo[2] + n[2] * res, res)


def scan_with_spy(geometry, spec, slab):
    """compute_workspace's occupancy, and the cell count of each kernel call
    (workspace._reachable), which takes one plane cut per arm."""
    sizes = []

    def spy(geometry, cuts, z):
        cuts = list(cuts)
        assert len(cuts) == 3
        shapes = [np.shape(v) for cut in cuts for v in cut]
        sizes.append(math.prod(np.broadcast_shapes(np.shape(z), *shapes)))
        return _reachable(geometry, cuts, z)

    with mock.patch.object(workspace, "SLAB_CELLS", slab), \
            mock.patch.object(workspace, "_reachable", spy):
        return compute_workspace(geometry, spec).occupancy, sizes


def whole_grid(spec):
    return (spec.axis_centers("x")[None, None, :], spec.axis_centers("y")[None, :, None],
            spec.axis_centers("z")[:, None, None])


@settings(max_examples=100, deadline=None)
@given(geometry=any_geometry, spec=grid_specs(), data=st.data())
def test_block_scan_equals_one_kernel_call(geometry, spec, data):
    nx, ny, nz = spec.dims
    plane = nx * ny
    # Budgets below a row, a plane and the grid cut the columns into several
    # tiles or z into several blocks, most of them with a partial last one.
    slab = data.draw(st.one_of(st.sampled_from([1, 7, max(1, plane - 1), plane + 1]),
                               st.integers(1, plane * nz + 1)))
    x, y, z = whole_grid(spec)
    want = reachable_mask(geometry, x, y, z)
    # The scan runs the kernel only on columns that every arm's plane
    # reaches: those no arm flags as a plane miss in one whole-grid call.
    miss = np.zeros((1, ny, nx), dtype=bool)
    for arm in (1, 2, 3):
        miss |= arm_kernel(geometry, x, y, z, arm)[0][0]
    live_columns = np.count_nonzero(~miss)
    got, sizes = scan_with_spy(geometry, spec, slab)
    assert np.array_equal(got, want)
    assert max(sizes, default=0) <= slab
    # Closed-form bounds decide most cells of a live column.
    assert sum(sizes) <= nz * live_columns


def test_scan_of_a_box_outside_an_arm_strip_runs_no_kernel():
    # |x| > r_e everywhere, so arm 1's forearm sphere never cuts its plane.
    spec = GridSpec(G0.r_e + 50.0, G0.r_e + 150.0, -50.0, 50.0, -400.0, -200.0, 10.0)
    got, sizes = scan_with_spy(G0, spec, 64)
    assert sizes == []
    assert got.shape == (20, 10, 10) and not got.any()


def test_scan_of_a_box_inside_every_arm_strip_tests_only_run_ends():
    # Within r_e of the axis, every arm's plane is in reach of its sphere.
    spec = GridSpec(-100.0, 100.0, -100.0, 100.0, -450.0, -150.0, 10.0)
    got, sizes = scan_with_spy(G0, spec, 1000)
    assert np.array_equal(got, reachable_mask(G0, *whole_grid(spec)))
    assert got.any() and not got.all()
    assert max(sizes) <= 1000
    # Each column holds one run, which starts inside the box: the kernel
    # tests the cells within a cell of its lower end, not the whole column.
    nx, ny, nz = spec.dims
    assert sum(sizes) <= 3 * nx * ny < got.size


def test_default_scan_tests_few_cells_per_live_column():
    spec = default_grid_spec(G0, 6.0)
    got, sizes = scan_with_spy(G0, spec, workspace.SLAB_CELLS)
    x = spec.axis_centers("x")
    y = spec.axis_centers("y")[:, None]
    miss = kinematics._plane_cut(G0, x, y, 1)[0]
    for arm in (2, 3):
        miss = miss | kinematics._plane_cut(G0, x, y, arm)[0]
    live_columns = np.count_nonzero(~miss)
    assert live_columns == 11_740
    assert got.sum() == 450_406
    # The cell-by-cell scan tested all 84 cells of each live column.
    assert sum(sizes) <= 24 * live_columns


def test_plane_stage_sees_each_column_once_per_arm():
    # The kernel takes each cell's column cut from the column stage, so the
    # scan cuts each column's planes once, whatever cells it leaves to the
    # kernel: none in a thin box of live columns inside the workspace, and
    # in the 6 mm default box the bands about the run ends and a top layer
    # centred at z = +1 mm.
    thin = GridSpec(-100.0, 100.0, -100.0, 100.0, -300.5, -299.5, 0.5)
    for spec, cells, kernel_cells in ((thin, None, 0),
                                      (default_grid_spec(G0, 6.0), 450_406, 57_580)):
        seen = {1: [], 2: [], 3: []}
        plane_cut = kinematics._plane_cut

        def spy(geometry, x, y, arm_index):
            xb, yb = np.broadcast_arrays(x, y)
            seen[arm_index].append(np.stack([xb.ravel(), yb.ravel()], axis=1))
            return plane_cut(geometry, x, y, arm_index)

        with mock.patch.object(kinematics, "_plane_cut", spy), \
                mock.patch.object(workspace, "_plane_cut", spy):
            got, sizes = scan_with_spy(G0, spec, workspace.SLAB_CELLS)
        if cells is None:
            assert got.all() and sizes == []
        else:
            assert got.sum() == cells
        assert sum(sizes) == kernel_cells
        nx, ny, nz = spec.dims
        x, y = np.meshgrid(spec.axis_centers("x"), spec.axis_centers("y"))
        columns = np.unique(np.stack([x.ravel(), y.ravel()], axis=1), axis=0)
        for arm in (1, 2, 3):
            pairs = np.concatenate(seen[arm])
            assert len(pairs) == nx * ny
            assert np.array_equal(np.unique(pairs, axis=0), columns)


@st.composite
def scan_cases(draw):
    """Boxes about where a geometry's reach along a column changes.

    The geometry is drawn, or its r_e just assembles it at home, or one
    column's arm-1 plane cut is near tangent to the forearm sphere.  The box
    holds that column, about a z where the kernel's verdict flips on a
    coarse pass, or across z = 0 with or without a cell centre on it; at
    any resolution down to sub-mm, often one layer or one column thick.
    """
    geometry = draw(any_geometry)
    tangent = draw(st.sampled_from(["none", "assembly", "plane"]))
    cx = None
    if tangent == "assembly":
        # r_e just long enough to assemble at home.
        r_e = abs(geometry.a + geometry.r_f - geometry.b) * (
            1.0 + draw(st.sampled_from([1e-15, 1e-9, 1e-6, 1e-3])))
    elif tangent == "plane":
        # Arm 1's plane cut at the column x = cx is tangent to the forearm
        # sphere, within rounding, within the kernel's tolerance, or just off.
        r_e = draw(st.floats(100, 600))
        cx = draw(st.sampled_from([-r_e, r_e])) * (
            1.0 + draw(st.sampled_from([0.0, 1e-13, -1e-13, 1e-9, -1e-9, 1e-6])))
    if tangent != "none":
        try:
            geometry = RobotGeometry(f=geometry.f, e=geometry.e, r_f=geometry.r_f, r_e=r_e)
        except ValueError:
            assume(False)
    reach = geometry.a + geometry.r_f + geometry.r_e
    place = draw(st.sampled_from(["edge", "edge", "zero", "across"]))
    if cx is None:
        cx = draw(st.floats(-1.0, 1.0)) * reach
    cy = draw(st.floats(-1.0, 1.0)) * reach
    res = draw(st.one_of(st.floats(0.05, 1.0), st.floats(1.0, 60.0)))
    n = [draw(st.one_of(st.just(1), st.integers(1, 9))) for _ in range(2)]
    n.append(draw(st.one_of(st.just(1), st.integers(1, 40))))
    if place != "edge" and tangent != "plane":
        # Prefer a column whose reach changes at the base plane, and holds
        # for a few cells on each side of it.
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        xy = rng.uniform(-reach, reach, size=(256, 2))
        flags = [is_reachable_many(geometry, np.column_stack([xy, np.full(256, zc)]))
                 for zc in (-3.0 * res, -1e-6 * res, 1e-6 * res, 3.0 * res)]
        changes = np.flatnonzero((flags[0] == flags[1]) & (flags[1] != flags[2])
                                 & (flags[2] == flags[3]))
        if changes.size:
            cx, cy = xy[changes[0]]
    # Reach ends below the base plane and, folded or not, above it.
    top = geometry.r_f + geometry.r_e + 100.0
    coarse = np.linspace(-top, top, 241)
    flags = is_reachable_many(geometry, np.column_stack(
        [np.full_like(coarse, cx), np.full_like(coarse, cy), coarse]))
    flips = np.flatnonzero(flags[1:] != flags[:-1])
    if flips.size:
        i = draw(st.sampled_from(flips.tolist()))
        lo, hi = coarse[i], coarse[i + 1]
        for _ in range(40):
            mid = (lo + hi) / 2
            if is_reachable(geometry, Pose(cx, cy, mid)) == flags[i]:
                lo = mid
            else:
                hi = mid
        cz = lo
    else:
        cz = draw(st.floats(-top, top))
    x0 = cx - draw(st.integers(0, n[0] - 1)) * res - res / 2
    y0 = cy - draw(st.integers(0, n[1] - 1)) * res - res / 2
    if place == "zero":
        z0 = -(draw(st.integers(0, n[2] - 1)) + 0.5) * res  # a cell centre at z = 0
    elif place == "across":
        # Cells on both sides of z = 0, none on it.
        z0 = -(draw(st.integers(0, n[2] - 1)) + draw(st.floats(0.05, 0.45))) * res
    else:
        z0 = cz - n[2] * res / 2
    return geometry, GridSpec(x0, x0 + n[0] * res, y0, y0 + n[1] * res, z0, z0 + n[2] * res, res)


@settings(max_examples=500, deadline=None)
@given(case=scan_cases(), data=st.data())
def test_column_run_scan_equals_the_cell_by_cell_scan(case, data):
    geometry, spec = case
    nx, ny, nz = spec.dims
    slab = data.draw(st.one_of(st.integers(1, 8), st.integers(1, nx * ny * nz + 1)))
    got, sizes = scan_with_spy(geometry, spec, slab)
    assert np.array_equal(got, scan_live_columns(geometry, spec).occupancy)
    assert max(sizes, default=0) <= slab


@st.composite
def programs(draw, geometry):
    # Sized to the geometry so that a fair share of programs plan.
    xy = st.tuples(st.floats(-geometry.r_f, geometry.r_f), st.floats(-geometry.r_f, geometry.r_f))
    reach = geometry.r_f + geometry.r_e
    contours = []
    for _ in range(draw(st.integers(1, 2))):
        start = draw(xy)
        segments = []
        for _ in range(draw(st.integers(1, 2))):
            if draw(st.booleans()):
                segments.append(LineSegment(end=draw(xy)))
            else:
                # A full circle through the current point.
                here = segments[-1].end if segments else start
                dx, dy = draw(st.tuples(st.floats(1.0, 60.0), st.floats(-60.0, 60.0)))
                segments.append(ArcSegment(end=here, center=(here[0] + dx, here[1] + dy),
                                           direction=draw(st.sampled_from(("cw", "ccw")))))
        contours.append(Contour(start=start, segments=tuple(segments),
                                z_plane=draw(st.floats(-0.9 * reach, -0.3 * reach))))
    return CutProgram(contours=tuple(contours))


def _samples(program):
    """Sample times and poses; they do not depend on the geometry."""
    def all_reachable(geometry, points):
        return np.zeros(points.shape), np.ones(points.shape[0], dtype=bool)

    with mock.patch.object(trajectory, "inverse_kinematics_many", all_reachable):
        stream = plan_program(G0, program)
    return stream.t.tolist(), stream.poses.tolist()


@settings(max_examples=60, deadline=None)
@given(data=st.data(), geometry=any_geometry)
def test_planning_fails_at_the_first_scalar_failure(data, geometry):
    program = data.draw(programs(geometry))
    try:
        times, points = _samples(program)
    except ValueError:
        assume(False)  # zero-length line
    expected = None
    thetas = []
    for t, p in zip(times, points):
        try:
            thetas.append(inverse_kinematics(geometry, Pose(*p)).as_tuple())
        except Unreachable as exc:
            expected = (t, Pose(*p), exc.arm_index)
            break
    if expected is None:
        stream = plan_program(geometry, program)
        assert stream.joints.view(np.uint64).tolist() == \
            np.array(thetas).view(np.uint64).tolist()
    else:
        with pytest.raises(UnreachableSample) as info:
            plan_program(geometry, program)
        assert (info.value.t, info.value.pose, info.value.arm_index) == expected


BOUNDS = DesignBounds(f=(150.0, 600.0), e=(40.0, 300.0), r_f=(60.0, 400.0), r_e=(150.0, 700.0))
inside = st.tuples(*(st.floats(lo, hi) for lo, hi in zip(BOUNDS.lower(), BOUNDS.upper())))
genomes = st.one_of(
    inside,
    st.tuples(*(st.floats(-100.0, 1000.0) for _ in range(4))),
    st.tuples(*(st.one_of(st.floats(), st.sampled_from([0.0, 1e-300, 1e300])) for _ in range(4))),
)
point_sets = st.one_of(pose_lists, st.lists(st.sampled_from(RECOVERY), min_size=1, max_size=30))
weights = st.one_of(st.sampled_from([0.0, 0.05]), st.floats(0.0, 10.0))
# random_search, as GaConfig, refuses a weight of 1 or more.
search_weights = st.one_of(st.sampled_from([0.0, 0.05]), st.floats(0.0, 1.0, exclude_max=True))
# Small kernel budgets make one population span several calls.
budgets = st.one_of(st.just(workspace.PAIR_BUDGET), st.integers(1, 40))


def oracle_fitness(genome, points, weight):
    """Scalar reachability per point, without the batched path."""
    f, e, r_f, r_e = genome
    try:
        geometry = RobotGeometry(f=f, e=e, r_f=r_f, r_e=r_e)
    except ValueError:
        return -1.0
    count = sum(is_reachable(geometry, Pose(*p)) for p in points)
    return count / len(points) - weight * (f + e + r_f + r_e) / BOUNDS.sum_upper()


def bits(values):
    return np.array(values, dtype=np.float64).view(np.uint64).tolist()


@settings(max_examples=150, deadline=None)
@given(population=st.lists(genomes, min_size=1, max_size=12), points=point_sets,
       weight=weights, budget=budgets)
def test_population_fitness_equals_scalar_oracle(population, points, weight, budget):
    prescribed = PrescribedWorkspace(points=np.array(points))
    with mock.patch.object(workspace, "PAIR_BUDGET", budget):
        got = population_fitness(population, prescribed, weight, BOUNDS)
    assert bits(got) == bits([oracle_fitness(g, points, weight) for g in population])


@settings(max_examples=60, deadline=None)
@given(evaluations=st.integers(1, 30), points=point_sets, weight=search_weights,
       seed=st.integers(0, 2 ** 64 - 1), budget=budgets)
def test_random_search_keeps_the_first_best_genome(evaluations, points, weight, seed, budget):
    # Weight 0 and few points make ties common; the first one must win.
    prescribed = PrescribedWorkspace(points=np.array(points))
    rng = np.random.default_rng(np.random.SeedSequence([seed, design_opt._BASELINE_STREAM]))
    want_genome, want_fit = None, -math.inf
    for _ in range(evaluations):
        genome = rng.uniform(BOUNDS.lower(), BOUNDS.upper())
        fit = oracle_fitness(genome.tolist(), points, weight)
        if fit > want_fit:
            want_genome, want_fit = genome, fit
    with mock.patch.object(workspace, "PAIR_BUDGET", budget):
        genome, fit = random_search(BOUNDS, prescribed, evaluations, weight, seed)
    assert bits(genome) == bits(want_genome)
    assert bits([fit]) == bits([want_fit])


def test_coverage_of_interior_points_runs_no_kernel():
    # Every recovery point lies well inside g0's reach, so the closed-form
    # verdict decides all 600 arm x point pairs.
    calls = []

    def spy(geometry, x, y, z):
        calls.append(len(x))
        return reachable_mask(geometry, x, y, z)

    prescribed = PrescribedWorkspace(points=np.array(RECOVERY))
    with mock.patch.object(workspace, "reachable_mask", spy):
        assert workspace.coverage(G0, prescribed) == 1.0
    assert calls == []


def nudged(value, steps):
    """value moved by steps ulps, steps of either sign."""
    toward = math.inf if steps > 0 else -math.inf
    for _ in range(abs(steps)):
        value = math.nextafter(value, toward)
    return value


def kernel_edge(links, arm, point, axis):
    """point with its coordinate on axis moved to where one arm's kernel
    verdict flips near it, to within an ulp; unmoved if none flips within
    1e-3 of the arm's scale."""
    point = list(point)

    def misses(value):
        point[axis] = value
        return any(arm_kernel(links, *point, arm)[0])

    start = point[axis]
    scale = abs(start) + links.r_f + links.r_e + abs(links.a - links.b)
    for step in (1e-12, 1e-9, 1e-6, 1e-3):
        lo, hi = start - step * scale, start + step * scale
        side = misses(lo)
        if side != misses(hi):
            while (mid := (lo + hi) / 2.0) not in (lo, hi):
                if misses(mid) == side:
                    lo = mid
                else:
                    hi = mid
            start = lo
            break
    point[axis] = start
    return point


@st.composite
def boundary_cases(draw, links):
    """An arm-frame pose (xp, dy, z) on or near a boundary of the pair
    verdict for the links: knee tangency outside or inside, exact or at the
    kernel's tolerance (h2 = 0 or -tol), the fold circle
    dy^2 + (z - r_f)^2 = rc2, the plane-cut strip edge rc2 = +-tol, the base
    plane z = 0, the pivot d2 = 0, or either edge of the FOLD_SLACK wedge."""
    a, b, r_f, r_e = links
    tol = kinematics.DISC_TOL_FRAC * r_e * r_e
    kind = draw(st.sampled_from(["outer", "inner", "outer_tol", "inner_tol", "fold", "strip",
                                 "level", "pivot", "wedge_level", "wedge_up"]))
    xp = draw(st.one_of(st.just(0.0), st.floats(-1.0, 1.0).map(lambda s: s * r_e)))
    if kind == "strip":
        xp = math.sqrt(max(r_e * r_e + draw(st.sampled_from([-2, -1, 0, 1, 2])) * tol, 0.0))
    rc = math.sqrt(max(r_e * r_e - xp * xp, 0.0))
    below = draw(st.floats(-math.pi, 0.0, exclude_min=True, exclude_max=True))
    slack = kinematics.FOLD_SLACK * draw(st.sampled_from([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0]))
    if kind in ("outer", "inner", "outer_tol", "inner_tol", "wedge_level"):
        # The knee test passes where |R - rc_t| <= d <= R + rc_t (_arm_bounds).
        big, small = (math.hypot(r_f, math.sqrt(tol)), math.sqrt(rc * rc + tol)) \
            if kind.endswith("_tol") else (r_f, rc)
        d = abs(small - big) if kind.startswith("inner") else big + small
        phi = slack if kind == "wedge_level" else below
        dy, z = d * math.cos(phi), d * math.sin(phi)
    elif kind == "fold":
        dy, z = rc * math.cos(below), r_f + rc * math.sin(below)
    elif kind == "wedge_up":
        # The knee straight above the pivot, turned by about FOLD_SLACK.
        psi = math.pi / 2 + slack
        dy = r_f * math.cos(psi) + rc * math.cos(below)
        z = r_f * math.sin(psi) + rc * math.sin(below)
    elif kind == "pivot":
        dy, z = 0.0, 0.0
    elif kind == "level":
        dy = draw(st.floats(-1.0, 1.0)) * (r_f + rc)
        z = draw(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, -1e-300, -1e-200, 1e-200]))
    else:
        dy = draw(st.floats(-1.0, 1.0)) * (r_f + rc)
        z = draw(st.floats(-1.0, 0.0)) * (r_f + rc)
    return xp, dy, z


@st.composite
def verdict_cases(draw):
    """Rows of links, and world poses about the boundaries of the first
    row's arms, often moved onto the kernel's own verdict edge, each with
    neighbours a few ulps away along one axis."""
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        links = [draw(small_link) for _ in range(4)]
        if draw(st.integers(0, 4)) == 0:
            for i in draw(st.sets(st.integers(0, 3), min_size=1)):
                links[i] = draw(st.one_of(huge_link, st.floats(1e149, 1e151),
                                          st.just(1e150)))
        rows.append(Links(*links))
    a, b = rows[0].a, rows[0].b
    points = []
    for _ in range(draw(st.integers(1, 6))):
        xp, dy, z = draw(boundary_cases(rows[0]))
        arm = draw(st.sampled_from([1, 2, 3]))
        c, s = kinematics.ARM_COS[arm - 1], kinematics.ARM_SIN[arm - 1]
        yp = (dy + b) - a
        axis = draw(st.integers(0, 2))
        edge = [xp * c + yp * s, yp * c - xp * s, z]
        if not np.isfinite(edge).all():
            continue
        if draw(st.integers(0, 3)):
            edge = kernel_edge(rows[0], arm, edge, axis)
        for steps in range(-3, 5):
            p = list(edge)
            p[axis] = nudged(p[axis], steps)
            points.append(p)
    assume(points and np.isfinite(points).all())
    return np.array(rows), np.array(points)


@settings(max_examples=400, deadline=None)
@given(case=verdict_cases(), budget=budgets)
def test_pair_verdict_equals_the_kernel_on_every_boundary(case, budget):
    links, points = case
    prescribed = PrescribedWorkspace(points=points)
    with mock.patch.object(workspace, "PAIR_BUDGET", budget):
        got = workspace.coverage_links(links, prescribed)
    want = oracles.coverage_links_kernel(links, prescribed)
    assert bits(got) == bits(want)
    # Each decided pair carries the kernel's own verdict.
    columns = Links(*links.T[:, :, None])
    reached, missed = kinematics._reach_verdict(columns, *points.T)
    kernel = reachable_mask(columns, *points.T)
    assert not (reached & ~kernel).any()
    assert not (missed & kernel).any()
