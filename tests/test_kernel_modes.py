"""The arm kernel's scalar and array modes must agree bit for bit.

Scalar inverse kinematics, the reachability mask, batch planning and batch
GA fitness all run the same kernel, once on Python floats and once on numpy
arrays.  These properties check that the two modes reach the same verdicts,
angles and fitness values on arbitrary finite poses, axis poses, the frozen
recovery point set and random genomes.
"""

import math
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
    LineSegment,
    Pose,
    PrescribedWorkspace,
    RobotGeometry,
    Unreachable,
    UnreachableSample,
    inverse_kinematics,
    is_reachable,
    is_reachable_many,
    plan_program,
    random_search,
    trajectory,
)
from deltacut import design_opt, workspace
from deltacut.design_opt import population_fitness
from deltacut.kinematics import inverse_kinematics_many

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

# Far-out poses overflow to inf inside the array mode; numpy warns about it.
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


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
@given(evaluations=st.integers(1, 30), points=point_sets, weight=weights,
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
    with mock.patch.object(workspace, "PAIR_BUDGET", budget), \
            mock.patch.object(design_opt, "PAIR_BUDGET", budget):
        genome, fit = random_search(BOUNDS, prescribed, evaluations, weight, seed)
    assert bits(genome) == bits(want_genome)
    assert bits([fit]) == bits([want_fit])
