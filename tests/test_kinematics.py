import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import oracles
from conftest import load_fixture
from deltacut import (
    JointAngles,
    NoSolution,
    Pose,
    RobotGeometry,
    Singular,
    THETA_MAX,
    THETA_MIN,
    Unreachable,
    forward_kinematics,
    inverse_kinematics,
    is_reachable,
    is_reachable_many,
    kinematics,
)


def ik_tuple(g, x, y, z):
    return inverse_kinematics(g, Pose(x, y, z)).as_tuple()


def fk_tuple(g, t1, t2, t3):
    p = forward_kinematics(g, JointAngles(t1, t2, t3))
    return (p.x, p.y, p.z)


def test_golden_inverse_cases(g0):
    golden = load_fixture("ik_golden.json")
    for case in golden["cases"]:
        got = ik_tuple(g0, *case["pose"])
        for got_v, want_v in zip(got, case["thetas"]):
            assert abs(got_v - want_v) < 1e-9


def test_centered_pose_gives_equal_angles(g0):
    t1, t2, t3 = ik_tuple(g0, 0.0, 0.0, -350.0)
    assert t1 == t2 == t3
    assert abs(t1 - 0.4563) < 1e-3


def test_home_pose_round_trip(g0):
    thetas = ik_tuple(g0, 0.0, 0.0, g0.home_z())
    assert max(abs(t) for t in thetas) < 1e-6
    x, y, z = fk_tuple(g0, 0.0, 0.0, 0.0)
    assert abs(x) < 1e-12 and abs(y) < 1e-12
    assert abs(z - g0.home_z()) < 1e-12


def test_golden_forward_cases(g0):
    golden = load_fixture("fk_golden.json")
    for case in golden["cases"]:
        got = fk_tuple(g0, *case["thetas"])
        for got_v, want_v in zip(got, case["pose"]):
            assert abs(got_v - want_v) < 1e-9


def test_forward_singular_configuration(g0):
    golden = load_fixture("fk_golden.json")
    with pytest.raises(Singular):
        fk_tuple(g0, *golden["singular"])


def test_forward_no_solution_configuration(g0):
    golden = load_fixture("fk_golden.json")
    with pytest.raises(NoSolution):
        fk_tuple(g0, *golden["no_solution"])


G0 = RobotGeometry(f=200.0 * math.sqrt(3.0), e=60.0 * math.sqrt(3.0), r_f=150.0, r_e=350.0)
FK_GOLDEN = load_fixture("fk_golden.json")


def nudged(thetas, steps):
    """thetas, each moved by its count of ulps in steps."""
    moved = []
    for theta, k in zip(thetas, steps):
        for _ in range(abs(k)):
            theta = math.nextafter(theta, math.copysign(math.inf, k))
        moved.append(theta)
    return tuple(moved)


@st.composite
def unit_geometries(draw):
    f, e, r_f, r_e = (draw(st.floats(lo, hi)) for lo, hi in
                      ((80, 500), (30, 250), (50, 300), (100, 600)))
    try:
        return RobotGeometry(f=f, e=e, r_f=r_f, r_e=r_e)
    except ValueError:
        assume(False)


angle = st.floats(THETA_MIN, THETA_MAX, exclude_min=True, exclude_max=True)
ulps = st.tuples(*[st.integers(-4, 4)] * 3)
fk_cases = st.one_of(
    st.tuples(st.one_of(st.just(G0), unit_geometries()), st.tuples(angle, angle, angle)),
    st.tuples(st.just(G0), ulps.map(lambda k: nudged(FK_GOLDEN["singular"], k))),
    st.tuples(st.just(G0), ulps.map(lambda k: nudged(FK_GOLDEN["no_solution"], k))),
)


def fk_outcome(solve, geometry, thetas, **kwargs):
    """The pose as a tuple, or the DomainError type solve raises."""
    try:
        pose = solve(geometry, JointAngles(*thetas), **kwargs)
    except (NoSolution, Singular) as exc:
        return type(exc)
    return (pose.x, pose.y, pose.z)


@settings(max_examples=400, deadline=None)
@given(case=fk_cases, power=st.integers(-499, 499))
def test_circumcentre_solve_matches_the_plane_system(case, power):
    """The circumcentre solve agrees with the plane system it replaced, and
    scales exactly with the links, 2^power from about 1e-150 to 1e150.

    The plane system is the reference on the unit-scale links only: its
    products reach the fifth power of the link length, so links below about
    1e-62 mm or above about 1e61 mm over- or underflow it into a wrong
    Singular, NoSolution or pose."""
    geometry, thetas = case
    probe = {}
    want = fk_outcome(oracles.fk_planes, geometry, thetas, probe=probe)
    got = fk_outcome(forward_kinematics, geometry, thetas)
    size = geometry.r_f + geometry.r_e
    # Where the plane system's verdict is within rounding of its tolerance,
    # either verdict is right.
    near_edge = (("disc" in probe and abs(probe["disc"] + probe["tol"]) <= 1e-9 * probe["tol"])
                 or abs(probe.get("z", size)) <= 1e-9 * size)
    if not near_edge:
        assert isinstance(got, tuple) == isinstance(want, tuple)
        if isinstance(want, tuple):
            assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-12 * size
        else:
            assert got is want
    scaled = RobotGeometry(*(math.ldexp(v, power) for v in
                             (geometry.f, geometry.e, geometry.r_f, geometry.r_e)))
    if isinstance(got, tuple):
        got = tuple(math.ldexp(v, power) for v in got)
    assert fk_outcome(forward_kinematics, scaled, thetas) == got


def knee_centres(geometry, thetas):
    """The shifted knee centres forward kinematics intersects, as it
    computes them."""
    centres = []
    for i, theta in enumerate(thetas):
        t = geometry.a - geometry.b + geometry.r_f * math.cos(theta)
        centres.append(((-t) * kinematics.ARM_SIN[i], (-t) * kinematics.ARM_COS[i],
                        -geometry.r_f * math.sin(theta)))
    return centres


def cross(p, q):
    return (p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2], p[0] * q[1] - p[1] * q[0])


def dot(p, q):
    return sum(a * b for a, b in zip(p, q))


def circumcentre(*centres):
    """The exact circumcentre and squared circumradius of three points, and
    the squared sine of the angle at the first (0 when they are collinear)."""
    c1, c2, c3 = ([Fraction(v) for v in c] for c in centres)
    u = [q - p for p, q in zip(c1, c2)]
    v = [q - p for p, q in zip(c1, c3)]
    n = cross(u, v)
    nn = dot(n, n)
    if nn == 0:
        return None, math.inf, 0
    w = [(dot(u, u) * s + dot(v, v) * q) / (2 * nn) for s, q in zip(cross(v, n), cross(n, u))]
    return [p + d for p, d in zip(c1, w)], dot(w, w), nn / (dot(u, u) * dot(v, v))


@st.composite
def stretched_arms(draw):
    """Joint angles, and a forearm within 4 ulps of the circumradius of the
    shifted knee centres: every arm at full stretch, the three spheres all
    but tangent at the circumcentre.

    The effector offset b exceeds the base offset a by about r_f, so the
    home-pose rule r_e > |a + r_f - b| admits so short a forearm."""
    f, r_f, x = draw(st.floats(80, 500)), draw(st.floats(50, 300)), draw(st.floats(-1, 1))
    e = f + 2.0 * math.sqrt(3.0) * r_f * (1.0 + x)
    thetas = draw(st.tuples(angle, angle, angle))
    # The centres do not depend on r_e.
    centres = knee_centres(RobotGeometry(f=f, e=e, r_f=r_f, r_e=3.0 * r_f), thetas)
    centre, radius2, sin2 = circumcentre(*centres)
    radius = math.sqrt(radius2)
    assume(sin2 > 1e-6 and centre[2] < -1e-6 * radius)
    assume(min(math.dist(p, q) for p, q in combinations(centres, 2)) > 1e-6 * radius)
    r_e = nudged([radius], [draw(st.integers(-4, 4))])[0]
    try:
        return RobotGeometry(f=f, e=e, r_f=r_f, r_e=r_e), thetas, centre
    except ValueError:
        assume(False)


@settings(max_examples=300, deadline=None)
@given(case=stretched_arms())
def test_arms_at_full_stretch_meet_at_the_circumcentre(case):
    """A discriminant that rounds below zero at tangency is a touch, not a
    miss."""
    geometry, thetas, centre = case
    pose = fk_tuple(geometry, *thetas)
    assert max(abs(p - float(c)) for p, c in zip(pose, centre)) <= 1e-6 * geometry.r_e


def arm2_plane_point(geometry, theta1, theta3):
    """Arm 2's in-plane (s, z) of the point where the line through the
    shifted knee centres of arms 1 and 3 crosses arm 2's vertical plane."""
    p1, p3 = knee_centres(geometry, (theta1, 0.0, theta3))[0::2]
    normal = (kinematics.ARM_COS[1], -kinematics.ARM_SIN[1], 0)
    d = [q - p for p, q in zip(p1, p3)]
    q = [p + e * -dot(normal, p1) / dot(normal, d) for p, e in zip(p1, d)]
    return q[0] * kinematics.ARM_SIN[1] + q[1] * kinematics.ARM_COS[1], q[2]


def collinear_triples(geometry, theta1):
    """Joint angles (theta1, theta2, theta3) whose shifted knee centres lie
    on one line, to rounding: the line through arms 1 and 3's centres meets
    arm 2's circle, theta3 found by bisection."""
    offset = geometry.a - geometry.b

    def miss(theta3):
        try:
            s, z = arm2_plane_point(geometry, theta1, theta3)
        except ZeroDivisionError:
            # The line runs parallel to the plane, so it crosses no circle.
            return math.inf
        return (s + offset) ** 2 + z * z - geometry.r_f ** 2

    grid = np.linspace(THETA_MIN, THETA_MAX, 61)[1:-1].tolist()
    found = []
    for lo, hi in zip(grid, grid[1:]):
        below = miss(lo) < 0.0
        if below == (miss(hi) < 0.0):
            continue
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if (miss(mid) < 0.0) == below else (lo, mid)
        # A sign change across the pole, where the line runs parallel to
        # the plane, is no crossing.
        if abs(miss(lo)) < 1e-9 * geometry.r_f ** 2:
            s, z = arm2_plane_point(geometry, theta1, lo)
            theta2 = math.atan2(-z, -s - offset)
            if THETA_MIN < theta2 < THETA_MAX:
                found.append((theta1, theta2, lo))
    return found


@st.composite
def near_collinear_arms(draw):
    """Joint angles whose shifted knee centres lie within about 1e-10 to
    1e-6 of one line: a collinear triple, no two of its centres within
    r_f / 100, with theta2 turned slightly."""
    geometry = draw(st.one_of(st.just(G0), unit_geometries()))
    triples = [t for t in collinear_triples(geometry, draw(angle))
               if min(math.dist(p, q) for p, q in
                      combinations(knee_centres(geometry, t), 2)) > geometry.r_f / 100]
    assume(triples)
    theta1, theta2, theta3 = draw(st.sampled_from(triples))
    theta2 += draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-10.0, -7.0))
    assume(THETA_MIN < theta2 < THETA_MAX)
    return geometry, (theta1, theta2, theta3)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(case=near_collinear_arms())
def test_near_collinear_knee_centres_are_not_singular(case):
    """Collinearity is judged at RANK_TOL = 1e-12 of the centre spacing.
    Centres 1e-10 to 1e-6 off their line are not collinear: their
    circumcircle is far wider than the forearm, so the spheres miss."""
    geometry, thetas = case
    _, radius2, sin2 = circumcentre(*knee_centres(geometry, thetas))
    assume(sin2 > 1e-20 and radius2 > 2 * geometry.r_e ** 2)
    assert fk_outcome(forward_kinematics, geometry, thetas) is NoSolution


def test_round_trip_pose_to_joints(g0):
    rng = np.random.default_rng(1234)
    checked = 0
    while checked < 2000:
        x, y, z = rng.uniform([-300, -300, -550], [300, 300, -50])
        try:
            thetas = ik_tuple(g0, x, y, z)
        except Unreachable:
            continue
        px, py, pz = fk_tuple(g0, *thetas)
        assert max(abs(px - x), abs(py - y), abs(pz - z)) < 1e-6
        checked += 1


def test_round_trip_joints_to_pose(g0):
    rng = np.random.default_rng(4321)
    checked = 0
    while checked < 2000:
        t = rng.uniform(-0.3, 1.2, size=3)
        try:
            pose = fk_tuple(g0, *t)
        except (NoSolution, Singular):
            continue
        back = ik_tuple(g0, *pose)
        assert max(abs(a - b) for a, b in zip(back, t)) < 1e-9
        checked += 1


def test_matches_oracle_on_random_poses(g0):
    rng = np.random.default_rng(777)
    args = (g0.f, g0.e, g0.r_f, g0.r_e)
    for _ in range(500):
        x, y, z = rng.uniform([-300, -300, -550], [300, 300, -50])
        expected = oracles.ik(*args, x, y, z)
        if expected is None:
            assert not is_reachable(g0, Pose(x, y, z))
            continue
        got = ik_tuple(g0, x, y, z)
        assert max(abs(a - b) for a, b in zip(got, expected)) < 1e-9


def test_unreachable_names_the_failing_arm(g0):
    with pytest.raises(Unreachable) as info:
        ik_tuple(g0, 0.0, 0.0, -1000.0)
    assert info.value.arm_index == 1
    assert "arm 1" in str(info.value)


def test_pose_behind_pivot_rejected_as_out_of_branch(g0):
    # The geometric intersection exists but the selected knee folds past the
    # straight-up limit, so the arm cannot hold it.
    with pytest.raises(Unreachable, match="canonical"):
        ik_tuple(g0, 0.0, -270.0, -50.0)


def test_knee_angle_rounding_onto_the_joint_range_end_is_unreachable(g0):
    # Arms 2 and 3 put the knee straight above the pivot within 1.4e-14 mm,
    # where math.atan2 rounds exactly onto THETA_MIN.
    pose = Pose(0.0, -279.6225223508825, 9.153741868772158)
    with pytest.raises(Unreachable) as info:
        inverse_kinematics(g0, pose)
    assert info.value.arm_index == 2
    assert str(info.value) == "arm 2: knee angle outside the canonical branch"
    assert is_reachable(g0, pose) is False
    assert is_reachable_many(g0, np.array([[pose.x, pose.y, pose.z]])).tolist() == [False]


def test_mirror_symmetry_swaps_arms_two_and_three(g0):
    rng = np.random.default_rng(55)
    checked = 0
    while checked < 300:
        x, y, z = rng.uniform([-250, -250, -500], [250, 250, -100])
        try:
            plus = ik_tuple(g0, x, y, z)
            minus = ik_tuple(g0, -x, y, z)
        except Unreachable:
            continue
        # Arm 1 works in the x = 0 plane; mirroring x swaps arms 2 and 3.
        assert plus[0] == minus[0]
        assert plus[1] == minus[2]
        assert plus[2] == minus[1]
        checked += 1


def test_threefold_rotation_cycles_the_arms(g0):
    rng = np.random.default_rng(56)
    c, s = math.cos(2.0 * math.pi / 3.0), math.sin(2.0 * math.pi / 3.0)
    checked = 0
    while checked < 300:
        x, y, z = rng.uniform([-250, -250, -500], [250, 250, -100])
        rx, ry = c * x - s * y, s * x + c * y
        try:
            base = ik_tuple(g0, x, y, z)
            spun = ik_tuple(g0, rx, ry, z)
        except Unreachable:
            continue
        assert abs(spun[1] - base[0]) < 1e-9
        assert abs(spun[2] - base[1]) < 1e-9
        assert abs(spun[0] - base[2]) < 1e-9
        checked += 1


def test_fully_stretched_boundary(g0):
    # Arm straight with the forearm: reach sqrt((r_f + r_e)^2 - (a - b)^2).
    z_max = -math.sqrt((g0.r_f + g0.r_e) ** 2 - (g0.a - g0.b) ** 2)
    assert is_reachable(g0, Pose(0.0, 0.0, z_max))
    assert not is_reachable(g0, Pose(0.0, 0.0, z_max * (1.0 + 1e-7)))


def test_arm_kernel_puts_the_knee_on_the_upper_arm_circle(g0):
    # The knee sits at arm-frame (y, z) = (-a - cos_c, -sin_c).
    cut = kinematics._plane_cut(g0, 20.0, -15.0, 2)
    flags, sin_c, cos_c = kinematics._arm_kernel(g0, cut, -320.0)
    assert not any(flags)
    assert abs(math.hypot(cos_c, sin_c) - g0.r_f) < 1e-9


def test_is_reachable_matches_solver(g0):
    assert is_reachable(g0, Pose(0.0, 0.0, -300.0))
    assert not is_reachable(g0, Pose(0.0, 0.0, -1000.0))


def test_random_geometries_agree_with_oracle():
    rng = np.random.default_rng(2024)
    built = 0
    while built < 25:
        f, e = rng.uniform(80, 500), rng.uniform(30, 250)
        r_f, r_e = rng.uniform(50, 300), rng.uniform(100, 600)
        try:
            g = RobotGeometry(f=f, e=e, r_f=r_f, r_e=r_e)
        except ValueError:
            continue
        built += 1
        for _ in range(20):
            x, y, z = rng.uniform([-400, -400, -600], [400, 400, -10])
            expected = oracles.ik(f, e, r_f, r_e, x, y, z)
            try:
                got = ik_tuple(g, x, y, z)
            except Unreachable:
                got = None
            if expected is None:
                assert got is None
            else:
                assert got is not None
                assert max(abs(a - b) for a, b in zip(got, expected)) < 1e-9
