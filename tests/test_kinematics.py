import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
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
    flags, sin_c, cos_c = kinematics._arm_kernel(g0, 20.0, -15.0, -320.0, 2)
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
