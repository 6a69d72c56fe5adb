import math
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from deltacut import (
    ArcSegment,
    Contour,
    CutProgram,
    EmptyProgram,
    InvalidFeed,
    InvalidStream,
    LineSegment,
    MachineLimits,
    SetpointStream,
    UnreachableSample,
    build_motions,
    load_program,
    plan_program,
    read_stream_csv,
    trajectory,
    validate_stream,
    write_stream_csv,
)

TICK = 0.0025


def line_program(feed=1000.0, length=100.0):
    return CutProgram(contours=(Contour(
        start=(-length / 2.0, 0.0), z_plane=-300.0, laser_on=True, feed=feed,
        segments=(LineSegment(end=(length / 2.0, 0.0)),),
    ),))


def circle_program(feed=300.0):
    return CutProgram(contours=(Contour(
        start=(50.0, 0.0), z_plane=-300.0, laser_on=True, feed=feed,
        segments=(ArcSegment(end=(50.0, 0.0), center=(0.0, 0.0),
                             direction="ccw"),),
    ),))


def test_limit_defaults():
    lim = MachineLimits()
    assert lim.v_max == 1000.0
    assert lim.a_max == 23000.0
    assert lim.tick == 0.0025


def test_trapezoid_profile_closed_form(g0):
    lim = MachineLimits()
    prof = build_motions(line_program(), lim)[0]
    assert prof.total_time == oracles.trapezoid_total_time(100.0, 1000.0, 23000.0)
    assert prof.v_peak == 1000.0
    assert prof.t_cruise > 0.0
    stream = plan_program(g0, line_program(), lim)
    x = stream.poses[:, 0]
    for k in range(len(stream) - 1):
        want = oracles.trapezoid_position(100.0, 1000.0, 23000.0, k * TICK)
        assert abs(x[k] - (-50.0 + want)) < 1e-12
    # The first sample sits at the start and the clamped last one at the end.
    assert x[0] == -50.0 and float(stream.t[-1]) == prof.total_time
    assert x[-1] == 50.0


def test_short_move_becomes_triangle(g0):
    lim = MachineLimits()
    prof = build_motions(line_program(length=10.0), lim)[0]
    assert prof.t_cruise == 0.0
    assert prof.v_peak == math.sqrt(23000.0 * 10.0)
    assert prof.total_time == 2.0 * math.sqrt(10.0 / 23000.0)
    # 16 ticks per move put sample 8 on the peak of the triangle.
    stream = plan_program(g0, line_program(length=10.0), MachineLimits(tick=prof.total_time / 16.0))
    assert len(stream) == 17 and float(stream.t[8]) == prof.total_time / 2.0
    assert abs(stream.poses[8, 0]) < 1e-12


def test_profile_position_is_monotone(g0):
    rng = np.random.default_rng(8)
    for _ in range(50):
        length = float(rng.uniform(0.5, 400.0))
        feed = float(rng.uniform(5.0, 1000.0))
        prof = build_motions(line_program(feed, length), MachineLimits())[0]
        stream = plan_program(g0, line_program(feed, length),
                              MachineLimits(tick=prof.total_time / 256.0))
        ss = stream.poses[:, 0] + length / 2.0
        assert (np.diff(ss) >= 0.0).all()
        assert ss[0] == 0.0 and stream.poses[-1, 0] == length / 2.0
        speed = np.diff(ss) / np.diff(stream.t)
        assert speed.max() <= feed * (1.0 + 1e-9)


@pytest.mark.parametrize("feed", [0.0, -10.0, 1000.0001])
def test_invalid_feeds_rejected(feed):
    if feed > 0.0:
        with pytest.raises(InvalidFeed, match="exceeds v_max"):
            build_motions(line_program(feed), MachineLimits())
    else:
        with pytest.raises(ValueError, match="feed must be positive"):
            line_program(feed)


def test_zero_length_profile_rejected():
    with pytest.raises(ValueError, match="path_length"):
        trajectory._profile(0.0, 23000.0, 100.0)


def test_overflowing_segment_length_is_refused():
    program = CutProgram(contours=(Contour(
        start=(-1e308, 0.0), z_plane=-300.0, segments=(LineSegment(end=(1e308, 0.0)),)),))
    with pytest.raises(ValueError) as info:
        build_motions(program, MachineLimits())
    assert str(info.value) == "contour 0 segment 0: path_length must be positive, got inf"


def test_line_sample_count_and_endpoint(g0):
    stream = plan_program(g0, line_program())
    total = oracles.trapezoid_total_time(100.0, 1000.0, 23000.0)
    assert len(stream) == math.ceil(total / TICK - 1e-12) + 1 == 59
    assert float(stream.t[-1]) == total
    assert tuple(stream.poses[0]) == (-50.0, 0.0, -300.0)
    assert tuple(stream.poses[-1]) == (50.0, 0.0, -300.0)
    assert stream.laser.all()


def test_interior_stamps_sit_on_ticks(g0):
    stream = plan_program(g0, line_program())
    for k in range(len(stream) - 1):
        assert float(stream.t[k]) == k * TICK


def test_samples_follow_the_profile(g0):
    stream = plan_program(g0, line_program())
    for i in range(len(stream)):
        s = oracles.trapezoid_position(100.0, 1000.0, 23000.0, float(stream.t[i]))
        assert abs(stream.poses[i, 0] - (-50.0 + s)) < 1e-9
        assert stream.poses[i, 1] == 0.0
        assert stream.poses[i, 2] == -300.0


def test_stamp_gaps_never_exceed_one_tick(g0):
    program = load_program("tests/fixtures/programs/multi.json")
    stream = plan_program(g0, program)
    gaps = np.diff(stream.t)
    assert (gaps > 0.0).all()
    assert gaps.max() <= TICK * (1.0 + 1e-9)


def test_full_circle_traces_constant_radius(g0):
    stream = plan_program(g0, circle_program())
    radii = np.hypot(stream.poses[:, 0], stream.poses[:, 1])
    assert np.abs(radii - 50.0).max() < 1e-9
    assert np.array_equal(stream.poses[-1], stream.poses[0])
    # A full loop visits both sides of the circle.
    assert stream.poses[:, 1].min() < -49.0
    assert stream.poses[:, 1].max() > 49.0
    chord_sum = float(np.linalg.norm(np.diff(stream.poses, axis=0), axis=1).sum())
    assert chord_sum < 2.0 * math.pi * 50.0 < chord_sum * 1.001


def test_clockwise_arc_goes_the_other_way(g0):
    program = CutProgram(contours=(Contour(
        start=(60.0, 10.0), z_plane=-300.0, laser_on=True, feed=500.0,
        segments=(ArcSegment(end=(-60.0, 10.0), center=(0.0, 10.0),
                             direction="cw"),),
    ),))
    stream = plan_program(g0, program)
    assert stream.poses[:, 1].min() < -45.0  # dips through the bottom
    ccw = CutProgram(contours=(Contour(
        start=(60.0, 10.0), z_plane=-300.0, laser_on=True, feed=500.0,
        segments=(ArcSegment(end=(-60.0, 10.0), center=(0.0, 10.0),
                             direction="ccw"),),
    ),))
    stream2 = plan_program(g0, ccw)
    assert stream2.poses[:, 1].max() > 65.0  # rises over the top


def test_arc_radius_mismatch_rejected(g0):
    program = CutProgram(contours=(Contour(
        start=(50.0, 0.0), z_plane=-300.0, laser_on=True, feed=300.0,
        segments=(ArcSegment(end=(40.0, 0.0), center=(0.0, 0.0),
                             direction="ccw"),),
    ),))
    with pytest.raises(ValueError, match="radi"):
        plan_program(g0, program)


def test_zero_length_line_rejected(g0):
    program = CutProgram(contours=(Contour(
        start=(10.0, 0.0), z_plane=-300.0, laser_on=True,
        segments=(LineSegment(end=(10.0, 0.0)),),
    ),))
    with pytest.raises(ValueError, match="zero-length"):
        plan_program(g0, program)


def test_empty_program_rejected(g0):
    with pytest.raises(EmptyProgram):
        plan_program(g0, CutProgram(contours=()))


def test_rapids_link_contours_with_laser_off(g0):
    program = load_program("tests/fixtures/programs/multi.json")
    motions = build_motions(program, MachineLimits())
    kinds = [(m.rapid, m.laser_on) for m in motions]
    assert kinds == [(False, True), (True, False), (False, True), (False, True)]
    stream = plan_program(g0, program)
    assert not stream.laser.all() and stream.laser.any()


def test_unreachable_program_names_the_sample(g0):
    program = CutProgram(contours=(Contour(
        start=(0.0, 0.0), z_plane=-600.0, laser_on=True, feed=200.0,
        segments=(LineSegment(end=(10.0, 0.0)),),
    ),))
    with pytest.raises(UnreachableSample) as info:
        plan_program(g0, program)
    assert info.value.t == 0.0
    assert info.value.pose.z == -600.0


def test_contour_feed_above_limit_rejected(g0):
    with pytest.raises(InvalidFeed):
        plan_program(g0, line_program(feed=1200.0))


def test_oversized_plan_is_refused_before_allocating(g0):
    tracemalloc.start()
    try:
        budget = trajectory.SAMPLE_BUDGET
        with pytest.raises(ValueError, match=f"1.43478e\\+11 samples .* budget is {budget}$"):
            plan_program(g0, line_program(), MachineLimits(tick=1e-12))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_sample_budget_counts_ticks_and_motion_ends(g0, monkeypatch):
    # The 100 mm line takes 0.1435 s, 57.39 ticks of 2.5 ms, plus its end.
    monkeypatch.setattr(trajectory, "SAMPLE_BUDGET", 59)
    assert len(plan_program(g0, line_program())) == 59
    monkeypatch.setattr(trajectory, "SAMPLE_BUDGET", 58)
    with pytest.raises(ValueError, match="needs 58.3913 samples at tick 0.0025 s, budget is 58$"):
        plan_program(g0, line_program())


def test_csv_round_trip(tmp_path, g0):
    stream = plan_program(g0, line_program())
    path = tmp_path / "stream.csv"
    write_stream_csv(stream, path)
    again = read_stream_csv(path)
    assert np.array_equal(again.t, stream.t)
    assert np.array_equal(again.poses, stream.poses)
    assert np.array_equal(again.joints, stream.joints)
    assert np.array_equal(again.laser, stream.laser)
    second = tmp_path / "again.csv"
    write_stream_csv(again, second)
    assert path.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("name", ["circle50", "multi"])
def test_planned_streams_match_the_frozen_bytes(g0, fixtures_dir, tmp_path, name):
    stream = plan_program(g0, load_program(fixtures_dir / f"programs/{name}.json"))
    path = tmp_path / "stream.csv"
    write_stream_csv(stream, path)
    assert path.read_bytes() == (fixtures_dir / f"{name}_stream.csv").read_bytes()


def test_csv_header_is_enforced(tmp_path):
    path = tmp_path / "stream.csv"
    path.write_text("time,x,y,z,a,b,c,laser\n0,0,0,-300,0,0,0,1\n", encoding="utf-8")
    with pytest.raises(InvalidStream, match="header"):
        read_stream_csv(path)


def test_csv_rejects_bad_laser_flag(tmp_path, g0):
    stream = plan_program(g0, line_program())
    path = tmp_path / "stream.csv"
    write_stream_csv(stream, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[1] = lines[1][:-1] + "2"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(InvalidStream, match="laser"):
        read_stream_csv(path)


def test_stream_requires_increasing_time():
    t = np.array([0.0, 0.0025, 0.0025])
    with pytest.raises(InvalidStream, match="increasing"):
        SetpointStream(t=t, poses=np.zeros((3, 3)), joints=np.zeros((3, 3)),
                       laser=np.zeros(3, dtype=bool))


def test_stream_requires_consistent_shapes():
    with pytest.raises(InvalidStream):
        SetpointStream(t=np.array([0.0, 1.0]), poses=np.zeros((3, 3)),
                       joints=np.zeros((2, 3)), laser=np.zeros(2, dtype=bool))
    # A scalar time has no length to compare the others with.
    with pytest.raises(InvalidStream, match="^stream arrays have inconsistent shapes$"):
        SetpointStream(t=1.0, poses=[[0, 0, -300]], joints=[[0, 0, 0]], laser=[True])


def test_validator_passes_planned_streams(g0):
    for program in (line_program(), circle_program()):
        stream = plan_program(g0, program)
        report = validate_stream(g0, stream)
        assert report.ok
        assert report.max_speed <= 1000.0 * (1.0 + 1e-9)
        assert report.max_accel <= 23000.0 * 1.05
        assert report.max_ik_residual == 0.0


def test_validator_flags_a_corrupted_sample(g0):
    stream = plan_program(g0, line_program())
    poses = stream.poses.copy()
    poses[30, 1] += 2.5
    tampered = SetpointStream(t=stream.t.copy(), poses=poses,
                              joints=stream.joints.copy(),
                              laser=stream.laser.copy())
    report = validate_stream(g0, tampered)
    assert not report.ok
    kinds = {(v.index, v.kind) for v in report.violations}
    assert any(kind == "ik_residual" and idx == 30 for idx, kind in kinds)
    assert any(kind == "speed" for _, kind in kinds)


def test_validator_flags_speed_violations(g0):
    n = 20
    t = np.arange(n) * TICK
    x = np.arange(n) * 3.0  # 1200 mm/s
    poses = np.column_stack([x - 30.0, np.zeros(n), np.full(n, -300.0)])
    joints = np.zeros((n, 3))
    stream = SetpointStream(t=t, poses=poses, joints=joints,
                            laser=np.zeros(n, dtype=bool))
    report = validate_stream(g0, stream)
    speeders = [v for v in report.violations if v.kind == "speed"]
    assert speeders and all(v.value > 1000.0 for v in speeders)


def test_load_program_fixture_files(g0):
    for name in ("line100", "circle50", "multi"):
        program = load_program(f"tests/fixtures/programs/{name}.json")
        stream = plan_program(g0, program)
        assert len(stream) > 2


def test_load_program_rejects_unknown_segment(tmp_path):
    path = tmp_path / "prog.json"
    path.write_text(
        '{"contours": [{"start": [0, 0], "z_plane": -300,'
        ' "segments": [{"type": "spline", "end": [1, 1]}]}]}',
        encoding="utf-8",
    )
    with pytest.raises(ValueError, match="spline"):
        load_program(path)


def test_load_program_rejects_missing_contours(tmp_path):
    path = tmp_path / "prog.json"
    path.write_text('{"paths": []}', encoding="utf-8")
    with pytest.raises(ValueError, match="contours"):
        load_program(path)


coords = st.floats(-60.0, 60.0)


@st.composite
def cut_programs(draw):
    """1-3 contours of 1-3 segments: lines (some only a fraction of a mm
    long, so their profiles are triangles, some a whole number of ticks at
    feed), cw/ccw arcs and full circles, at depths that are sometimes out of
    reach, laser on or off, joined by rapids unless a contour starts where
    the last one ended; under the default limits or ones whose ramp time
    v/a is a whole number of ticks."""
    limits = draw(st.sampled_from([MachineLimits(), MachineLimits(1000.0, 10000.0, 0.0025),
                                   MachineLimits(800.0, 16000.0, 0.001)]))
    contours = []
    cursor = None
    for _ in range(draw(st.integers(1, 3))):
        feed = draw(st.none() | st.sampled_from([100.0, 250.0, 500.0, limits.v_max])
                    | st.floats(100.0, limits.v_max))
        if cursor is not None and draw(st.booleans()):
            start = cursor
        else:
            start = (draw(coords), draw(coords))
        z = draw(st.sampled_from([-250.0, -300.0, -350.0, -600.0]))
        segments = []
        cursor = start
        for _ in range(draw(st.integers(1, 3))):
            kind = draw(st.sampled_from(["line", "short", "ticks", "arc", "circle"]))
            if kind in ("arc", "circle"):
                cx, cy = draw(coords), draw(coords)
                r = math.dist(cursor, (cx, cy))
                if not 0.5 <= r <= 40.0:
                    continue
                if kind == "circle":
                    end = cursor
                else:
                    phi = draw(st.floats(-math.pi, math.pi))
                    end = (cx + r * math.cos(phi), cy + r * math.sin(phi))
                segments.append(ArcSegment(end=end, center=(cx, cy),
                                           direction=draw(st.sampled_from(["cw", "ccw"]))))
            else:
                if kind == "line":
                    end = (draw(coords), draw(coords))
                else:
                    step = (draw(st.floats(0.01, 2.0)) if kind == "short" else
                            (feed or limits.v_max) * limits.tick * draw(st.integers(1, 40)))
                    end = (cursor[0] + step, cursor[1])
                if end == cursor:
                    continue
                segments.append(LineSegment(end=end))
            cursor = end
        if segments:
            contours.append(Contour(start=start, segments=tuple(segments), z_plane=z,
                                    laser_on=draw(st.booleans()), feed=feed))
    if not contours:
        contours.append(Contour(start=(0.0, 0.0), segments=(LineSegment(end=(1.0, 0.0)),),
                                z_plane=-300.0))
    return CutProgram(contours=tuple(contours)), limits


def bits(a):
    return a.dtype, a.shape, a.tobytes()


@settings(max_examples=200, deadline=None)
@given(case=cut_programs())
def test_array_planner_matches_the_sample_loop(g0, case):
    program, limits = case
    try:
        want = oracles.plan_samples(g0, program, limits)
    except UnreachableSample as exc:
        with pytest.raises(UnreachableSample) as info:
            plan_program(g0, program, limits)
        got = info.value
        assert (got.t, got.pose, got.arm_index) == (exc.t, exc.pose, exc.arm_index)
        assert float(got.t).hex() == float(exc.t).hex()
        return
    got = plan_program(g0, program, limits)
    for name in ("t", "poses", "joints", "laser"):
        assert bits(getattr(got, name)) == bits(getattr(want, name)), name


B = trajectory.STREAM_BLOCK_ROWS


def edge_lengths(b):
    """Stream lengths either side of one and two block edges."""
    return sorted({1, 2, 3, b - 1, b, b + 1, 2 * b + 1} - {0})


def report_bits(report):
    return ([x.hex() for x in (report.max_speed, report.max_accel, report.max_joint_step,
                               report.max_ik_residual)],
            [(v.index, v.kind, v.value.hex(), v.limit.hex()) for v in report.violations])


def assert_plans_match(g0, program, limits):
    try:
        want = oracles.plan_one_pass(g0, program, limits)
    except UnreachableSample as exc:
        with pytest.raises(UnreachableSample) as info:
            plan_program(g0, program, limits)
        got = info.value
        assert (float(got.t).hex(), got.pose, got.arm_index) == (
            float(exc.t).hex(), exc.pose, exc.arm_index)
        return None
    got = plan_program(g0, program, limits)
    for name in ("t", "poses", "joints", "laser"):
        assert bits(getattr(got, name)) == bits(getattr(want, name)), name
    return got


@settings(max_examples=150, deadline=None)
@given(case=cut_programs(), data=st.data())
def test_block_planner_matches_the_one_pass_planner(g0, case, data):
    """Blocks of every size that puts the stream's length at 1, 2, 3,
    B - 1, B, B + 1 or 2B + 1, or any size, so that motions, arcs and the
    first unreachable sample fall on either side of a block edge."""
    program, limits = case
    try:
        n = len(oracles.plan_one_pass(g0, program, limits))
    except UnreachableSample:
        n = 50  # block edges every 1 to 51 samples before the unreachable one
    sizes = [b for b in (n + 1, n, n - 1, (n - 1) // 2) if b >= 1]
    rows = data.draw(st.sampled_from(sizes) | st.integers(1, n + 1), label="block rows")
    with mock.patch.object(trajectory, "STREAM_BLOCK_ROWS", rows):
        assert_plans_match(g0, program, limits)


def line_of_samples(n):
    """A 40 mm line (a 0.0834 s triangle profile) whose tick gives n samples."""
    program = line_program(length=40.0)
    total = build_motions(program, MachineLimits())[0].total_time
    return program, MachineLimits(tick=total * 1e13 if n == 1 else total / (n - 1.5))


@pytest.mark.parametrize("n", edge_lengths(B))
def test_block_planner_at_the_edge_lengths(g0, n):
    program, limits = line_of_samples(n)
    assert len(assert_plans_match(g0, program, limits)) == n


def circles(count):
    """count R 50 circles at feed 300, 426 samples each: of eight, the fifth
    crosses the first block edge."""
    return CutProgram(contours=circle_program().contours * count)


def test_block_planner_across_a_block_edge_of_eight_circles(g0):
    stream = assert_plans_match(g0, circles(8), MachineLimits())
    assert B < len(stream) < 2 * B


def smooth_stream(g0, n, seed):
    """n samples 0.25 mm apart on a 30 mm circle at uneven ticks, with
    joints solved from the poses: no finding."""
    rng = np.random.default_rng(seed)
    t = np.cumsum(rng.uniform(0.9, 1.1, n)) * TICK
    ang = np.arange(n) * (0.25 / 30.0)
    poses = np.column_stack((30.0 * np.cos(ang), 30.0 * np.sin(ang), np.full(n, -300.0)))
    joints, _ = trajectory.inverse_kinematics_many(g0, poses)
    return t, poses, joints


# A defect at sample i and the findings it draws: a 3 mm jump (speed,
# accel, ik_residual), a 0.2 mm nudge (accel and ik_residual only), a pose
# above the base (unreachable, speed, accel) and a joint 1e-6 rad off
# (ik_residual only).
def jump(poses, joints, i):
    poses[i, 0] += 3.0


def nudge(poses, joints, i):
    poses[i, 0] += 0.2


def above(poses, joints, i):
    poses[i] = (0.0, 0.0, 100.0)


def joint(poses, joints, i):
    joints[i, 1] += 1e-6


@settings(max_examples=120, deadline=None)
@given(data=st.data(), rows=st.sampled_from([B, 1, 2, 3, 5, 8]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_block_validator_matches_the_one_pass_validator(g0, data, rows, seed):
    """Defects on the samples either side of each block edge, in streams of
    1, 2, 3, B - 1, B, B + 1 and 2B + 1 samples, B the block size."""
    n = data.draw(st.sampled_from(edge_lengths(rows)), label="samples")
    near = sorted({j * rows + d for j in (1, 2) for d in (-2, -1, 0, 1)
                   if 0 <= j * rows + d < n} | {0, n - 1})
    defects = data.draw(st.lists(st.tuples(st.sampled_from([jump, nudge, above, joint]),
                                           st.sampled_from(near)), max_size=4), label="defects")
    t, poses, joints = smooth_stream(g0, n, seed)
    for defect, i in defects:
        defect(poses, joints, i)
    stream = SetpointStream(t=t, poses=poses, joints=joints, laser=np.ones(n, dtype=bool))
    want = oracles.validate_one_pass(g0, stream)
    with mock.patch.object(trajectory, "STREAM_BLOCK_ROWS", rows):
        got = validate_stream(g0, stream)
    assert report_bits(got) == report_bits(want)


def test_block_validator_keeps_a_nan_maximum(g0):
    # Overflowing differences: an inf / inf speed and NaN accelerations in
    # the second block, after finite maxima in the first.
    t, poses, joints = smooth_stream(g0, 6, 1)
    t[:] = (-1.7e308, -1.6e308, -1.5e308, -1e308, 1e308, 1.5e308)
    poses[3:5] = (-1e308, 0.0, 0.0), (1e308, 0.0, 0.0)
    stream = SetpointStream(t=t, poses=poses, joints=joints, laser=np.ones(6, dtype=bool))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        want = oracles.validate_one_pass(g0, stream)
    # The validator itself prints no warning, in blocks or in one block.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        whole = validate_stream(g0, stream)
        with mock.patch.object(trajectory, "STREAM_BLOCK_ROWS", 2):
            got = validate_stream(g0, stream)
    assert math.isnan(want.max_speed) and math.isnan(want.max_accel)
    assert report_bits(got) == report_bits(want)
    assert report_bits(whole) == report_bits(want)


def peak_beyond(run):
    """run()'s tracemalloc peak less the bytes of the arrays it returns."""
    tracemalloc.start()
    try:
        got = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if isinstance(got, SetpointStream):
        peak -= sum(getattr(got, name).nbytes for name in ("t", "poses", "joints", "laser"))
    return peak


def test_plan_and_validate_memory_does_not_grow_with_the_stream(g0):
    programs = circles(16), circles(64)
    streams = [plan_program(g0, p) for p in programs]  # first-use caches
    assert [validate_stream(g0, s).ok for s in streams] == [True, True]
    plans = [peak_beyond(lambda p=p: plan_program(g0, p)) for p in programs]
    checks = [peak_beyond(lambda s=s: validate_stream(g0, s)) for s in streams]
    # 6,816 and 27,264 samples, both past two block edges, since a block's
    # temporaries live on into the next.  The planner's 48 more motion rows
    # took 35 kB more; temporaries over the whole stream took 306 and 324
    # bytes per sample, 6.2 and 6.6 MB more.
    assert plans[1] < plans[0] + 64 * 1024
    assert checks[1] < checks[0] + 64 * 1024


special = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                           1e308, -1e308, 1.7976931348623157e308, 0.1, 1.0 / 3.0])
values = special | st.floats(allow_nan=False, allow_infinity=False)


def nudged(x: float, ulps: int) -> float:
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


@st.composite
def dyadic_ties(draw):
    """m / 2**j with m odd and m * 5**j of 18 digits: its 17th digit is a tie."""
    j = draw(st.integers(2, 25))
    lo, hi = -(-10**17 // 5**j), min(10**18 // 5**j, 2**53)
    return math.ldexp(draw(st.integers(lo // 2, (hi - 1) // 2)) * 2 + 1, -j)


# Values the "%.17g" fast path finds hard: ulps around a power of ten and
# around the points where "%g" changes form, 17th-digit ties and near ties,
# trailing zeros, subnormals and the ends of the float range.
adversarial = st.builds(
    math.copysign,
    st.one_of(
        st.builds(nudged, st.integers(-330, 308).map(lambda k: float(f"1e{k}"))
                  | st.sampled_from([1e-5, 1e-4, 1e16, 1e17, 1e308]), st.integers(-3, 3)),
        dyadic_ties(),
        st.integers(10**16, 10**18).map(lambda n: float(n * 10 + 5)),
        st.integers(2**54, 2**70).map(float),
        st.builds(lambda n, k: n * 10.0**k, st.integers(-10**6, 10**6), st.integers(-12, 12)),
        st.integers(1, 2**52 - 1).map(lambda m: math.ldexp(m, -1074)),
    ),
    st.sampled_from([1.0, -1.0]),
)


@st.composite
def raw_streams(draw, elements=values):
    """1-12 samples of arbitrary finite values with any laser pattern."""
    t = sorted(set(draw(st.lists(elements, min_size=1, max_size=12))))
    n = len(t)
    table = np.array(draw(st.lists(elements, min_size=6 * n, max_size=6 * n))).reshape(n, 6)
    laser = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    # Gaps between +-1e308 timestamps overflow to inf, which still increases.
    with np.errstate(over="ignore"):
        return SetpointStream(t=np.array(t), poses=table[:, :3], joints=table[:, 3:],
                              laser=laser)


def write_both(stream, block_rows):
    """The block writer's and the value writer's bytes for one stream."""
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp, "got.csv"), Path(tmp, "want.csv")
        with mock.patch.object(trajectory, "STREAM_BLOCK_ROWS", block_rows):
            write_stream_csv(stream, got)
        oracles.write_stream_rows(stream, want)
        return got.read_bytes(), want.read_bytes()


@settings(max_examples=300, deadline=None)
@given(stream=raw_streams(values | adversarial), block_rows=st.sampled_from([1, 2, 7])
       | st.integers(1, 14))
def test_array_writer_matches_the_value_writer(stream, block_rows):
    got, want = write_both(stream, block_rows)
    assert got == want


def hard_stream():
    """The adversarial kinds of values, a few thousand of each sign, in rows."""
    rng = np.random.default_rng(15)
    tens = [float(f"1e{k}") for k in range(-330, 309)] + [1e-5, 1e-4, 1e16, 1e17]
    ties = [math.ldexp(int(m) | 1, -j) for j in range(2, 26)
            for m in rng.integers(-(-10**17 // 5**j), min(10**18 // 5**j, 2**53), 40)]
    hard = np.array(
        [nudged(x, u) for x in tens for u in range(-3, 4)] + ties
        + [float(n * 10 + 5) for n in rng.integers(10**16, 10**17, 200).tolist()]
        + (rng.integers(-10**6, 10**6, 500) * 10.0 ** rng.integers(-12, 12, 500)).tolist()
        + [math.ldexp(int(m), -1074) for m in rng.integers(1, 2**52, 100)])
    hard = np.concatenate((hard, -hard, [0.0, -0.0, 1e308, -1e308]))
    table = np.resize(rng.permutation(hard), (-(-hard.size // 6), 6))
    return SetpointStream(t=np.arange(len(table)) * TICK, poses=table[:, :3],
                          joints=table[:, 3:], laser=table[:, 0] > 0)


def test_array_writer_matches_the_value_writer_on_hard_values():
    got, want = write_both(hard_stream(), 1000)
    assert got == want


@pytest.mark.parametrize("toward", [-math.inf, math.inf])
def test_array_writer_survives_a_log10_one_ulp_off(toward):
    # Another C library may round log10 the other way near a power of ten;
    # the wrong decade that gives must go to the line template.
    log10 = np.log10
    with mock.patch.object(np, "log10", lambda a: np.nextafter(log10(a), toward)):
        got, want = write_both(hard_stream(), 1000)
    assert got == want


@settings(max_examples=50, deadline=None)
@given(stream=raw_streams(values | adversarial), block_rows=st.integers(1, 14))
def test_writer_fallback_alone_matches_the_value_writer(stream, block_rows):
    # With no value certified, every row goes through the "%.17g" line template.
    with mock.patch.object(trajectory, "_format_g17", lambda x, out: np.zeros(x.shape, bool)):
        got, want = write_both(stream, block_rows)
    assert got == want


def test_writer_certifies_nearly_every_planned_value(g0, fixtures_dir):
    program = load_program(fixtures_dir / "programs" / "multi.json")
    stream = plan_program(g0, program)
    values = np.column_stack((stream.t, stream.poses, stream.joints)).ravel()
    exact = trajectory._format_g17(values, np.zeros((45, values.size), np.uint8))
    assert np.count_nonzero(~exact) <= values.size // 1000


def test_csv_names_the_line_of_a_non_finite_time(tmp_path):
    path = tmp_path / "stream.csv"
    path.write_text("t,x,y,z,theta1,theta2,theta3,laser\n"
                    "0,0,0,-300,0,0,0,1\n\nnan,0,0,-300,0,0,0,1\n", encoding="utf-8")
    with pytest.raises(InvalidStream, match=r"line 4: t must be finite, got nan$"):
        read_stream_csv(path)


def test_csv_refuses_quoted_fields(tmp_path):
    path = tmp_path / "stream.csv"
    path.write_text('t,x,y,z,theta1,theta2,theta3,laser\n"0",0,0,-300,0,0,0,1\n',
                    encoding="utf-8")
    assert len(oracles.read_stream_rows(path)) == 1  # csv.reader unquoted it
    with pytest.raises(InvalidStream, match=r"""line 2: could not convert string to float: '"0"'$"""):
        read_stream_csv(path)


def long_stream(n):
    rng = np.random.default_rng(8)
    return SetpointStream(t=np.arange(n) * TICK, poses=rng.uniform(-400.0, 400.0, (n, 3)),
                          joints=rng.uniform(-1.0, 2.0, (n, 3)), laser=rng.random(n) < 0.5)


def test_stream_read_memory_is_bounded(tmp_path):
    path = tmp_path / "long.csv"
    write_stream_csv(long_stream(200_000), path)
    tracemalloc.start()
    try:
        got = read_stream_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    result = sum(getattr(got, name).nbytes for name in ("t", "poses", "joints", "laser"))
    # The np.loadtxt pass takes about 3 MB beyond the result here, as blocks
    # of STREAM_BLOCK_ROWS lines did; the row-by-row reader peaked at 86 MB.
    assert peak < result + 6 * 2**20


def test_line_by_line_read_memory_is_bounded(tmp_path):
    path = tmp_path / "long.csv"
    stream = long_stream(50_000)
    write_stream_csv(stream, path)
    # A digit underscore, which np.loadtxt refuses, on the second row.
    path.write_text(path.read_text().replace("\n0.0025", "\n0.002_5", 1))
    tracemalloc.start()
    try:
        got = read_stream_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    for name in ("t", "poses", "joints", "laser"):
        assert bits(getattr(got, name)) == bits(getattr(stream, name)), name
    result = sum(getattr(got, name).nbytes for name in ("t", "poses", "joints", "laser"))
    assert peak < result + 6 * 2**20


def test_stream_write_memory_is_bounded(tmp_path):
    stream = long_stream(200_000)
    tracemalloc.start()
    try:
        write_stream_csv(stream, tmp_path / "long.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Blocks of STREAM_BLOCK_ROWS rows take about 4 MB whatever the row
    # count; the writer that built the whole text peaked at 124 MB here.
    assert peak < 6 * 2**20


def views_of_one_record_array(stream):
    """Whether the four arrays are read-only views of one array, as only
    np.loadtxt's record array gives: the line walk's laser is a bool copy."""
    arrays = [stream.t, stream.poses, stream.joints, stream.laser]
    return all(a.base is arrays[0].base and not a.flags.writeable for a in arrays)


def test_written_streams_never_take_the_line_by_line_path(g0, fixtures_dir, tmp_path):
    streams = [plan_program(g0, load_program(fixtures_dir / f"programs/{name}.json"))
               for name in ("circle50", "line100", "multi")]
    streams += [hard_stream(), long_stream(5000)]
    for i, stream in enumerate(streams):
        path = tmp_path / f"{i}.csv"
        write_stream_csv(stream, path)
        got = read_stream_csv(path)
        for name in ("t", "poses", "joints", "laser"):
            assert bits(getattr(got, name)) == bits(getattr(stream, name)), (i, name)
        assert views_of_one_record_array(got), i


def test_read_arrays_are_read_only_views_of_one_record_array(g0, tmp_path):
    path = tmp_path / "stream.csv"
    write_stream_csv(plan_program(g0, line_program()), path)
    assert views_of_one_record_array(read_stream_csv(path))


@pytest.mark.parametrize("body", ["", "\n", "\n\r\n\r", "\n\n\n"])
def test_a_file_with_no_rows_is_refused_without_a_warning(body):
    text = ",".join(trajectory._CSV_HEADER) + "\n" + body
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, want = read_both(text)
    assert got == want
    assert got[0] is InvalidStream and got[1].endswith(" has no samples"), got
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got, want = read_both(text)
    assert got == want
    assert not caught


@pytest.mark.parametrize("separator", ["\x1c", "\x1d", "\x1e", "\x1f"])
@pytest.mark.parametrize("column", [0, 3, 7])
def test_a_unit_separator_at_a_field_end_is_refused(separator, column):
    # np.loadtxt strips these four as whitespace; float() and int() refuse them.
    fields = ["0", "0", "0", "-300", "0", "0", "0", "1"]
    fields[column] += separator
    got, want = read_both(",".join(trajectory._CSV_HEADER) + "\n" + ",".join(fields) + "\n")
    assert got == want
    assert got[0] is InvalidStream and ": line 2: " in got[1], got


ROW_TAIL = ",2.0,-300.0,0.1,0.2,0.3,"


def mib_stream(end, x_end, after_x=""):
    """A stream past 1 MiB, its lines ended by end, in which one row's x
    field is padded with zeros to end at byte x_end, and after_x follows it."""
    parts = [",".join(trajectory._CSV_HEADER) + end]
    size, i = len(parts[0]), 0
    while size + 64 < x_end:
        parts.append(f"{i * 0.0025!r},1.5{ROW_TAIL}{i % 2}{end}")
        size, i = size + len(parts[-1]), i + 1
    head = f"{i * 0.0025!r},1.5"
    parts.append(head + "0" * (x_end - size - len(head)) + after_x + ROW_TAIL + "1" + end)
    parts += [f"{j * 0.0025!r},1.5{ROW_TAIL}{j % 2}{end}" for j in range(i + 1, i + 1000)]
    return "".join(parts)


def test_a_crlf_split_across_the_line_count_chunks(tmp_path):
    # The line-end count reads 1 MiB chunks: this \r ends the first, its \n
    # starts the second.
    text = mib_stream("\r\n", 2**20 - 1 - len(ROW_TAIL) - 1)
    assert text[2**20 - 1:2**20 + 1] == "\r\n"
    # The same bytes, then with "2.0" on the first row spelled "2_0", which
    # np.loadtxt refuses and float() takes.
    for text, fast in ((text, True), (text.replace(",2.0,", ",2_0,", 1), False)):
        got, want = read_both(text)
        assert isinstance(want, list) and got == want
        path = tmp_path / "stream.csv"
        path.write_bytes(text.encode())
        assert views_of_one_record_array(read_stream_csv(path)) is fast


def test_a_unit_separator_starting_a_line_count_chunk_is_refused():
    text = mib_stream("\n", 2**20, "\x1c")
    assert text[2**20] == "\x1c"
    got, want = read_both(text)
    assert got == want
    line = text[:2**20].count("\n") + 1
    assert got[0] is InvalidStream and f": line {line}: " in got[1], got


ENDINGS = st.sampled_from(["\n", "\r\n", "\r"])
# float() and int() strip \x0b, \x0c, \x85, \u2028 and \u2029 but refuse
# \x1c-\x1f; none of them ends a line, though str.splitlines() splits on all.
# "\udcff" is written as the lone byte 0xFF, which is not UTF-8.
ODD = st.sampled_from(["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\u2028",
                       "\u2029", "\udcff"])
BAD_NUMBERS = st.sampled_from(["x", "", "1.5.2", "0x10", "1e", "--1", "1 2", "\x1c", "\x1f",
                               "NaNx"])
BAD_FLAGS = st.sampled_from(["2", "x", "01", "-1", "1.0", " 1 ", "", "9" * 25, "True", "0\x0c"])


@st.composite
def data_lines(draw):
    """The data lines of a valid stream, its fields padded with whitespace
    and now and then spelled as only float() and int() take them."""
    stream = draw(raw_streams())
    table = np.column_stack((stream.t, stream.poses, stream.joints)).tolist()
    pad = st.sampled_from(["", " ", "  ", "\x0c", "\u2028", "\xa0", "\u3000"])
    lines = []
    for row, flag in zip(table, stream.laser.tolist()):
        fields = [draw(st.sampled_from([repr, "%.17g".__mod__]))(v) for v in row]
        fields = [draw(exact_only_spellings(f)) for f in fields + [str(int(flag))]]
        lines.append([draw(pad) + f + draw(pad) for f in fields])
    return lines


@st.composite
def exact_only_spellings(draw, field):
    """The field as it is, or with a "_" between two of its digits or one
    digit in Arabic-Indic, which np.loadtxt refuses and float() and int()
    take."""
    kind = draw(st.sampled_from(["", "", "", "", "_", "arabic"]))
    if kind == "_":
        gaps = [k for k in range(1, len(field)) if field[k - 1:k + 1].isdigit()]
        if gaps:
            k = draw(st.sampled_from(gaps))
            return field[:k] + "_" + field[k:]
    elif kind == "arabic":
        k = draw(st.sampled_from([k for k, c in enumerate(field) if c.isdigit()]))
        return field[:k] + chr(0x660 + int(field[k])) + field[k + 1:]
    return field


@st.composite
def layouts(draw, lines):
    """File text with blank lines anywhere and mixed line ends.

    Returns the text and the physical line number of each data line.
    """
    out = [",".join(trajectory._CSV_HEADER)]
    numbers = []
    for line in lines:
        out += [""] * draw(st.integers(0, 2))
        numbers.append(len(out) + 1)
        out.append(line)
    out += [""] * draw(st.integers(0, 2))
    text = ""
    for line in out:
        end = draw(ENDINGS)
        if line == "" and text.endswith("\r"):
            end = "\r"  # a CR then LF would be one CRLF, not a blank line
        text += line + end
    if draw(st.booleans()):
        text = text.rstrip("\r\n")  # an unterminated last line
    return text, numbers


def outcome(read, path):
    """The four arrays' bits, or the exception's type and message."""
    try:
        with np.errstate(over="ignore"):
            stream = read(path)
    except Exception as exc:
        return type(exc), str(exc)
    return [bits(getattr(stream, name)) for name in ("t", "poses", "joints", "laser")]


def read_both(text):
    """The package's and the oracle's outcomes on one file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "stream.csv")
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        want = outcome(oracles.read_stream_rows, path)
        got = outcome(read_stream_csv, path)
    return got, want


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_block_reader_matches_the_row_reader(data):
    lines = data.draw(data_lines())
    text, _ = data.draw(layouts([",".join(f) for f in lines]))
    got, want = read_both(text)
    assert isinstance(want, list), want
    assert got == want


@st.composite
def corruptions(draw, lines, i):
    """Damage line i in place: its fields or its flag, or add a line before it."""
    fields = lines[i]
    kind = draw(st.sampled_from(["fields", "number", "flag", "odd", "whitespace"]))
    j = draw(st.integers(0, len(fields) - 1))
    if kind == "fields":
        if draw(st.booleans()):
            del fields[j]
        else:
            fields.insert(j, draw(st.sampled_from(["0", ""])))
    elif kind == "number":
        fields[j] = draw(BAD_NUMBERS)
    elif kind == "flag":
        fields[-1] = draw(BAD_FLAGS)
    elif kind == "odd":
        k = draw(st.integers(0, len(fields[j])))
        fields[j] = fields[j][:k] + draw(ODD) + fields[j][k:]
    else:
        lines.insert(i, [draw(st.sampled_from([" ", "\t", "\x0c", "\x0b", "\x85"]))])


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_block_reader_refuses_what_the_row_reader_refuses(data):
    lines = data.draw(data_lines())
    n = len(lines)
    damaged = data.draw(st.lists(st.sampled_from([0, n - 1]) | st.integers(0, n - 1),
                                 min_size=1, max_size=2, unique=True))
    for i in sorted(damaged, reverse=True):
        data.draw(corruptions(lines, i))
    text, _ = data.draw(layouts([",".join(f) for f in lines]))
    got, want = read_both(text)
    assert got == want


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_block_reader_names_the_line_of_a_non_finite_or_early_time(data):
    lines = data.draw(data_lines())
    i = data.draw(st.integers(0, len(lines) - 1))
    if i and data.draw(st.booleans()):
        lines[i][0] = lines[i - 1][0]
    else:
        j = data.draw(st.integers(0, 6))
        lines[i][j] = data.draw(st.sampled_from(["nan", "inf", "-inf", " -Infinity ", "NaN"]))
    text, numbers = data.draw(layouts([",".join(f) for f in lines]))
    got, want = read_both(text)
    assert want[0] is InvalidStream
    assert got[0] is InvalidStream
    assert f": line {numbers[i]}: " in got[1], got[1]
