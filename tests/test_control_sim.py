import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from deltacut import (
    FaultScript,
    FaultWindow,
    ProcessSpec,
    SetpointStream,
    TraceEvent,
    UnknownProcess,
    WatchdogConfig,
    default_processes,
    format_trace,
    load_fault_script,
    load_watchdog_config,
    read_stream_csv,
    read_trace,
    replay_check,
    save_fault_script,
    save_watchdog_config,
    simulate,
    write_trace,
)
from deltacut.control_sim import SEVERITIES

TICK = 0.0025


def make_stream(n, laser=None):
    """Synthetic hover stream: n samples at a fixed pose."""
    t = np.arange(n) * TICK
    poses = np.tile([0.0, 0.0, -300.0], (n, 1))
    joints = np.zeros((n, 3))
    flags = np.ones(n, dtype=bool) if laser is None else np.asarray(laser, dtype=bool)
    return SetpointStream(t=t, poses=poses, joints=joints, laser=flags)


def kinds_at(result, tick):
    return [e.kind for e in result.trace if e.tick == tick]


def test_default_config():
    cfg = WatchdogConfig()
    assert cfg.pulse_period == 1
    assert cfg.timeout == 4
    sev = {p.name: p.severity for p in cfg.processes}
    assert sev == {"motion": "critical", "laser": "degraded", "logging": "advisory"}


@pytest.mark.parametrize("kwargs", [
    {"pulse_period": 0},
    {"pulse_period": -1},
    {"timeout": 0},
    {"pulse_period": 5, "timeout": 3},
    {"pulse_period": 1.5},
    {"pulse_period": True},
])
def test_config_rejects_bad_timing(kwargs):
    with pytest.raises(ValueError):
        WatchdogConfig(**kwargs)


def test_config_rejects_bad_process_lists():
    procs = default_processes()
    with pytest.raises(ValueError, match="unique"):
        WatchdogConfig(processes=procs + (ProcessSpec("motion", "critical"),))
    with pytest.raises(ValueError, match="motion"):
        WatchdogConfig(processes=(ProcessSpec("laser", "degraded"),
                                  ProcessSpec("logging", "advisory")))
    with pytest.raises(ValueError, match="severity"):
        ProcessSpec("motion", "fatal")


def test_fault_window_validation():
    with pytest.raises(ValueError):
        FaultWindow("motion", -1, 5)
    with pytest.raises(ValueError):
        FaultWindow("motion", 9, 5)
    w = FaultWindow("motion", 3, 7)
    assert oracles.covers(w, 3) and oracles.covers(w, 7) and not oracles.covers(w, 8)


@pytest.mark.parametrize("build, error", [
    (lambda: WatchdogConfig(processes=[42]), "processes must be ProcessSpec instances"),
    (lambda: FaultScript(windows=[42]), "windows must be FaultWindow instances"),
])
def test_value_types_refuse_members_of_another_type(build, error):
    with pytest.raises(ValueError, match=re.escape(error)):
        build()


def test_nominal_run_completes():
    stream = make_stream(59)
    result = simulate(stream)
    assert result.status == "complete"
    assert result.final_tick == 58
    assert result.failed_processes == ()
    assert [e.kind for e in result.trace] == ["run_complete"]
    assert result.trace[0].detail == "59 samples executed"
    assert replay_check(result.trace, stream)


def test_golden_critical_trace_matches_fixture(fixtures_dir):
    stream = read_stream_csv(fixtures_dir / "line100_stream.csv")
    faults = load_fault_script(fixtures_dir / "faults_motion20.json")
    result = simulate(stream, faults=faults)
    assert result.status == "aborted"
    assert result.final_tick == 25
    assert result.failed_processes == ("motion",)
    golden = (fixtures_dir / "trace_motion_trip.txt").read_text(encoding="utf-8")
    assert format_trace(result.trace) == golden
    assert tuple(result.final_pose) == tuple(stream.poses[25])


def test_sub_timeout_gap_is_silent(fixtures_dir):
    stream = make_stream(59)
    faults = load_fault_script(fixtures_dir / "faults_logging_10_12.json")
    result = simulate(stream, faults=faults)
    assert result.status == "complete"
    assert [e.kind for e in result.trace] == ["run_complete"]


def test_advisory_trip_logs_and_continues():
    stream = make_stream(59)
    faults = FaultScript(windows=(FaultWindow("logging", 10, 10_000),))
    result = simulate(stream, faults=faults)
    assert result.status == "complete"
    assert result.failed_processes == ("logging",)
    assert kinds_at(result, 15) == ["pulse_missed", "watchdog_trip",
                                    "corrective_action"]
    assert result.trace[-1].kind == "run_complete"
    assert result.trace[-1].tick == 58


def test_degraded_trip_coasts_to_end_of_cut():
    laser = [True] * 20 + [False] * 10 + [True] * 29
    stream = make_stream(59, laser=laser)
    faults = FaultScript(windows=(FaultWindow("laser", 5, 10_000),))
    result = simulate(stream, faults=faults)
    assert result.status == "held"
    assert result.final_tick == 19  # finishes the laser-on run 0..19
    assert kinds_at(result, 10) == ["pulse_missed", "watchdog_trip",
                                    "corrective_action", "laser_off"]
    assert kinds_at(result, 19) == ["motion_hold"]


def test_degraded_trip_during_gap_holds_immediately():
    laser = [True] * 20 + [False] * 10 + [True] * 29
    stream = make_stream(59, laser=laser)
    faults = FaultScript(windows=(FaultWindow("laser", 16, 10_000),))
    result = simulate(stream, faults=faults)
    # last pulse 15, first missed 16, trip at 21 while the laser is off
    assert result.status == "held"
    assert result.final_tick == 21
    assert kinds_at(result, 21) == ["pulse_missed", "watchdog_trip",
                                    "corrective_action", "laser_off",
                                    "motion_hold"]


def test_critical_trip_preempts_a_coast():
    laser = [True] * 20 + [False] * 10 + [True] * 29
    stream = make_stream(59, laser=laser)
    faults = FaultScript(windows=(FaultWindow("laser", 5, 10_000),
                                  FaultWindow("motion", 12, 10_000)))
    result = simulate(stream, faults=faults)
    assert result.status == "aborted"
    assert result.final_tick == 17  # motion trips before the coast ends at 19
    assert set(result.failed_processes) == {"motion", "laser"}
    assert kinds_at(result, 17) == ["pulse_missed", "watchdog_trip",
                                    "corrective_action", "laser_off",
                                    "motion_hold"]


def test_pulse_resumption_resets_and_allows_retrip():
    stream = make_stream(80)
    faults = FaultScript(windows=(FaultWindow("logging", 10, 20),
                                  FaultWindow("logging", 40, 50)))
    result = simulate(stream, faults=faults)
    trips = [e.tick for e in result.trace if e.kind == "watchdog_trip"]
    assert trips == [15, 45]
    assert result.status == "complete"


def test_no_retrip_while_still_suppressed():
    stream = make_stream(59)
    faults = FaultScript(windows=(FaultWindow("logging", 10, 10_000),))
    result = simulate(stream, faults=faults)
    trips = [e for e in result.trace if e.kind == "watchdog_trip"]
    assert len(trips) == 1


def test_slow_pulse_period_shifts_the_trip():
    cfg = WatchdogConfig(pulse_period=3, timeout=4)
    stream = make_stream(40)
    faults = FaultScript(windows=(FaultWindow("logging", 6, 10_000),))
    result = simulate(stream, cfg, faults)
    trips = [e.tick for e in result.trace if e.kind == "watchdog_trip"]
    assert trips == [11]  # last pulse 3, expected 6, timeout 4 -> 6 + 4 + 1


def test_unknown_fault_process_rejected():
    stream = make_stream(10)
    faults = FaultScript(windows=(FaultWindow("spindle", 0, 5),))
    with pytest.raises(UnknownProcess, match="spindle"):
        simulate(stream, faults=faults)


def test_replay_check_detects_tampering():
    stream = make_stream(59)
    faults = FaultScript(windows=(FaultWindow("motion", 20, 10_000),))
    result = simulate(stream, faults=faults)
    assert replay_check(result.trace, stream, faults=faults)
    tampered = list(result.trace)
    ev = tampered[1]
    tampered[1] = TraceEvent(ev.tick + 1, ev.kind, ev.process_name, ev.detail)
    assert not replay_check(tampered, stream, faults=faults)
    assert not replay_check(result.trace, stream)  # faults omitted


def test_trace_file_round_trip(tmp_path):
    stream = make_stream(59)
    faults = FaultScript(windows=(FaultWindow("motion", 20, 10_000),))
    result = simulate(stream, faults=faults)
    path = tmp_path / "trace.txt"
    write_trace(result.trace, path)
    again = read_trace(path)
    assert again == result.trace
    assert replay_check(again, stream, faults=faults)


def test_read_trace_names_the_file_on_bad_events(tmp_path):
    path = tmp_path / "trace.txt"
    path.write_text("0\tlaser_off\tlaser\tlaser disabled\n5\tbogus\t\t\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"trace file {path}: line 2: ") + ".*bogus"):
        read_trace(path)


def test_read_trace_skips_blank_lines(tmp_path):
    line = "0\tlaser_off\tlaser\tlaser disabled\n"
    path = tmp_path / "trace.txt"
    path.write_text("\n" + line + "\n\n" + line, encoding="utf-8")
    assert read_trace(path) == (TraceEvent(0, "laser_off", "laser", "laser disabled"),) * 2


def test_read_trace_refuses_a_line_with_three_fields(tmp_path):
    path = tmp_path / "trace.txt"
    path.write_text("0\tlaser_off\tlaser\tlaser disabled\n5\tlaser_off\tlaser\n",
                    encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"trace file {path}: line 2 has 3 fields")):
        read_trace(path)


@pytest.mark.parametrize("field", ["1_0", "+3", " 3", "3 ", "03", "-0", "\u0663", "1e3", ""])
def test_read_trace_takes_only_the_ticks_to_line_writes(tmp_path, field):
    # int() takes most of these, and replay_check compares re-formatted text,
    # so a trace file whose bytes differ from a fresh run would replay clean.
    path = tmp_path / "trace.txt"
    path.write_text(f"0\tlaser_off\tlaser\tlaser disabled\n{field}\tlaser_off\tlaser\t\n",
                    encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"trace file {path}: line 2: bad tick")):
        read_trace(path)


def test_trace_event_validation():
    with pytest.raises(ValueError):
        TraceEvent(-1, "laser_off")
    with pytest.raises(ValueError, match="kind"):
        TraceEvent(0, "explosion")
    with pytest.raises(ValueError):
        TraceEvent(0, "laser_off", detail="a\tb")
    with pytest.raises(ValueError):
        TraceEvent(0, "laser_off", detail="a\nb")
    with pytest.raises(ValueError, match="process_name"):
        TraceEvent(0, "laser_off", "las\rer")
    line = TraceEvent(3, "laser_off", "laser", "laser disabled").to_line()
    assert line == "3\tlaser_off\tlaser\tlaser disabled"


def test_trace_ticks_are_monotone_and_terminal_is_last():
    stream = make_stream(59)
    faults = FaultScript(windows=(FaultWindow("laser", 30, 10_000),))
    result = simulate(stream, faults=faults)
    ticks = [e.tick for e in result.trace]
    assert ticks == sorted(ticks)
    assert result.trace[-1].kind == "motion_hold"
    assert sum(1 for e in result.trace
               if e.kind in ("motion_hold", "run_complete")) == 1


def test_simulation_is_deterministic():
    stream = make_stream(59)
    faults = FaultScript(windows=(FaultWindow("motion", 7, 9),
                                  FaultWindow("laser", 30, 10_000)))
    first = simulate(stream, faults=faults)
    second = simulate(stream, faults=faults)
    assert format_trace(first.trace) == format_trace(second.trace)
    assert first.status == second.status
    assert first.final_tick == second.final_tick


def test_watchdog_config_file_round_trip(tmp_path):
    cfg = WatchdogConfig(pulse_period=2, timeout=6)
    path = tmp_path / "wd.json"
    save_watchdog_config(cfg, path)
    again = load_watchdog_config(path)
    assert again == cfg
    save_watchdog_config(again, tmp_path / "wd2.json")
    assert path.read_bytes() == (tmp_path / "wd2.json").read_bytes()


def test_watchdog_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "wd.json"
    path.write_text('{"pulse_period": 1, "timeout": 4, "grace": 2}',
                    encoding="utf-8")
    with pytest.raises(ValueError, match="grace"):
        load_watchdog_config(path)


def test_fault_script_file_round_trip(tmp_path):
    script = FaultScript(windows=(FaultWindow("motion", 5, 9),
                                  FaultWindow("laser", 0, 3)))
    path = tmp_path / "faults.json"
    save_fault_script(script, path)
    assert load_fault_script(path) == script


def test_fault_script_rejects_unknown_keys(tmp_path):
    path = tmp_path / "faults.json"
    path.write_text('[{"process_name": "motion", "start_tick": 0,'
                    ' "end_tick": 2, "jitter": 1}]', encoding="utf-8")
    with pytest.raises(ValueError, match="window 0"):
        load_fault_script(path)


def test_fault_script_accepts_bare_list(tmp_path):
    path = tmp_path / "faults.json"
    path.write_text('[{"process_name": "laser", "start_tick": 1,'
                    ' "end_tick": 2}]', encoding="utf-8")
    script = load_fault_script(path)
    assert script.windows == (FaultWindow("laser", 1, 2),)


@st.composite
def watchdog_cases(draw):
    """A stream of 1 to 200 samples with a random laser pattern, a config
    with 1-5 extra processes of each severity in random order and a timeout
    that may exceed any integer array, and windows that overlap, start at
    tick 0 or run past the end."""
    n = draw(st.integers(1, 200))
    runs = draw(st.lists(st.tuples(st.booleans(), st.integers(1, 40)), min_size=1))
    laser = [on for on, length in runs for _ in range(length)]
    laser = (laser * n)[:n]
    period = draw(st.integers(1, 6))
    timeout = draw(st.one_of(st.integers(period, period + 8), st.just(2**64)))
    procs = list(default_processes())
    for severity in SEVERITIES:
        procs += [ProcessSpec(f"{severity}{i}", severity)
                  for i in range(draw(st.integers(1, 5)))]
    procs = draw(st.permutations(procs))
    names = [p.name for p in procs]
    windows = []
    for _ in range(draw(st.integers(0, 8))):
        start = draw(st.one_of(st.just(0), st.integers(0, 30), st.integers(0, n + 5)))
        length = draw(st.one_of(st.integers(0, 12), st.integers(0, n + 5)))
        windows.append(FaultWindow(draw(st.sampled_from(names)), start, start + length))
    return (make_stream(n, laser), WatchdogConfig(period, timeout, tuple(procs)),
            FaultScript(tuple(windows)))


@settings(max_examples=300, deadline=None)
@given(case=watchdog_cases())
def test_trips_from_the_pulse_schedule_match_the_tick_loop(case):
    stream, cfg, faults = case
    result = simulate(stream, cfg, faults)
    reference = oracles.simulate_ticks(stream, cfg, faults)
    assert result == reference
    assert format_trace(result.trace) == format_trace(reference.trace)


@pytest.mark.parametrize("windows, status, trips", [
    # 2,000 advisory trips spread over the whole run.
    ([FaultWindow("logging", 100 * i, 100 * i + 50) for i in range(2000)], "complete", 2000),
    # One degraded trip early in a laser-on run that lasts to the end.
    ([FaultWindow("laser", 10, 20)], "held", 1),
], ids=["logging_2000", "laser_early"])
def test_long_faulted_stream_costs_no_time_per_tick(windows, status, trips):
    stream = make_stream(200_000)
    t0 = time.perf_counter()
    result = simulate(stream, faults=FaultScript(tuple(windows)))
    elapsed = time.perf_counter() - t0
    assert result.status == status
    assert sum(e.kind == "watchdog_trip" for e in result.trace) == trips
    assert result.final_tick == 199_999
    assert elapsed < 1.0, f"{elapsed:.3f} s"
