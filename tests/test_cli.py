import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import FIXTURES, load_fixture
from deltacut import (
    SAMPLE_BUDGET,
    JointAngles,
    Pose,
    forward_kinematics,
    inverse_kinematics,
    load_grid,
)
from deltacut import design_opt
from deltacut.cli import app


def kv(text):
    out = {}
    for line in text.splitlines():
        if "=" in line:
            key, _, value = line.partition("=")
            out[key] = value
    return out


def run_cli(*argv):
    """The command line in a fresh interpreter, whose stderr shows numpy's
    warnings as a user sees them."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    return subprocess.run([sys.executable, "-m", "deltacut.cli", *argv],
                          capture_output=True, text=True, env=env)


def test_ik_matches_library(capsys, fixtures_dir, g0):
    code = app(["ik", "--geometry", str(fixtures_dir / "g0.json"),
                "--", "0", "0", "-350"])
    assert code == 0
    got = [float(v) for v in capsys.readouterr().out.split()]
    want = inverse_kinematics(g0, Pose(0.0, 0.0, -350.0)).as_tuple()
    assert got == list(want)
    assert all(abs(v - 0.4563) < 1e-3 for v in got)


def test_ik_home_pose_angles_are_tiny(capsys, fixtures_dir, g0):
    code = app(["ik", "--geometry", str(fixtures_dir / "g0.json"),
                "--", "0", "0", str(g0.home_z())])
    assert code == 0
    got = [float(v) for v in capsys.readouterr().out.split()]
    assert all(abs(v) < 1e-3 for v in got)


def test_ik_unreachable_exit_code(capsys, fixtures_dir):
    code = app(["ik", "--geometry", str(fixtures_dir / "g0.json"),
                "--", "0", "0", "-1000"])
    assert code == 1
    err = capsys.readouterr().err
    assert "Unreachable" in err
    assert "arm 1" in err


def test_ik_knee_at_the_joint_range_end_exits_as_unreachable(capsys, fixtures_dir):
    code = app(["ik", "--geometry", str(fixtures_dir / "g0.json"),
                "--", "0", "-279.6225223508825", "9.153741868772158"])
    assert code == 1
    assert "Unreachable: arm 2" in capsys.readouterr().err


def test_fk_matches_library(capsys, fixtures_dir, g0):
    code = app(["fk", "--geometry", str(fixtures_dir / "g0.json"),
                "0.3", "0.1", "0.2"])
    assert code == 0
    got = [float(v) for v in capsys.readouterr().out.split()]
    pose = forward_kinematics(g0, JointAngles(0.3, 0.1, 0.2))
    assert got == [pose.x, pose.y, pose.z]


def test_fk_rejects_non_numeric_angle(fixtures_dir):
    with pytest.raises(SystemExit) as info:
        app(["fk", "--geometry", str(fixtures_dir / "g0.json"),
             "0.3", "spin", "0.2"])
    assert info.value.code == 2


def test_missing_geometry_file_is_a_usage_error(capsys, tmp_path):
    code = app(["ik", "--geometry", str(tmp_path / "nope.json"),
                "--", "0", "0", "-300"])
    assert code == 2
    assert "nope.json" in capsys.readouterr().err


def test_workspace_writes_a_loadable_dump(capsys, fixtures_dir, tmp_path):
    out = tmp_path / "grid.txt"
    code = app(["workspace", "--geometry", str(fixtures_dir / "g0.json"),
                "--out", str(out), "--resolution", "25",
                "--bounds", "-100", "100", "-100", "100", "-400", "-200",
                "--prescribed", str(fixtures_dir / "prescribed_mixed10.json")])
    assert code == 0
    captured = capsys.readouterr()
    values = kv(captured.out)
    grid = load_grid(out)
    assert int(values["cells"]) == grid.occupied_count > 0
    assert int(values["total"]) == 8 * 8 * 8
    assert float(values["volume"]) == grid.occupied_count * 25.0**3
    assert float(values["coverage"]) == 0.7
    assert "scanning" in captured.err  # diagnostics stay off stdout


def test_workspace_bounds_that_overflow_the_cell_count_are_a_usage_error(capsys, fixtures_dir,
                                                                         tmp_path):
    # -1e308 .. 1e308 spans inf mm, so the x cell count is not finite.
    code = app(["workspace", "--geometry", str(fixtures_dir / "g0.json"),
                "--out", str(tmp_path / "grid.txt"),
                "--bounds", "-1" + "0" * 308, "1e308", "-1", "1", "-1", "0"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("ValueError: x cell count is not finite")
    assert not (tmp_path / "grid.txt").exists()


def test_workspace_whose_volume_overflows_is_a_usage_error(capsys, fixtures_dir, tmp_path):
    # One cell of 1e103 mm: its volume, 1e309 mm^3, overflows.
    out = tmp_path / "grid.txt"
    code = app(["workspace", "--geometry", str(fixtures_dir / "g0.json"),
                "--out", str(out), "--resolution", "1e103"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "ValueError: resolution=1e+103 is too large: the grid's volume overflows"]
    assert not out.exists()


def test_workspace_coverage_of_a_far_off_point_prints_no_warning(fixtures_dir, tmp_path):
    # The open pair at x = 1e200 goes to the kernel, whose plane cut squares it.
    points = tmp_path / "points.json"
    points.write_text("[[1e200, 0, 5], [0, 0, 5]]")
    done = run_cli("workspace", "--geometry", str(fixtures_dir / "g0.json"),
                   "--resolution", "40", "--prescribed", str(points),
                   "--out", str(tmp_path / "grid.txt"))
    assert done.returncode == 0, done.stderr
    assert "coverage=0" in done.stdout.splitlines()
    assert "Warning" not in done.stderr


def test_workspace_refuses_a_bad_points_file_before_scanning(capsys, fixtures_dir, tmp_path):
    points = tmp_path / "points.json"
    points.write_text("[]")
    code = app(["workspace", "--geometry", str(fixtures_dir / "g0.json"),
                "--out", str(tmp_path / "grid.txt"), "--resolution", "25",
                "--prescribed", str(points)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"ValueError: prescribed file {points}: ")
    assert "scanning" not in captured.err
    assert not (tmp_path / "grid.txt").exists()


def test_optimize_is_reproducible(capsys, fixtures_dir, tmp_path):
    argv = ["optimize", "--bounds", str(fixtures_dir / "bounds.json"),
            "--prescribed", str(fixtures_dir / "prescribed_mixed10.json"),
            "--config", str(fixtures_dir / "ga_small.json")]
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert app(argv + ["--out", str(first)]) == 0
    out1 = kv(capsys.readouterr().out)
    assert app(argv + ["--out", str(second)]) == 0
    out2 = kv(capsys.readouterr().out)
    assert first.read_bytes() == second.read_bytes()
    assert out1 == out2
    assert {"best_fitness", "coverage", "f", "e", "rf", "re"} <= out1.keys()
    report = json.loads(first.read_text(encoding="utf-8"))
    assert report["config"]["seed"] == 7

    third = tmp_path / "c.json"
    assert app(argv + ["--seed", "9", "--out", str(third)]) == 0
    capsys.readouterr()
    assert third.read_bytes() != first.read_bytes()
    assert json.loads(third.read_text(encoding="utf-8"))["config"]["seed"] == 9


def out_in_a_missing_directory(command, fixtures, out):
    """argv for command on the fixtures, writing to out."""
    inputs = {
        "workspace": ["--geometry", "g0.json", "--resolution", "25"],
        "optimize": ["--bounds", "bounds.json", "--prescribed", "recovery_points.json"],
        "plan": ["--geometry", "g0.json", "--program", "programs/line100.json"],
    }[command]
    return [command, *(str(fixtures / v) if v.endswith(".json") else v for v in inputs),
            "--out", str(out)]


@pytest.mark.parametrize("command", ["workspace", "optimize", "plan"])
def test_an_unwritable_out_fails_before_any_work(capsys, fixtures_dir, tmp_path, command):
    out = tmp_path / "missing" / "out"
    assert app(out_in_a_missing_directory(command, fixtures_dir, out)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    # The error alone: no scan, GA or plan note before it.
    assert captured.err.splitlines() == [f"FileNotFoundError: [Errno 2] No such file or "
                                         f"directory: '{out}'"]
    assert list(tmp_path.iterdir()) == []


def test_a_failed_command_keeps_an_existing_out_as_it_was(capsys, fixtures_dir, tmp_path):
    out = tmp_path / "stream.csv"
    out.write_bytes(b"kept")
    assert app(["plan", "--geometry", str(fixtures_dir / "g0.json"),
                "--program", str(fixtures_dir / "programs/line100.json"),
                "--tick", "1e-12", "--out", str(out)]) == 2
    capsys.readouterr()
    assert out.read_bytes() == b"kept"


def test_plan_reproduces_the_golden_stream(capsys, fixtures_dir, tmp_path):
    out = tmp_path / "stream.csv"
    code = app(["plan", "--geometry", str(fixtures_dir / "g0.json"),
                "--program", str(fixtures_dir / "programs/line100.json"),
                "--out", str(out)])
    assert code == 0
    values = kv(capsys.readouterr().out)
    assert values["samples"] == "59"
    assert out.read_bytes() == (fixtures_dir / "line100_stream.csv").read_bytes()


def plan_contours(second: dict) -> str:
    """A two-contour program whose second contour is second."""
    first = {"start": [0, 0], "z_plane": -300, "segments": [{"type": "line", "end": [10, 0]}]}
    return json.dumps({"contours": [first, {"start": [60, 0], "z_plane": -300, **second}]})


@pytest.mark.parametrize("second, code, text", [
    ({"segments": [{"type": "arc", "end": [50, 0], "center": [0, 0]}]}, 2,
     "ValueError: contour 1 segment 0: arc start/end radii differ by 1.000e+01 mm "
     "(start r=60.0, end r=50.0)"),
    ({"segments": [{"type": "line", "end": [60, 10]}, {"type": "line", "end": [60, 10]}]}, 2,
     "ValueError: contour 1 segment 1: zero-length line segment"),
    ({"feed": 900, "segments": [{"type": "line", "end": [60, 10]}]}, 1,
     "InvalidFeed: contour 1: feed 900.0 exceeds v_max 800.0"),
    ({"segments": [{"type": "arc", "end": [60, 0], "center": [60, 0]}]}, 2,
     "ValueError: contour 1 segment 0: arc radius must be positive"),
])
def test_plan_errors_name_the_contour_and_segment(capsys, fixtures_dir, tmp_path,
                                                  second, code, text):
    program = tmp_path / "program.json"
    program.write_text(plan_contours(second), encoding="utf-8")
    assert app(["plan", "--geometry", str(fixtures_dir / "g0.json"), "--program", str(program),
                "--v-max", "800", "--out", str(tmp_path / "out.csv")]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == text


@pytest.mark.parametrize("option, need", [
    (["--tick", "1e-12"], "1.43478e+11 samples at tick 1e-12 s"),
    (["--tick", "5e-324"], "inf samples at tick 5e-324 s"),
    (["--a-max", "1e-300"], "8e+153 samples at tick 0.0025 s"),
])
def test_plan_over_the_sample_budget_is_a_usage_error(capsys, fixtures_dir, tmp_path,
                                                      option, need):
    out = tmp_path / "out.csv"
    assert app(["plan", "--geometry", str(fixtures_dir / "g0.json"),
                "--program", str(fixtures_dir / "programs/line100.json"),
                "--out", str(out), *option]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.splitlines()[-1] == (
        f"ValueError: program needs {need}, budget is {SAMPLE_BUDGET}")


def test_plan_with_a_zero_tick_is_a_usage_error(capsys, fixtures_dir, tmp_path):
    out = tmp_path / "out.csv"
    assert app(["plan", "--geometry", str(fixtures_dir / "g0.json"),
                "--program", str(fixtures_dir / "programs/line100.json"),
                "--out", str(out), "--tick", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == "ValueError: tick must be positive, got 0.0\n"


def test_optimize_over_the_population_budget_is_a_usage_error(capsys, fixtures_dir, tmp_path):
    # GaConfig admits populations up to 2**32; run_ga refuses them before it
    # allocates a genome, where it once died allocating 128 GiB.
    config = tmp_path / "ga.json"
    config.write_text(json.dumps({"population_size": 2 ** 32, "generations": 0}))
    out = tmp_path / "out.json"
    assert app(["optimize", "--bounds", str(fixtures_dir / "bounds.json"),
                "--prescribed", str(fixtures_dir / "recovery_points.json"),
                "--config", str(config), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert "Traceback" not in captured.err
    assert captured.err.splitlines()[-1] == (
        f"ValueError: population_size is {2 ** 32}, budget is {design_opt.POPULATION_BUDGET}")


def test_optimize_with_a_penalty_weight_of_one_or_more_is_a_usage_error(
        capsys, fixtures_dir, tmp_path):
    # At weight 10 a penalty pushed every assemblable genome below the -1.0
    # of the unassemblable ones: the GA wrote "best": null and exited 0.
    config = tmp_path / "ga.json"
    config.write_text(json.dumps({"population_size": 20, "generations": 5,
                                  "size_penalty_weight": 10}))
    out = tmp_path / "out.json"
    assert app(["optimize", "--bounds", str(fixtures_dir / "bounds.json"),
                "--prescribed", str(fixtures_dir / "recovery_points.json"),
                "--config", str(config), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.splitlines()[-1] == (
        f"ValueError: config file {config}: size_penalty_weight must be in [0, 1)")


def test_plan_past_the_float_range_is_a_usage_error(capsys, fixtures_dir, tmp_path):
    # Three motions need only a few samples, but the third starts at 2e308 s.
    out = tmp_path / "out.csv"
    assert app(["plan", "--geometry", str(fixtures_dir / "g0.json"),
                "--program", str(fixtures_dir / "programs/multi.json"),
                "--out", str(out), "--tick", "1e308"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.splitlines()[-1] == (
        "ValueError: program end time overflows the float range at tick 1e+308 s")


def test_plan_of_an_overflowing_segment_is_a_usage_error(capsys, fixtures_dir, tmp_path):
    # The segment's length, 2e308 mm, overflows to inf.
    program = tmp_path / "wide.json"
    program.write_text(json.dumps({"contours": [{
        "start": [-1e308, 0], "z_plane": -300,
        "segments": [{"type": "line", "end": [1e308, 0]}]}]}))
    out = tmp_path / "out.csv"
    assert app(["plan", "--geometry", str(fixtures_dir / "g0.json"),
                "--program", str(program), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert "Traceback" not in captured.err
    assert captured.err.splitlines()[-1] == (
        "ValueError: contour 0 segment 0: path_length must be positive, got inf")


def test_plan_of_a_far_off_pose_prints_no_warning(fixtures_dir, tmp_path):
    # x = 1e200 mm squares to inf in the plane cut, which counts as a miss.
    program = tmp_path / "far.json"
    program.write_text(json.dumps({"contours": [{
        "start": [1e200, 0], "z_plane": -300,
        "segments": [{"type": "line", "end": [1e200, 1]}]}]}))
    out = tmp_path / "out.csv"
    done = run_cli("plan", "--geometry", str(fixtures_dir / "g0.json"),
                   "--program", str(program), "--out", str(out))
    assert done.returncode == 1
    note, *rest = done.stderr.splitlines()
    assert note.startswith("limits: ")
    # After the limits note, stderr is the one error line.
    assert len(rest) == 1 and rest[0].startswith("UnreachableSample: sample at t=0s")
    assert rest[0].endswith("unreachable by arm 1")
    assert not out.exists()


def test_unreachable_sample_line_is_short_and_exact(capsys, fixtures_dir, tmp_path):
    # Fixed-point text would print x = 1e200 mm with 201 digits.
    program = tmp_path / "far.json"
    program.write_text(json.dumps({"contours": [{
        "start": [1e200, 0], "z_plane": -300,
        "segments": [{"type": "line", "end": [1e200, 1]}]}]}))
    assert app(["plan", "--geometry", str(fixtures_dir / "g0.json"),
                "--program", str(program), "--out", str(tmp_path / "out.csv")]) == 1
    line = capsys.readouterr().err.splitlines()[-1]
    assert len(line) < 200
    match = re.fullmatch(r"UnreachableSample: sample at t=(\S+)s pose=\((\S+), (\S+), (\S+)\) "
                         r"unreachable by arm 1", line)
    assert match is not None, line
    assert [float(v).hex() for v in match.groups()] == [
        v.hex() for v in (0.0, 1e200, 0.0, -300.0)]


def test_simulate_nominal_and_faulted(capsys, fixtures_dir, tmp_path):
    stream = str(fixtures_dir / "line100_stream.csv")
    trace = tmp_path / "trace.txt"
    code = app(["simulate", "--stream", stream, "--out", str(trace)])
    assert code == 0
    values = kv(capsys.readouterr().out)
    assert values["status"] == "complete"
    assert values["final_tick"] == "58"
    assert values["final_pose"].split() == ["50", "0", "-300"]
    assert "failed" not in values

    code = app(["simulate", "--stream", stream,
                "--faults", str(fixtures_dir / "faults_motion20.json"),
                "--out", str(trace)])
    assert code == 1
    values = kv(capsys.readouterr().out)
    assert values["status"] == "aborted"
    assert values["failed"] == "motion"
    golden = (fixtures_dir / "trace_motion_trip.txt").read_bytes()
    assert trace.read_bytes() == golden


def test_plan_then_simulate_pipeline(capsys, fixtures_dir, tmp_path):
    stream = tmp_path / "multi.csv"
    trace = tmp_path / "multi_trace.txt"
    assert app(["plan", "--geometry", str(fixtures_dir / "g0.json"),
                "--program", str(fixtures_dir / "programs/multi.json"),
                "--out", str(stream)]) == 0
    capsys.readouterr()
    assert app(["simulate", "--stream", str(stream),
                "--out", str(trace)]) == 0
    values = kv(capsys.readouterr().out)
    assert values["status"] == "complete"
    assert "run_complete" in trace.read_text(encoding="utf-8")


def test_help_states_units_and_limits(capsys):
    for argv in (["plan", "--help"], ["--help"]):
        with pytest.raises(SystemExit) as info:
            app(argv)
        assert info.value.code == 0
        text = capsys.readouterr().out
        assert "mm" in text
        assert "23000" in text
        assert "0.0025" in text


def test_corrupt_stream_is_a_usage_error(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("t,x,y\n0,1,2\n", encoding="utf-8")
    code = app(["simulate", "--stream", str(bad),
                "--out", str(tmp_path / "trace.txt")])
    assert code == 2  # a malformed stream is a file-format error, not a crash
    assert "InvalidStream" in capsys.readouterr().err


def test_stream_with_a_non_utf8_byte_names_the_file_and_line(capsys, fixtures_dir, tmp_path):
    lines = (fixtures_dir / "line100_stream.csv").read_bytes().split(b"\n")
    fields = lines[4].split(b",")
    fields[5] = b"\xff" + fields[5]  # theta2 of the fourth sample, line 5
    lines[4] = b",".join(fields)
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"\n".join(lines))
    code = app(["simulate", "--stream", str(bad), "--out", str(tmp_path / "trace.txt")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"InvalidStream: stream file {bad}: line 5: could not convert")
    assert "Traceback" not in err and "UnicodeDecodeError" not in err


@pytest.mark.parametrize("base, flag, content, field", [
    (["optimize", "--prescribed", "prescribed_mixed10.json"], "--bounds",
     '{"f": [null, 1], "e": [40, 300], "rf": [60, 400], "re": [150, 700]}', "f bounds"),
    (["simulate", "--stream", "line100_stream.csv"], "--config",
     '{"processes": 5}', "processes"),
    (["plan", "--geometry", "g0.json"], "--program", '{"contours": 3}', "contours"),
    (["simulate", "--stream", "line100_stream.csv"], "--config",
     '{"timeout": ', "invalid JSON"),
    (["simulate", "--stream", "line100_stream.csv"], "--faults",
     '{"windows": [', "invalid JSON"),
    (["optimize", "--prescribed", "prescribed_mixed10.json", "--bounds", "bounds.json"],
     "--config", '{"crossover_rate": null}', "crossover_rate"),
    (["optimize", "--prescribed", "prescribed_mixed10.json", "--bounds", "bounds.json"],
     "--config", '{"seed": true}', "seed"),
    (["plan", "--geometry", "g0.json"], "--program",
     '{"contours": [{"start": [0, 0], "z_plane": -300, "segments": [5]}]}', "segment 0"),
    (["optimize", "--prescribed", "prescribed_mixed10.json", "--bounds", "bounds.json"],
     "--config", '{"size_penalty_weight": Infinity, "population_size": 4, "generations": 1}',
     "size_penalty_weight"),
    (["simulate", "--stream", "line100_stream.csv"], "--config",
     '{"processes": [{"name": "log\\tging", "severity": "advisory"}]}', "process 0"),
    (["simulate", "--stream", "line100_stream.csv"], "--faults",
     '[{"process_name": "mo\\ttion", "start_tick": 5, "end_tick": 9}]', "window 0"),
    (["simulate", "--stream", "line100_stream.csv"], "--config",
     '{"processes": [{"name": "", "severity": "advisory"}]}',
     "process 0: process name must be a non-empty string"),
    (["simulate", "--stream", "line100_stream.csv"], "--faults",
     '[{"process_name": "", "start_tick": 5, "end_tick": 9}]',
     "window 0: process_name must be a non-empty string"),
    (["optimize", "--prescribed", "prescribed_mixed10.json", "--bounds", "bounds.json"],
     "--config", '{"population_size": 12, "tournament_size": 13}',
     "tournament_size must be in [1, population_size]"),
    (["optimize", "--prescribed", "prescribed_mixed10.json", "--bounds", "bounds.json"],
     "--config", '{"mutation_sigma_fraction": 0}', "mutation_sigma_fraction must be in (0, 1]"),
    # An integer beyond the float range is not a finite number.
    (["plan", "--program", "programs/line100.json"], "--geometry",
     '{"f": 1%s, "e": 100, "rf": 150, "re": 350}' % ("0" * 400), "f must be a finite number"),
    (["plan", "--geometry", "g0.json"], "--program",
     '{"contours": [{"start": [50, 0], "z_plane": -300, "segments": [{"type": "arc", '
     '"end": [50, 0], "center": [0, 0], "direction": "clockwise"}]}]}',
     "arc direction must be 'cw' or 'ccw', got 'clockwise'"),
    (["simulate"], "--stream", "", "is empty"),
])
def test_malformed_input_file_is_a_usage_error(capsys, fixtures_dir, tmp_path,
                                               base, flag, content, field):
    bad = tmp_path / "bad.json"
    bad.write_text(content, encoding="utf-8")
    argv = [base[0]]
    for option, fixture in zip(base[1::2], base[2::2]):
        argv += [option, str(fixtures_dir / fixture)]
    argv += [flag, str(bad), "--out", str(tmp_path / "out")]
    assert app(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("InvalidStream: " if flag == "--stream" else "ValueError: ")
    assert str(bad) in captured.err
    assert field in captured.err


def test_bad_geometry_file_names_the_file_and_field(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"f": null, "e": 100, "rf": 150, "re": 350}', encoding="utf-8")
    assert app(["ik", "--geometry", str(bad), "0", "0", "-300"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"ValueError: geometry file {bad}: f ")


FK_GOLDEN = load_fixture("fk_golden.json")


def command_inputs() -> dict:
    """The input files of the COMMANDS table, by name."""
    rows = (FIXTURES / "line100_stream.csv").read_text(encoding="utf-8").splitlines()
    assert rows[4].startswith("0.00")
    edited = {
        # CRLF endings take np.loadtxt's pass; a digit underscore, which only
        # float() takes, the line by line one.  Both give one trace.
        "crlf.csv": [row + "\r" for row in rows],
        "underscore.csv": rows[:4] + ["0.0_0" + rows[4][4:]] + rows[5:],
        "nan.csv": rows[:4] + ["nan" + rows[4][rows[4].index(","):]] + rows[5:],
        "header.csv": rows[:1],
    }
    circle = {"start": [50, 0], "z_plane": -300, "feed": 300,
              "segments": [{"type": "arc", "end": [50, 0], "center": [0, 0]}]}
    return {
        **{name: "".join(row + "\n" for row in lines) for name, lines in edited.items()},
        # The scan runs the kernel on these points' cells; three of them
        # leave their pairs open to it.
        "open_pairs.json": "[[0,0,-300],[-3,-273,0],[0,0,50],[-320,-100,-290],"
                           "[200,0,1],[0,300,-20]]",
        "circles.json": json.dumps({"contours": [circle] * 8}),
        "fk_geometry.json": json.dumps(FK_GOLDEN["geometry"]),
    }


def fk_argv(thetas) -> str:
    return "fk --geometry {tmp}/fk_geometry.json -- " + " ".join(map(repr, thetas))


def ik_unreachable(pose, message):
    """deltacut ik of a g0 pose it cannot reach: exit 1, naming arm and reason."""
    return [("ik --geometry {fx}/g0.json -- " + pose, 1,
             {"stderr": ["Unreachable: " + message]})]


def trip(stream):
    """simulate of a copy of line100_stream.csv under the motion fault, which
    stops it at its tick 25 with the golden trace."""
    return [(f"simulate --stream {stream} --faults {{fx}}/faults_motion20.json "
             "--out {tmp}/trace.txt", 1,
             {"stdout": ["status=aborted", "failed=motion", "final_tick=25",
                         "final_pose=-9.2391304347826093 0 -300"],
              "out": "trace_motion_trip.txt"})]


# Each case runs its commands in order, in a directory that holds
# command_inputs(); in an argument, {fx} is the fixtures directory and {tmp}
# that directory.  A command exits with its code, and its expectations are:
# "stdout", lines among those it prints; "stderr", all it prints there; "out",
# the fixture its --out file equals byte for byte; "pose", the three numbers
# it prints, each to within 1e-9.
COMMANDS = {
    "frozen_scan": [("workspace --geometry {fx}/g0.json --bounds -300 300 -300 300 -550 -50 "
                     "--resolution 10 --prescribed {fx}/prescribed_mixed10.json "
                     "--out {tmp}/grid.txt", 0,
                     {"stdout": ["cells=83276", "total=180000",
                                 "coverage=0.69999999999999996"]})],
    # The 10 mm box across the base plane runs the kernel alone on its cells
    # above the plane.
    "plane_scan": [("workspace --geometry {fx}/g0.json --bounds -300 300 -300 300 -550 50 "
                    "--resolution 10 --out {tmp}/grid.txt", 0,
                    {"stdout": ["cells=83762", "total=216000"]})],
    # The 6 mm default scan runs it on its top layer, centred at z = +1 mm,
    # and on the cells within the closed forms' rounding bound of a run end.
    "default_scan": [("workspace --geometry {fx}/g0.json --resolution 6 "
                      "--prescribed {tmp}/open_pairs.json --out {tmp}/grid.txt", 0,
                      {"stdout": ["cells=450406", "total=3360000", "coverage=0.5"]})],
    # Each of the 6,400 columns of this 0.5 mm box holds a run end, so cell
    # centres sit a fraction of a cell from one; 178 are within that bound.
    "fine_scan": [("workspace --geometry {fx}/g0.json --bounds -20 20 -20 20 -500 -485 "
                   "--resolution 0.5 --out {tmp}/grid.txt", 0,
                   {"stdout": ["cells=102106", "total=192000"]})],
    "ga_small": [("optimize --bounds {fx}/bounds.json --prescribed {fx}/recovery_points.json "
                  "--config {fx}/ga_small.json --out {tmp}/ga.json", 0,
                  {"out": "ga_small_result.json"})],
    "ga_default": [("optimize --bounds {fx}/bounds.json --prescribed {fx}/recovery_points.json "
                    "--seed 7 --out {tmp}/ga.json", 0, {"out": "ga_default_result.json"})],
    "plan_circle50": [("plan --geometry {fx}/g0.json --program {fx}/programs/circle50.json "
                       "--out {tmp}/stream.csv", 0, {"out": "circle50_stream.csv"})],
    "plan_multi": [("plan --geometry {fx}/g0.json --program {fx}/programs/multi.json "
                    "--out {tmp}/stream.csv", 0, {"out": "multi_stream.csv"})],
    "simulate_circle50": [("simulate --stream {fx}/circle50_stream.csv --out {tmp}/trace.txt",
                           0, {"stdout": ["status=complete"]})],
    "simulate_multi": [("simulate --stream {fx}/multi_stream.csv --out {tmp}/trace.txt",
                        0, {"stdout": ["status=complete"]})],
    "crlf_stream": trip("{tmp}/crlf.csv"),
    "underscore_stream": trip("{tmp}/underscore.csv"),
    "header_only_stream": [("simulate --stream {tmp}/header.csv --out {tmp}/trace.txt", 2,
                            {"stderr": ["InvalidStream: stream file {tmp}/header.csv "
                                        "has no samples"]})],
    "nan_stream": [("simulate --stream {tmp}/nan.csv --out {tmp}/trace.txt", 2,
                    {"stderr": ["InvalidStream: stream file {tmp}/nan.csv: line 5: "
                                "t must be finite, got nan"]})],
    # The golden streams fit in one block of STREAM_BLOCK_ROWS (2,048)
    # samples; eight circles take 3,408, so plan and simulate cross an edge.
    "eight_circles": [
        ("plan --geometry {fx}/g0.json --program {tmp}/circles.json --out {tmp}/circles.csv",
         0, {"stdout": ["samples=3408"]}),
        ("simulate --stream {tmp}/circles.csv --out {tmp}/trace.txt", 0,
         {"stdout": ["status=complete", "final_tick=3407"]})],
    **{f"fk_golden_{i}": [(fk_argv(case["thetas"]), 0, {"pose": case["pose"]})]
       for i, case in enumerate(FK_GOLDEN["cases"])},
    "fk_singular": [(fk_argv(FK_GOLDEN["singular"]), 1, {"stderr": [
        "Singular: shifted sphere centres are collinear or coincident"]})],
    "fk_no_solution": [(fk_argv(FK_GOLDEN["no_solution"]), 1, {"stderr": [
        "NoSolution: forearm spheres share no common point"]})],
    # One pose per entry of kinematics.REASONS, and two on arms 2 and 3.
    "ik_plane": ik_unreachable("1000 0 -300",
                               "arm 1: forearm sphere does not reach the arm plane"),
    "ik_coincident": ik_unreachable("0 -70 0",
                                    "arm 1: platform joint coincides with the arm pivot"),
    "ik_knee_circle": ik_unreachable("0 0 -800",
                                     "arm 1: knee circle does not meet the forearm circle"),
    "ik_knee_angle": ik_unreachable("-223 -224 -66",
                                    "arm 1: knee angle outside the canonical branch"),
    "ik_arm2_knee_circle": ik_unreachable("119 -288 -409",
                                          "arm 2: knee circle does not meet the forearm circle"),
    "ik_arm3_knee_angle": ik_unreachable("112 -288 224",
                                         "arm 3: knee angle outside the canonical branch"),
}


@pytest.mark.parametrize("case", list(COMMANDS))
def test_command_line_table(capsys, tmp_path, case):
    for name, text in command_inputs().items():
        (tmp_path / name).write_bytes(text.encode("utf-8"))
    for argv, code, expect in COMMANDS[case]:
        args = [arg.format(fx=FIXTURES, tmp=tmp_path) for arg in argv.split()]
        assert app(args) == code
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert set(expect.get("stdout", ())) <= set(lines), lines
        if "stderr" in expect:
            assert captured.err.splitlines() == [line.format(tmp=tmp_path)
                                                 for line in expect["stderr"]]
        if "out" in expect:
            out = Path(args[args.index("--out") + 1])
            assert out.read_bytes() == (FIXTURES / expect["out"]).read_bytes()
        if "pose" in expect:
            got = [float(v) for v in captured.out.split()]
            assert len(got) == 3
            assert max(abs(g - w) for g, w in zip(got, expect["pose"])) < 1e-9, got
