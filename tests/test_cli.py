import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
    assert len(rest) == 1 and rest[0].startswith("UnreachableSample: sample at t=0.000000s")
    assert rest[0].endswith("unreachable by arm 1")
    assert not out.exists()


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
    assert code == 1  # malformed stream is a domain failure, not a crash
    assert "InvalidStream" in capsys.readouterr().err


def test_stream_with_a_non_utf8_byte_names_the_file_and_line(capsys, fixtures_dir, tmp_path):
    lines = (fixtures_dir / "line100_stream.csv").read_bytes().split(b"\n")
    fields = lines[4].split(b",")
    fields[5] = b"\xff" + fields[5]  # theta2 of the fourth sample, line 5
    lines[4] = b",".join(fields)
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"\n".join(lines))
    code = app(["simulate", "--stream", str(bad), "--out", str(tmp_path / "trace.txt")])
    assert code == 1
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
    assert captured.err.startswith("ValueError: ")
    assert str(bad) in captured.err
    assert field in captured.err


def test_bad_geometry_file_names_the_file_and_field(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"f": null, "e": 100, "rf": 150, "re": 350}', encoding="utf-8")
    assert app(["ik", "--geometry", str(bad), "0", "0", "-300"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"ValueError: geometry file {bad}: f ")
