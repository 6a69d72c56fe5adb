"""One workload pass in a fresh process: set-up, the command chain, output checks.

    python3 perfbench/worker.py SPEC.json

SPEC names the package source directory, the generated input files, a
scratch directory, the seed, the stage sizes and three switches: `setup_only`
(stop after set-up), `trace` (record spans and derive the per-layer metrics)
and `replay` (also run the costlier replay checks).  The last line of
standard output is one JSON object with the pass's timings, counts, output
digests and failures.

Set-up is `import deltacut` plus parsing every input file with the package
loaders.  The pass then runs the chain a user runs, one command after
another: optimize, random search, workspace, grid load, plan, validate,
simulate, simulate with faults.  CLI commands run in-process through
`deltacut.cli.app` with stdout captured; stages without a command call the
library.  Output checks run between stages and are not timed.

Every stage is timed on the wall clock and bracketed by two readings of the
speed probe (probe.py).  The pass reports each stage's time divided by the
mean of its two readings, and the raw wall time beside it; set-up likewise,
with the pure-Python part of the probe.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import probe
import spans

# Stage name -> span name of the call the benchmark makes for it.
STAGES = {
    "optimize": "cli.optimize",
    "random_search": "design_opt.random_search",
    "workspace": "cli.workspace",
    "grid_load": "workspace.load_grid",
    "plan": "cli.plan",
    "validate": "trajectory.validate_stream",
    "simulate": "cli.simulate",
    "simulate_faults": "cli.simulate_faults",
}

FINDING_KINDS = ("speed", "accel", "unreachable", "ik_residual")
SPOT_CHECK_CELLS = 400


class Pass:
    """Timings, counts, digests and failures of one pass."""

    def __init__(self, tracer: spans.Tracer | None):
        self.tracer = tracer
        self.timings: dict[str, float] = {}
        self.raw_timings: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.digests: dict[str, str] = {}
        self.errors: list[str] = []
        self.failed_ops: set[str] = set()
        self.attempted = 0

    def fail(self, op: str, message: str) -> None:
        self.failed_ops.add(op)
        self.errors.append(f"{op}: {message}")

    def check(self, op: str, ok: bool, message: str) -> None:
        if not ok:
            self.fail(op, message)

    def call(self, span_name: str, fn, *args):
        """Call into the package, inside a span when tracing."""
        if self.tracer is None:
            return fn(*args)
        return self.tracer.call(span_name, fn, *args)

    def stage(self, stage: str, fn, *args):
        """Run and time one operation; None if it raised."""
        self.attempted += 1
        result = None
        before = probe.speed()
        start = time.perf_counter()
        try:
            result = self.call(STAGES[stage], fn, *args)
        except Exception as exc:  # any failure of the program counts; the pass goes on
            self.fail(stage, f"{type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - start
        self.raw_timings[stage] = elapsed
        self.timings[stage] = elapsed / ((before + probe.speed()) / 2.0)
        return result

    def command(self, stage: str, app, argv: list[str]) -> dict[str, str]:
        """Run one CLI command in-process; return its stdout key=value pairs."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.stage(stage, app, argv)
        if code is not None:
            self.check(stage, code == 0, f"exit code {code}: {err.getvalue()[-400:]}")
        return dict(line.split("=", 1) for line in out.getvalue().splitlines() if "=" in line)

    def digest(self, name: str, path: Path) -> bytes:
        data = path.read_bytes() if path.exists() else b""
        self.digests[name] = hashlib.sha256(data).hexdigest()
        return data


def load_inputs(dc, inputs: dict, p: Pass) -> dict:
    """Parse every input file with the package loaders (the set-up work)."""
    loaders = {
        "geometry": ("geometry.load_geometry", dc.load_geometry),
        "bounds": ("design_opt.load_bounds", dc.load_bounds),
        "ga_config": ("design_opt.load_ga_config", dc.load_ga_config),
        "points": ("workspace.load_prescribed", dc.load_prescribed),
        "program": ("trajectory.load_program", dc.load_program),
        "faults": ("control_sim.load_fault_script", dc.load_fault_script),
    }
    return {key: p.call(span, fn, inputs[key]) for key, (span, fn) in loaders.items()}


def capture_streams(dc, store: dict) -> None:
    """Keep the stream `plan` writes and the stream `simulate` reads back."""
    traj = dc.trajectory
    write, read = traj.write_stream_csv, traj.read_stream_csv

    def write_kept(stream, path):
        store["planned"] = stream
        return write(stream, path)

    def read_kept(path):
        store["read_back"] = read(path)
        return store["read_back"]

    traj.write_stream_csv = write_kept
    traj.read_stream_csv = read_kept


def install_tracing(tracer: spans.Tracer) -> None:
    """Wrap the package names the CLI commands and the cross-layer calls use."""
    from deltacut import cli, control_sim, design_opt, trajectory, workspace

    def tally(key, amount):
        def count(counts, args, result):
            counts[key] += amount(args, result)
        return count

    def simulate_count(counts, args, result):
        faults = args[2] if len(args) > 2 else None
        suffix = "_faulted" if faults is not None and faults.windows else ""
        counts["control_sim.ticks" + suffix] += result.final_tick + 1
        counts["control_sim.fault_windows" + suffix] += len(faults.windows) if faults else 0
        counts["control_sim.trips" + suffix] += sum(e.kind == "watchdog_trip" for e in result.trace)
        counts["control_sim.trace_events" + suffix] += len(result.trace)

    infeasible = design_opt.INFEASIBLE_FITNESS
    tracer.wrap_peak(workspace, "compute_workspace", "workspace.compute_workspace")
    wraps = [
        (cli, "load_geometry", "geometry.load_geometry", None),
        (workspace, "compute_workspace", "workspace.compute_workspace",
         tally("workspace.scan_cells", lambda a, r: r.occupancy.size)),
        (workspace, "dump_grid", "workspace.dump_grid",
         tally("workspace.dump_cells", lambda a, r: a[0].occupancy.size)),
        (workspace, "volume_estimate", "workspace.volume_estimate", None),
        (workspace, "coverage", "workspace.coverage", None),
        (workspace, "load_prescribed", "workspace.load_prescribed", None),
        (design_opt, "load_bounds", "design_opt.load_bounds", None),
        (design_opt, "load_ga_config", "design_opt.load_ga_config", None),
        (design_opt, "run_ga", "design_opt.run_ga", None),
        (design_opt, "candidate_fitness", "design_opt.candidate_fitness",
         tally("design_opt.infeasible", lambda a, r: int(r == infeasible))),
        (design_opt, "coverage", "workspace.coverage", None),
        (trajectory, "load_program", "trajectory.load_program", None),
        (trajectory, "build_motions", "trajectory.build_motions",
         tally("trajectory.motions", lambda a, r: len(r))),
        (trajectory, "plan_program", "trajectory.plan_program",
         tally("trajectory.samples", lambda a, r: len(r))),
        (trajectory, "write_stream_csv", "trajectory.write_stream_csv",
         tally("trajectory.csv_rows_written", lambda a, r: len(a[0]))),
        (trajectory, "read_stream_csv", "trajectory.read_stream_csv",
         tally("trajectory.csv_rows_read", lambda a, r: len(r))),
        (trajectory, "inverse_kinematics", "kinematics.inverse_kinematics", None),
        (control_sim, "load_fault_script", "control_sim.load_fault_script", None),
        (control_sim, "simulate", "control_sim.simulate", simulate_count),
        (control_sim, "write_trace", "control_sim.write_trace", None),
    ]
    for module, attr, name, count in wraps:
        tracer.wrap(module, attr, name, count)


def run_chain(dc, spec: dict, data: dict, p: Pass) -> None:
    """The command chain of one pass, with its per-pass output checks."""
    paths = spec["inputs"]
    work = Path(spec["work"])
    seed = spec["seed"]
    sizes = spec["sizes"]
    streams: dict = {}
    capture_streams(dc, streams)
    if p.tracer is not None:
        install_tracing(p.tracer)
    geometry = data["geometry"]

    # design_opt: the GA through the CLI, then random search on the same budget.
    result_path = work / "ga_result.json"
    out = p.command("optimize", dc.cli.app, [
        "optimize", "--bounds", paths["bounds"], "--prescribed", paths["points"],
        "--config", paths["ga_config"], "--seed", str(seed), "--out", str(result_path)])
    budget = sizes["ga_population"] * (sizes["ga_generations"] + 1)
    report = json.loads(p.digest("ga_result", result_path) or b"{}")
    p.counts["design_opt.evaluations"] = report.get("evaluations", -1)
    p.check("optimize", report.get("evaluations") == budget
            and report.get("config", {}).get("seed") == seed
            and "best_fitness" in out, "result file does not match the run")
    found = p.stage("random_search", dc.random_search, data["bounds"], data["points"],
                    budget, data["ga_config"].size_penalty_weight, seed)
    if found is not None:
        genome, fit = found
        text = json.dumps([None if genome is None else genome.tolist(), fit])
        p.digests["random_search"] = hashlib.sha256(text.encode()).hexdigest()
        p.check("random_search", genome is not None and -1.0 < fit <= 1.0,
                f"best fitness {fit} outside (-1, 1]")

    # workspace: scan and dump through the CLI, then load the dump back.
    grid_path = work / "grid.txt"
    out = p.command("workspace", dc.cli.app, [
        "workspace", "--geometry", paths["geometry"], "--out", str(grid_path),
        "--resolution", repr(sizes["scan_resolution"])])
    p.counts["workspace.cells"] = int(out.get("total", -1))
    p.counts["workspace.occupied_cells"] = int(out.get("cells", -1))
    grid = p.stage("grid_load", dc.load_grid, grid_path)
    raw = p.digest("grid", grid_path)
    if grid is not None:
        check_grid(dc, geometry, grid, raw, p, seed)
    del grid

    # trajectory: plan through the CLI, validate the planned stream.
    stream_path = work / "stream.csv"
    out = p.command("plan", dc.cli.app, [
        "plan", "--geometry", paths["geometry"], "--program", paths["program"],
        "--out", str(stream_path)])
    p.digest("stream", stream_path)
    planned = streams.get("planned")
    p.counts["trajectory.samples"] = -1 if planned is None else len(planned)
    p.check("plan", planned is not None and out.get("samples") == str(len(planned)),
            "printed sample count differs from the planned stream")
    report = None if planned is None else p.stage("validate", dc.validate_stream, geometry, planned)
    if report is not None:
        kinds = [v.kind for v in report.violations]
        p.counts["trajectory.validator_findings"] = len(kinds)
        for kind in FINDING_KINDS:
            p.counts[f"trajectory.validator_findings.{kind}"] = kinds.count(kind)

    # control_sim: nominal run, then the advisory fault script.
    trace_path = work / "trace.txt"
    out = p.command("simulate", dc.cli.app, [
        "simulate", "--stream", str(stream_path), "--out", str(trace_path)])
    read_back = streams.pop("read_back", None)
    check_read_back(planned, read_back, p)
    n = -1 if planned is None else len(planned)
    expected = f"{n - 1}\trun_complete\t\t{n} samples executed\n".encode()
    p.check("simulate", out.get("status") == "complete"
            and p.digest("trace", trace_path) == expected, "nominal run did not complete")

    faulted_path = work / "trace_faults.txt"
    out = p.command("simulate_faults", dc.cli.app, [
        "simulate", "--stream", str(stream_path), "--faults", paths["faults"],
        "--out", str(faulted_path)])
    trace = p.digest("trace_faults", faulted_path).decode()
    trips = trace.count("\twatchdog_trip\t")
    windows = len(data["faults"].windows)
    p.counts["control_sim.trips"] = trips
    p.counts["control_sim.fault_windows"] = windows
    p.check("simulate_faults", out.get("status") == "complete" and trips == windows,
            f"{trips} trips for {windows} advisory windows")
    if spec["replay"] and planned is not None:
        ok = dc.replay_check(dc.read_trace(faulted_path), planned, None, data["faults"])
        p.check("simulate_faults", ok, "replay_check failed on the faulted trace")


def check_grid(dc, geometry, grid, raw: bytes, p: Pass, seed: int) -> None:
    """Round trip and spot checks of the scan; untimed."""
    import numpy as np

    nx, ny, nz = grid.spec.dims
    p.check("grid_load", grid.occupancy.size == p.counts["workspace.cells"]
            and grid.occupied_count == p.counts["workspace.occupied_cells"],
            "loaded grid disagrees with the printed cell counts")
    # The dump parsed independently of load_grid: one '0'/'1' row per (z, y).
    body = raw[raw.index(b"\n") + 1:]
    rows = np.frombuffer(body, dtype=np.uint8)
    ok = rows.size == nz * ny * (nx + 1)
    if ok:
        rows = rows.reshape(nz * ny, nx + 1)
        ok = bool((rows[:, nx] == ord("\n")).all()) and np.array_equal(
            rows[:, :nx] == ord("1"), grid.occupancy.reshape(nz * ny, nx))
    p.check("grid_load", ok, "grid dump and loaded occupancy differ")
    # Seeded cells checked against the scalar solver, a separate code path.
    rng = np.random.default_rng(seed)
    for iz, iy, ix in zip(rng.integers(0, nz, SPOT_CHECK_CELLS),
                          rng.integers(0, ny, SPOT_CHECK_CELLS),
                          rng.integers(0, nx, SPOT_CHECK_CELLS)):
        pose = dc.Pose(*grid.spec.cell_center(int(ix), int(iy), int(iz)))
        if dc.is_reachable(geometry, pose) != bool(grid.occupancy[iz, iy, ix]):
            p.fail("workspace", f"cell {(ix, iy, iz)} disagrees with the scalar solver")
            break


def check_read_back(planned, read_back, p: Pass) -> None:
    """The CSV read back by simulate equals the planned arrays bit for bit."""
    import numpy as np

    ok = planned is not None and read_back is not None and all(
        np.array_equal(getattr(planned, f), getattr(read_back, f))
        for f in ("t", "poses", "joints", "laser"))
    p.check("simulate", ok, "stream read back from CSV differs from the planned stream")


def layer_metrics(tracer: spans.Tracer, p: Pass) -> dict[str, float]:
    """Per-layer metrics of one traced pass, keyed by BENCHMARK.json name."""
    calls, total, child, under = tracer.totals()
    counts = tracer.counts
    self_ns = {name: total[name] - child[name] for name in total}

    def per(ns: int, n: int, scale: float) -> float:
        return ns / scale / n if n else 0.0

    samples = counts["trajectory.samples"]
    ticks, ticks_f = counts["control_sim.ticks"], counts["control_sim.ticks_faulted"]
    evaluations = calls["design_opt.candidate_fitness"]
    cells = counts["workspace.scan_cells"]
    m = {
        "kinematics.ik_calls": calls["kinematics.inverse_kinematics"],
        "kinematics.ik_us": per(total["kinematics.inverse_kinematics"],
                                calls["kinematics.inverse_kinematics"], 1e3),
        "workspace.scan_cells": cells,
        "workspace.occupied_cells": p.counts["workspace.occupied_cells"],
        "workspace.scan_ns_per_cell": per(total["workspace.compute_workspace"], cells, 1.0),
        "workspace.scan_peak_bytes_per_cell":
            per(tracer.peaks.get("workspace.compute_workspace", 0), cells, 1.0),
        "workspace.dump_ns_per_cell": per(total["workspace.dump_grid"],
                                          counts["workspace.dump_cells"], 1.0),
        "workspace.load_ns_per_cell": per(total["workspace.load_grid"],
                                          p.counts["workspace.cells"], 1.0),
        "workspace.coverage_calls": calls["workspace.coverage"],
        "workspace.coverage_us": per(total["workspace.coverage"], calls["workspace.coverage"], 1e3),
        "design_opt.evaluations": evaluations,
        "design_opt.eval_us": per(total["design_opt.candidate_fitness"], evaluations, 1e3),
        "design_opt.infeasible_ratio": per(counts["design_opt.infeasible"], evaluations, 1.0),
        "design_opt.ga_self_s": self_ns.get("design_opt.run_ga", 0) / 1e9,
        "trajectory.samples": samples,
        "trajectory.motions": counts["trajectory.motions"],
        "trajectory.plan_us_per_sample": per(total["trajectory.plan_program"], samples, 1e3),
        "trajectory.plan_self_us_per_sample": per(self_ns.get("trajectory.plan_program", 0), samples, 1e3),
        "trajectory.csv_write_us_per_row": per(total["trajectory.write_stream_csv"],
                                               counts["trajectory.csv_rows_written"], 1e3),
        "trajectory.csv_read_us_per_row": per(total["trajectory.read_stream_csv"],
                                              counts["trajectory.csv_rows_read"], 1e3),
        "trajectory.validate_us_per_sample": per(total["trajectory.validate_stream"], samples, 1e3),
        "trajectory.validate_self_us_per_sample":
            per(self_ns.get("trajectory.validate_stream", 0), samples, 1e3),
        "control_sim.ticks": ticks + ticks_f,
        "control_sim.tick_us": per(under[("cli.simulate", "control_sim.simulate")], ticks, 1e3),
        "control_sim.tick_us_faulted":
            per(under[("cli.simulate_faults", "control_sim.simulate")], ticks_f, 1e3),
        "control_sim.fault_windows": counts["control_sim.fault_windows_faulted"],
        "control_sim.trips": counts["control_sim.trips"] + counts["control_sim.trips_faulted"],
        "control_sim.trace_events":
            counts["control_sim.trace_events"] + counts["control_sim.trace_events_faulted"],
        "geometry.load_ms": sum(ns for (parent, name), ns in under.items()
                                if parent == "setup" and ".load_" in name) / 1e6,
    }
    for kind in ("",) + tuple("." + k for k in FINDING_KINDS):
        key = "trajectory.validator_findings" + kind
        m[key] = p.counts.get(key, 0)
    for stage, span in STAGES.items():
        if span.startswith("cli."):
            m[f"cli.{stage}_self_ms"] = self_ns.get(span, 0) / 1e6
    return m


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    sys.path.insert(0, spec["src"])
    tracer = spans.Tracer() if spec["trace"] else None
    p = Pass(tracer)

    before = probe.python_speed()
    start = time.perf_counter()
    import deltacut as dc
    import deltacut.cli  # noqa: F401  (the CLI module is not imported by the package)
    if tracer is None:
        data = load_inputs(dc, spec["inputs"], p)
    else:
        data = tracer.call("setup", load_inputs, dc, spec["inputs"], p)
    setup_s = time.perf_counter() - start

    result = {"setup_s": setup_s / ((before + probe.python_speed()) / 2.0),
              "raw_setup_s": setup_s}
    if not spec["setup_only"]:
        run_chain(dc, spec, data, p)
        result.update(
            wall_s=sum(p.timings.values()),
            raw_wall_s=sum(p.raw_timings.values()),
            stages=p.timings,
            raw_stages=p.raw_timings,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            counts=p.counts,
            digests=p.digests,
            attempted=p.attempted,
            failed=len(p.failed_ops),
            errors=p.errors,
        )
        if tracer is not None:
            result["layers"] = layer_metrics(tracer, p)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
