"""deltacut benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload cut_job --seed 1 --seconds 35 --trace 0

Run from anywhere inside a source checkout; the package is imported from
`src/` next to this directory, and nothing needs installing.  The run writes
its inputs under `.perfbench_work/` at the checkout root and removes them when
it ends.

One run: generate the workload's input files from the seed, reproduce the
frozen fixtures once (untimed), then run workload passes one after another,
each in a fresh child process (see worker.py), until `--seconds` have passed
and at least MIN_PASSES passes ran.  Set-up is also measured in
SETUP_SAMPLES extra children that stop after set-up.  End-to-end metrics are
medians over passes of times taken at the speed probe's reference speed
(probe.py); the report prints the raw wall-clock medians beside them.  With
`--trace 1` every other pass records spans, and the run prints the per-layer
metrics plus the tracing overhead instead.  Metric names and units come from
BENCHMARK.json at the checkout root.

Standard output: a human-readable report, then, as the last line, one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Every workload runs the whole chain, because every metric is reported on
# every workload.  Each gives one layer its full size and keeps the other
# stages small, so each workload stresses a different layer:
#   design   the default GA, 50 x 100, and random search on the same budget,
#            on 200 interior points: thousands of small coverage() masks, bound
#            by per-call overhead.
#   scan     default g0 box at 6 mm, 3.36 M cells, ~760 MB peak: the same mask
#            on arrays far larger than the cache, memory-bound; grid text I/O.
#   cut_job  200 contours, ~38 k samples: scalar IK, stream CSV write and read,
#            tick-level simulation with and without 100 fault windows.
# Passes are kept at 3-4 s, so that a run holds 7-10 of them: run-to-run noise
# on a shared 2-vCPU machine is large (see README.md).
WORKLOADS = {
    "design": {"points": 200, "ga_population": 50, "ga_generations": 100,
               "scan_resolution": 12.5, "contours": 60, "fault_windows": 30},
    "scan": {"points": 200, "ga_population": 50, "ga_generations": 20,
             "scan_resolution": 6.0, "contours": 60, "fault_windows": 30},
    "cut_job": {"points": 200, "ga_population": 50, "ga_generations": 20,
                "scan_resolution": 12.5, "contours": 200, "fault_windows": 100},
}

_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}

# Per-unit figures measured when the roadmap was re-anchored (2 vCPU Xeon,
# Python 3.11.7, numpy 2.4.6, single runs), with the workload that runs the
# layer at the size they were taken on.  The faulted tick cost is not a
# constant: see faulted_tick_reference.
BASELINE = {
    "kinematics.ik_us": (15.0, "cut_job"),
    "workspace.coverage_us": (290.0, "design"),
    "trajectory.plan_us_per_sample": (12.7, "cut_job"),
    "trajectory.validate_us_per_sample": (13.4, "cut_job"),
    "trajectory.csv_write_us_per_row": (11.0, "cut_job"),
    "trajectory.csv_read_us_per_row": (10.0, "cut_job"),
    "control_sim.tick_us": (2.7, "cut_job"),
    "workspace.scan_peak_bytes_per_cell": (213.0, "scan"),
}



def faulted_tick_reference(windows: int) -> float:
    """Roadmap tick cost under `windows` fault windows, in us.

    Every pulse tick scans all windows, so the cost grows linearly with
    their number; the roadmap measured 2.7 us with none and 31.6 us with 200.
    """
    return 2.7 + (31.6 - 2.7) * windows / 200


# A seed never used while tuning the benchmark; a claimed gain must hold on
# it too.
HELD_OUT_SEED = 7919

MIN_PASSES = 3
SETUP_SAMPLES = 5
DEADLINE_S = 165.0

# Counts that must repeat exactly from pass to pass (and run to run).
EXACT = ("design_opt.evaluations", "workspace.cells", "workspace.occupied_cells",
         "trajectory.samples", "trajectory.validator_findings", "control_sim.trips")


class ChildFailed(RuntimeError):
    pass


def run_child(spec: dict, work: Path, deadline: float) -> dict:
    """Run worker.py on spec in a fresh interpreter; return its JSON line."""
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(spec_path)],
            capture_output=True, text=True, cwd=ROOT,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed("pass exceeded the run deadline") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"worker exited {proc.returncode}: {proc.stderr.strip()[-800:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def fixture_checks(dc, fixtures: Path, work: Path) -> list[str]:
    """Reproduce the frozen fixtures; return the names of checks that failed."""
    def line100_stream():
        geometry = dc.load_geometry(fixtures / "g0.json")
        stream = dc.plan_program(geometry, dc.load_program(fixtures / "programs/line100.json"))
        out = work / "line100_stream.csv"
        dc.write_stream_csv(stream, out)
        return out.read_bytes() == (fixtures / "line100_stream.csv").read_bytes()

    def workspace_10mm():
        frozen = json.loads((fixtures / "workspace_g0_res10.json").read_text(encoding="utf-8"))
        (x0, y0, z0), (x1, y1, z1) = frozen["bounds"]["lo"], frozen["bounds"]["hi"]
        spec = dc.GridSpec(x0, x1, y0, y1, z0, z1, frozen["resolution"])
        grid = dc.compute_workspace(dc.load_geometry(fixtures / "g0.json"), spec)
        return grid.occupied_count == frozen["occupied_count"] == 83276

    def ga_small_repeats():
        bounds = dc.load_bounds(fixtures / "bounds.json")
        points = dc.load_prescribed(fixtures / "recovery_points.json")
        config = dc.load_ga_config(fixtures / "ga_small.json")
        return dc.run_ga(bounds, points, config).to_json() == \
            dc.run_ga(bounds, points, config).to_json()

    def motion_trip_replay():
        stream = dc.read_stream_csv(fixtures / "line100_stream.csv")
        faults = dc.load_fault_script(fixtures / "faults_motion20.json")
        trace = dc.read_trace(fixtures / "trace_motion_trip.txt")
        return dc.replay_check(trace, stream, None, faults)

    failed = []
    for check in (line100_stream, workspace_10mm, ga_small_repeats, motion_trip_replay):
        try:
            ok = check()
        except Exception as exc:  # a crash is a failed check, reported below
            print(f"fixture check {check.__name__}: {type(exc).__name__}: {exc}")
            ok = False
        if not ok:
            failed.append(check.__name__)
    return failed


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def machine(numpy_version: str) -> dict:
    info = {"cpu": platform.processor() or "unknown", "nproc": os.cpu_count(),
            "mem_total": "unknown", "python": platform.python_version(),
            "numpy": numpy_version}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            info["cpu"] = next((ln.split(":", 1)[1].strip() for ln in fh
                                if ln.startswith("model name")), info["cpu"])
        with open("/proc/meminfo", encoding="utf-8") as fh:
            info["mem_total"] = next((ln.split(":", 1)[1].strip() for ln in fh
                                      if ln.startswith("MemTotal")), "unknown")
    except OSError:
        pass
    return info


def run(args, work: Path) -> int:
    import numpy
    import deltacut as dc
    import inputs

    started = time.monotonic()
    deadline = started + DEADLINE_S
    sizes = WORKLOADS[args.workload]
    paths, digests = inputs.write_inputs(work, sizes, args.seed)
    failed_fixtures = fixture_checks(dc, ROOT / "tests" / "fixtures", work)
    attempted, failed = 4, len(failed_fixtures)
    errors = [f"fixture check failed: {name}" for name in failed_fixtures]

    base = {"src": str(ROOT / "src"), "work": str(work), "inputs": paths, "seed": args.seed,
            "sizes": sizes, "setup_only": False, "trace": False, "replay": False}
    setups, raw_setups = [], []
    for _ in range(SETUP_SAMPLES):
        attempted += 1
        try:
            result = run_child(dict(base, setup_only=True), work, deadline)
            setups.append(result["setup_s"])
            raw_setups.append(result["raw_setup_s"])
        except ChildFailed as exc:
            failed += 1
            errors.append(str(exc))
            break

    untraced, traced = [], []
    measure_start = time.monotonic()
    while len(untraced) + len(traced) < MIN_PASSES or \
            time.monotonic() - measure_start < args.seconds:
        n = len(untraced) + len(traced)
        trace = bool(args.trace) and n % 2 == 1
        try:
            result = run_child(dict(base, trace=trace, replay=n == 0), work, deadline)
        except ChildFailed as exc:
            attempted += 1
            failed += 1
            errors.append(str(exc))
            break
        (traced if trace else untraced).append(result)
        if not trace:
            setups.append(result["setup_s"])
            raw_setups.append(result["raw_setup_s"])
    passes = untraced + traced

    for result in passes:
        attempted += result["attempted"]
        failed += result["failed"]
        errors.extend(result["errors"])
    if passes:
        first = passes[0]
        for i, result in enumerate(passes[1:], start=1):
            if result["digests"] != first["digests"] or \
                    any(result["counts"].get(k) != first["counts"].get(k) for k in EXACT):
                failed += 1
                errors.append(f"pass {i} outputs or counts differ from pass 0")

    info = machine(numpy.__version__)
    print(f"deltacut benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}  held-out seed={HELD_OUT_SEED}")
    print("machine: " + "  ".join(f"{k}={v}" for k, v in info.items()))
    print("inputs sha256: " + "  ".join(f"{k}={v[:16]}" for k, v in digests.items()))
    print(f"passes: {len(untraced)} untraced, {len(traced)} traced; "
          f"{len(setups)} set-up samples; {time.monotonic() - started:.1f} s")
    if passes:
        print("counts: " + "  ".join(f"{k}={passes[0]['counts'].get(k)}" for k in
                                    sorted(passes[0]["counts"])))
    for line in errors:
        print(f"FAILED {line}")

    metrics = {}
    if args.trace:
        metrics = per_layer(untraced, traced, args.workload)
    elif untraced:
        samples = {"setup_s": setups, "peak_rss_mb": [r["peak_rss_mb"] for r in untraced]}
        raw = {"setup_s": raw_setups, "peak_rss_mb": samples["peak_rss_mb"]}
        samples["wall_s"] = [r["wall_s"] for r in untraced]
        raw["wall_s"] = [r["raw_wall_s"] for r in untraced]
        for stage in untraced[0]["stages"]:
            samples[f"{stage}_s"] = [r["stages"][stage] for r in untraced]
            raw[f"{stage}_s"] = [r["raw_stages"][stage] for r in untraced]
        print(f"{'metric':<20}{'median':>12}{'q1':>12}{'q3':>12}{'n':>4}{'raw median':>16}")
        for name, unit in END_TO_END.items():
            q1, med, q3 = quartiles(samples[name])
            print(f"{name:<20}{med:>12.6g}{q1:>12.6g}{q3:>12.6g}{len(samples[name]):>4}"
                  f"{statistics.median(raw[name]):>16.6g}  {unit}")
            metrics[name] = {"value": med, "unit": unit}

    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}, sort_keys=True))
    return 0 if correct else 1


def per_layer(untraced: list[dict], traced: list[dict], workload: str) -> dict:
    """Median per-layer metrics over traced passes, the overhead, and the
    cross-check against the roadmap baseline."""
    if not traced or not untraced:
        return {}
    values = {name: statistics.median(r["layers"][name] for r in traced)
              for name in traced[0]["layers"]}
    plain = statistics.median(r["wall_s"] for r in untraced)
    values["trace.overhead_pct"] = 100.0 * (statistics.median(r["wall_s"] for r in traced)
                                            - plain) / plain
    print(f"{'per-layer metric':<44}{'median':>14}")
    for name, unit in PER_LAYER.items():
        print(f"{name:<44}{values[name]:>14.6g}  {unit}")
    print(f"{'baseline cross-check':<44}{'traced':>10}{'roadmap':>10}{'ratio':>8}")
    windows = int(values["control_sim.fault_windows"])
    references = dict(BASELINE)
    references["control_sim.tick_us_faulted"] = (faulted_tick_reference(windows), "cut_job")
    for name, (ref, where) in references.items():
        ratio = values[name] / ref
        flag = "  OFF BY >2x" if where == workload and not 0.5 <= ratio <= 2.0 else ""
        note = "" if where == workload else f"  (reference size on {where})"
        if name == "control_sim.tick_us_faulted":
            note += f"  (reference for {windows} windows)"
        print(f"{name:<44}{values[name]:>10.4g}{ref:>10.4g}{ratio:>8.2f}{flag}{note}")
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 64:
        parser.error("--seed must be an unsigned 64-bit integer")

    if not (ROOT / "src" / "deltacut" / "cli.py").is_file() or \
            not (ROOT / "tests" / "fixtures").is_dir():
        print(f"no deltacut source tree (src/deltacut, tests/fixtures) under {ROOT}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()


if __name__ == "__main__":
    sys.exit(main())
