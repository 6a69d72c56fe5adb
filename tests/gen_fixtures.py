"""Regenerate tests/fixtures/.

Expected values come from tests/oracles.py, written before the package and
kept deliberately independent of it.  Where the package itself is consulted
(grid occupancy, the golden stream) the script cross-checks the result
against the oracle and refuses to freeze a fixture on any disagreement.

Run from the repository root:  python3 tests/gen_fixtures.py
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))
import oracles

from deltacut import (
    Contour,
    CutProgram,
    LineSegment,
    PrescribedWorkspace,
    RobotGeometry,
    compute_workspace,
    GridSpec,
    is_reachable_many,
    load_bounds,
    load_ga_config,
    load_prescribed,
    random_search,
    run_ga,
    plan_program,
    write_stream_csv,
)

FIXTURES = Path(__file__).parent / "fixtures"

G0 = dict(f=200.0 * math.sqrt(3.0), e=60.0 * math.sqrt(3.0), rf=150.0, re=350.0)
G0_ARGS = (G0["f"], G0["e"], G0["rf"], G0["re"])


def write_json(name: str, payload) -> None:
    path = FIXTURES / name
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")


def gen_geometry():
    write_json("g0.json", G0)


def gen_ik_golden():
    poses = [
        (0.0, 0.0, -350.0),
        (50.0, 0.0, -300.0),
        (30.0, -40.0, -320.0),
        (-25.0, 60.0, -400.0),
        (0.0, 0.0, oracles.home_z(*G0_ARGS)),
    ]
    cases = []
    for pose in poses:
        thetas = oracles.ik(*G0_ARGS, *pose)
        assert thetas is not None, f"oracle cannot reach {pose}"
        cases.append({"pose": list(pose), "thetas": list(thetas)})
    write_json("ik_golden.json", {"geometry": G0, "cases": cases})


def gen_fk_golden():
    triples = [
        (0.0, 0.0, 0.0),
        (0.3, 0.3, 0.3),
        (0.1, -0.2, 0.45),
        (1.2, 0.8, -0.1),
    ]
    cases = []
    for t in triples:
        pose = oracles.fk(*G0_ARGS, *t)
        assert isinstance(pose, tuple), f"oracle fk failed for {t}: {pose}"
        cases.append({"thetas": list(t), "pose": list(pose)})

    # Coincident sphere centres: every arm at the angle that cancels the
    # centre offset a - b + r_f cos(theta) = 0.
    a, b = oracles.offsets(G0["f"], G0["e"])
    theta_star = math.acos(-(a - b) / G0["rf"])
    singular = [theta_star, theta_star, theta_star]
    assert oracles.fk(*G0_ARGS, *singular) == "singular"

    # Scan for joint triples whose spheres miss each other entirely or only
    # meet above the base plane.
    rng = np.random.default_rng(618)
    no_solution = None
    for _ in range(200_000):
        t = rng.uniform(-1.5, math.pi, size=3)
        result = oracles.fk(*G0_ARGS, *t)
        if result == "no_solution":
            no_solution = [float(v) for v in t]
            break
    assert no_solution is not None, "no NoSolution example found in the scan"

    write_json("fk_golden.json", {
        "geometry": G0,
        "cases": cases,
        "singular": singular,
        "no_solution": no_solution,
    })


def gen_workspace():
    lo = (-300.0, -300.0, -550.0)
    hi = (300.0, 300.0, -50.0)
    res = 10.0
    t0 = time.perf_counter()
    dims, count, rows = oracles.grid_counts(*G0_ARGS, lo, hi, res)
    print(f"oracle grid scan: {count} occupied, {time.perf_counter() - t0:.1f} s")

    geometry = RobotGeometry(f=G0["f"], e=G0["e"], r_f=G0["rf"], r_e=G0["re"])
    spec = GridSpec(lo[0], hi[0], lo[1], hi[1], lo[2], hi[2], res)
    grid = compute_workspace(geometry, spec)
    assert spec.dims == dims, (spec.dims, dims)
    assert grid.occupied_count == count, (grid.occupied_count, count)
    flat = grid.occupancy
    for iz in range(dims[2]):
        for iy in range(dims[1]):
            packaged = "".join("1" if v else "0" for v in flat[iz, iy])
            assert packaged == rows[iz * dims[1] + iy], (iz, iy)

    write_json("workspace_g0_res10.json", {
        "geometry": G0,
        "bounds": {"lo": list(lo), "hi": list(hi)},
        "resolution": res,
        "dims": list(dims),
        "occupied_count": count,
        "volume_mm3": count * res ** 3,
    })


def gen_prescribed_mixed():
    points = [
        [0.0, 0.0, -300.0],
        [50.0, 50.0, -350.0],
        [-80.0, 20.0, -250.0],
        [0.0, -120.0, -400.0],
        [100.0, 0.0, -200.0],
        [-60.0, -60.0, -330.0],
        [0.0, 0.0, -600.0],
        [400.0, 0.0, -300.0],
        [0.0, 300.0, -100.0],
        [250.0, -250.0, -500.0],
    ]
    flags = [oracles.reachable(*G0_ARGS, *p) for p in points]
    cov = sum(flags) / len(flags)
    print(f"mixed prescribed coverage: {cov}")
    write_json("prescribed_mixed10.json", {
        "points": points,
        "coverage_g0": cov,
        "reachable": flags,
    })


def gen_recovery_points():
    g0 = RobotGeometry(f=G0["f"], e=G0["e"], r_f=G0["rf"], r_e=G0["re"])

    def sample_interior(n, seed, margin=5.0):
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        out = []
        while len(out) < n:
            pts = rng.uniform([-300, -300, -550], [300, 300, -50], size=(512, 3))
            ok = is_reachable_many(g0, pts)
            for d in range(3):
                for s in (+1.0, -1.0):
                    shifted = pts.copy()
                    shifted[:, d] += s * margin
                    ok &= is_reachable_many(g0, shifted)
            out.extend(pts[ok].tolist())
        return np.array(out[:n])

    pts = sample_interior(200, 20240819)
    for p in pts:
        assert oracles.reachable(*G0_ARGS, *p), f"oracle rejects {p}"
    write_json("recovery_points.json", {"points": pts.tolist()})


def gen_programs():
    write_json("programs/line100.json", {"contours": [{
        "start": [-50.0, 0.0], "z_plane": -300.0, "laser_on": True,
        "feed": 1000.0,
        "segments": [{"type": "line", "end": [50.0, 0.0]}],
    }]})
    write_json("programs/circle50.json", {"contours": [{
        "start": [50.0, 0.0], "z_plane": -300.0, "laser_on": True,
        "feed": 300.0,
        "segments": [{"type": "arc", "end": [50.0, 0.0],
                      "center": [0.0, 0.0], "direction": "ccw"}],
    }]})
    write_json("programs/multi.json", {"contours": [
        {
            "start": [-40.0, -20.0], "z_plane": -300.0, "laser_on": True,
            "feed": 800.0,
            "segments": [{"type": "line", "end": [40.0, -20.0]}],
        },
        {
            "start": [60.0, 10.0], "z_plane": -310.0, "laser_on": True,
            "feed": 500.0,
            "segments": [
                {"type": "arc", "end": [-60.0, 10.0],
                 "center": [0.0, 10.0], "direction": "cw"},
                {"type": "line", "end": [-60.0, 40.0]},
            ],
        },
    ]})


def gen_watchdog():
    write_json("faults_motion20.json", {"windows": [
        {"process_name": "motion", "start_tick": 20, "end_tick": 10000},
    ]})
    write_json("faults_logging_10_12.json", {"windows": [
        {"process_name": "logging", "start_tick": 10, "end_tick": 12},
    ]})

    # Hand-derived trip arithmetic, period 1 / timeout 4, suppression from
    # tick 20: last pulse 19, first missed expected pulse 20, lateness first
    # exceeds the timeout at tick 20 + 4 + 1 = 25.
    lines = [
        "25\tpulse_missed\tmotion\tmissed pulse expected at tick 20",
        "25\twatchdog_trip\tmotion\t5 ticks past expected pulse exceeds timeout 4",
        "25\tcorrective_action\tmotion\tcritical failure: disabling laser and holding motion",
        "25\tlaser_off\tmotion\tlaser disabled",
        "25\tmotion_hold\tmotion\tmotion held at current setpoint",
    ]
    path = FIXTURES / "trace_motion_trip.txt"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {path}")


def gen_stream():
    geometry = RobotGeometry(f=G0["f"], e=G0["e"], r_f=G0["rf"], r_e=G0["re"])
    program = CutProgram(contours=(Contour(
        start=(-50.0, 0.0), z_plane=-300.0, laser_on=True, feed=1000.0,
        segments=(LineSegment(end=(50.0, 0.0)),),
    ),))
    stream = plan_program(geometry, program)

    # Cross-check every sample against the closed-form profile before
    # freezing: position along the path, then the straight-line pose.
    length, feed, a_max = 100.0, 1000.0, 23000.0
    total = oracles.trapezoid_total_time(length, feed, a_max)
    assert len(stream) == math.ceil(total / 0.0025 - 1e-12) + 1 == 59
    for i in range(len(stream)):
        t = float(stream.t[i])
        s = oracles.trapezoid_position(length, feed, a_max, min(t, total))
        expect_x = -50.0 + s
        assert abs(stream.poses[i, 0] - expect_x) < 1e-9, i
        assert stream.poses[i, 1] == 0.0 and stream.poses[i, 2] == -300.0
    assert float(stream.t[-1]) == total

    path = FIXTURES / "line100_stream.csv"
    write_stream_csv(stream, path)
    print(f"wrote {path}")


def gen_design_opt():
    write_json("bounds.json", {
        "f": [150.0, 600.0],
        "e": [40.0, 300.0],
        "rf": [60.0, 400.0],
        "re": [150.0, 700.0],
    })
    write_json("ga_small.json", {
        "population_size": 12,
        "generations": 6,
        "seed": 7,
    })


def design_results() -> dict:
    """GA and random-search outputs on the design fixtures, as file texts.

    Frozen so that a change to fitness evaluation cannot move a result.
    """
    bounds = load_bounds(FIXTURES / "bounds.json")
    points = load_prescribed(FIXTURES / "recovery_points.json")
    config = load_ga_config(FIXTURES / "ga_small.json")
    found = {}
    for evaluations in (60, 257):
        genome, fit = random_search(bounds, points, evaluations,
                                    config.size_penalty_weight, seed=9)
        found[str(evaluations)] = [genome.tolist(), fit]
    return {
        "ga_small_result.json": run_ga(bounds, points, config).to_json(),
        "random_search_small.json": json.dumps(found, indent=2, sort_keys=True) + "\n",
    }


def gen_design_results():
    for name, text in design_results().items():
        path = FIXTURES / name
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        print(f"wrote {path}")


def main():
    FIXTURES.mkdir(exist_ok=True)
    gen_geometry()
    gen_ik_golden()
    gen_fk_golden()
    gen_workspace()
    gen_prescribed_mixed()
    gen_recovery_points()
    gen_programs()
    gen_watchdog()
    gen_stream()
    gen_design_opt()
    gen_design_results()
    print("fixtures complete")


if __name__ == "__main__":
    main()
