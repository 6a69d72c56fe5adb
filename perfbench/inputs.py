"""Seeded input files for the benchmark workloads.

Every generator draws from its own child of the workload seed, so the same
seed always writes byte-identical files, and changing one generator does not
shift the draws of another.  Files use the package's documented formats
(sorted keys, two-space indent, trailing newline).
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

# Reference sizing g0 and the gene bounds of tests/fixtures; the benchmark
# writes its own copies so the program only ever reads generated files.
G0 = {"f": 200.0 * math.sqrt(3.0), "e": 60.0 * math.sqrt(3.0), "rf": 150.0, "re": 350.0}
BOUNDS = {"f": [150.0, 600.0], "e": [40.0, 300.0], "rf": [60.0, 400.0], "re": [150.0, 700.0]}

# Cut programs stay inside a cylinder that g0 reaches everywhere: contour
# centres within 120 mm of the axis, polygon circumradii and circle radii
# of 6 to 30 mm, planes between z = -400 and -290 mm (g0 reaches every
# point out to r = 180 mm there).
CENTRE_RADIUS = 120.0
Z_PLANE = (-400.0, -290.0)
FEED = (200.0, 1000.0)
SIZE = (6.0, 30.0)

# Fault windows: one per FAULT_SPACING ticks, each long enough to trip the
# default watchdog (timeout 4) and followed by enough pulses to clear it.
FAULT_SPACING = 300
FAULT_LENGTH = (8, 40)

_STREAMS = {"points": 1, "program": 2, "faults": 3}


def _rng(seed: int, stream: str) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, _STREAMS[stream]]))


def write_json(path: Path, payload) -> str:
    """Write payload in the package's JSON style; return the sha256 of the bytes."""
    data = (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def interior_points(n: int, seed: int, margin: float = 5.0) -> list[list[float]]:
    """n points of g0's workspace whose six margin-shifted neighbours are reachable too."""
    from deltacut import RobotGeometry, is_reachable_many

    g0 = RobotGeometry(f=G0["f"], e=G0["e"], r_f=G0["rf"], r_e=G0["re"])
    rng = _rng(seed, "points")
    out: list[list[float]] = []
    while len(out) < n:
        pts = rng.uniform([-300, -300, -550], [300, 300, -50], size=(512, 3))
        ok = is_reachable_many(g0, pts)
        for d in range(3):
            for s in (margin, -margin):
                shifted = pts.copy()
                shifted[:, d] += s
                ok &= is_reachable_many(g0, shifted)
        out.extend(pts[ok].tolist())
    return out[:n]


def _strata(rng: np.random.Generator, n: int, lo: float, hi: float) -> np.ndarray:
    """n draws from [lo, hi), one per equal-width stratum, in random order.

    Stratifying keeps the total work of a program nearly constant across
    seeds, so seed-to-seed spread does not swamp run-to-run spread.
    """
    return lo + (hi - lo) * (rng.permutation(n) + rng.random(n)) / n


def cut_program(n_contours: int, seed: int) -> dict:
    """Closed line polygons (3 to 8 sides) and full circles, half and half.

    Arc radii span a realistic hole range and are not chosen around the
    centripetal load v^2/R, so fast small circles draw validator findings.
    """
    rng = _rng(seed, "program")
    n = n_contours
    feeds = _strata(rng, n, *FEED)
    sizes = _strata(rng, n, *SIZE)
    sides = np.floor(_strata(rng, n, 3.0, 9.0)).astype(int)
    circle = rng.permutation(n) % 2 == 1
    contours = []
    for i in range(n):
        rc = CENTRE_RADIUS * math.sqrt(rng.random())
        phi = rng.uniform(0.0, 2.0 * math.pi)
        cx, cy = rc * math.cos(phi), rc * math.sin(phi)
        contour = {
            "feed": round(float(feeds[i]), 3),
            "laser_on": True,
            "z_plane": round(rng.uniform(*Z_PLANE), 3),
        }
        if circle[i]:
            centre = [round(cx, 4), round(cy, 4)]
            start = [round(cx + sizes[i], 4), centre[1]]
            contour["start"] = start
            contour["segments"] = [{
                "type": "arc", "end": start, "center": centre,
                "direction": "cw" if rng.random() < 0.5 else "ccw",
            }]
        else:
            rot = rng.uniform(0.0, 2.0 * math.pi)
            k_sides = int(sides[i])
            verts = [
                [round(cx + sizes[i] * math.cos(rot + 2.0 * math.pi * k / k_sides), 4),
                 round(cy + sizes[i] * math.sin(rot + 2.0 * math.pi * k / k_sides), 4)]
                for k in range(k_sides)
            ]
            contour["start"] = verts[0]
            contour["segments"] = [{"type": "line", "end": v} for v in verts[1:] + verts[:1]]
        contours.append(contour)
    return {"contours": contours}


def fault_script(n_windows: int, seed: int) -> dict:
    """Advisory `logging` outages, one per FAULT_SPACING ticks from tick 100."""
    rng = _rng(seed, "faults")
    windows = []
    for k in range(n_windows):
        start = 100 + FAULT_SPACING * k + int(rng.integers(0, FAULT_SPACING - 100))
        length = int(rng.integers(FAULT_LENGTH[0], FAULT_LENGTH[1] + 1))
        windows.append({"process_name": "logging", "start_tick": start,
                        "end_tick": start + length})
    return {"windows": windows}


def write_inputs(directory: Path, sizes: dict, seed: int) -> tuple[dict, dict]:
    """Write every input file of one workload; return (paths, sha256 digests)."""
    payloads = {
        "geometry": G0,
        "bounds": BOUNDS,
        "ga_config": {"population_size": sizes["ga_population"],
                      "generations": sizes["ga_generations"]},
        "points": {"points": interior_points(sizes["points"], seed)},
        "program": cut_program(sizes["contours"], seed),
        "faults": fault_script(sizes["fault_windows"], seed),
    }
    paths, digests = {}, {}
    for name, payload in payloads.items():
        path = directory / f"{name}.json"
        digests[name] = write_json(path, payload)
        paths[name] = str(path)
    return paths, digests
