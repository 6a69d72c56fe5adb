"""Smoke test of the benchmark harness at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402
import run  # noqa: E402

TINY = {"points": 20, "ga_population": 6, "ga_generations": 2,
        "scan_resolution": 40.0, "contours": 6, "fault_windows": 2}


def test_same_seed_same_input_bytes(tmp_path):
    digests = []
    for name in ("a", "b", "c"):
        (tmp_path / name).mkdir()
        digests.append(inputs.write_inputs(tmp_path / name, TINY, 5 if name != "c" else 6)[1])
    assert digests[0] == digests[1]
    assert digests[0]["program"] != digests[2]["program"]


@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_reports_every_metric(monkeypatch, capsys, trace):
    monkeypatch.setitem(run.WORKLOADS, "tiny", TINY)
    code = run.main(["--workload", "tiny", "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)])
    out = capsys.readouterr().out
    result = json.loads(out.strip().splitlines()[-1])
    assert code == 0, out
    assert result["correct"] and result["failed"] == 0
    # 4 fixture checks, the set-up processes, 3 passes of 8 stages.
    assert result["attempted"] == 4 + run.SETUP_SAMPLES + 3 * 8
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if trace:
        assert result["metrics"]["control_sim.trips"]["value"] == TINY["fault_windows"]
        assert result["metrics"]["design_opt.evaluations"]["value"] == 6 * 3 * 2
    assert not (run.ROOT / ".perfbench_work").exists()


def test_without_the_package_it_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "design", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
