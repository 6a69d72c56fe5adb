"""The allocator contract: only the command line tunes the C heap.

cli.app sets glibc's trim and mmap thresholds through mallopt before it runs
a command, so that the kernels' freed temporaries stay resident.  Importing
the package and calling it as a library leave the allocator alone, and the
CLI runs unchanged where the C library has no mallopt.
"""

import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

from deltacut import cli
from deltacut.cli import app

SRC = Path(__file__).resolve().parent.parent / "src"
KEPT = [(-1, 8 << 20), (-3, 4 << 20)]

# Records mallopt calls on every handle ctypes.CDLL opens from here on, then
# uses the package as a library, then runs one command.
LIBRARY_USE = r"""
import ctypes, json, sys

calls = []

class Recording(ctypes.CDLL):
    def __getattr__(self, name):
        if name == "mallopt":
            return lambda *args: calls.append(list(args))
        return super().__getattr__(name)

ctypes.CDLL = Recording
fixtures = sys.argv[1]

import deltacut as dc

bounds = dc.load_bounds(fixtures + "/bounds.json")
points = dc.load_prescribed(fixtures + "/recovery_points.json")
dc.run_ga(bounds, points, dc.load_ga_config(fixtures + "/ga_small.json"))
dc.random_search(bounds, points, 20, 0.05, 3)
geometry = dc.load_geometry(fixtures + "/g0.json")
dc.compute_workspace(geometry, dc.default_grid_spec(geometry, resolution=40.0))
library = list(calls)

from deltacut import cli
code = cli.app(["ik", "--geometry", fixtures + "/g0.json", "--", "0", "0", "-350"])
print(json.dumps({"library": library, "cli": calls[len(library):], "code": code}))
"""


def test_library_use_leaves_the_allocator_alone(fixtures_dir):
    done = subprocess.run(
        [sys.executable, "-c", LIBRARY_USE, str(fixtures_dir)],
        capture_output=True, text=True, check=True, env=dict(os.environ, PYTHONPATH=str(SRC)))
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["library"] == []
    # The recorder does see the command line's calls.
    assert report["cli"] == [list(c) for c in KEPT] and report["code"] == 0


def test_app_sets_both_thresholds_before_the_command(monkeypatch, capsys, fixtures_dir):
    calls = []
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: types.SimpleNamespace(
        mallopt=lambda *args: calls.append(args)))
    seen = []
    real = cli.inverse_kinematics
    monkeypatch.setattr(cli, "inverse_kinematics",
                        lambda *args: seen.append(list(calls)) or real(*args))
    assert app(["ik", "--geometry", str(fixtures_dir / "g0.json"), "--", "0", "0", "-350"]) == 0
    assert seen == [KEPT] and calls == KEPT


def _no_mallopt(name):
    return types.SimpleNamespace()


def _no_handle(name):
    raise OSError("no C library handle")


@pytest.mark.parametrize("cdll", [_no_mallopt, _no_handle])
def test_app_runs_unchanged_without_mallopt(monkeypatch, capsys, fixtures_dir, tmp_path, cdll):
    monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
    out = tmp_path / "ga.json"
    assert app(["optimize", "--bounds", str(fixtures_dir / "bounds.json"),
                "--prescribed", str(fixtures_dir / "recovery_points.json"),
                "--config", str(fixtures_dir / "ga_small.json"), "--out", str(out)]) == 0
    assert out.read_bytes() == (fixtures_dir / "ga_small_result.json").read_bytes()
