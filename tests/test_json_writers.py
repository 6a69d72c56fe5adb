"""Every JSON writer: its bytes, and load(save(x)) == x.

The literal cases pin the bytes each writer gives for a known value and for
the fixture files it wrote; the properties check, for generated valid values,
that a file reads back as the value that wrote it and that writing that value
again gives the same bytes.
"""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltacut import (
    DesignBounds,
    FaultScript,
    FaultWindow,
    GaConfig,
    GridSpec,
    ProcessSpec,
    RobotGeometry,
    WatchdogConfig,
    WorkspaceGrid,
    dump_grid,
    load_bounds,
    load_fault_script,
    load_ga_config,
    load_geometry,
    load_grid,
    load_watchdog_config,
    save_fault_script,
    save_geometry,
    save_watchdog_config,
)
from deltacut.errors import write_json
from deltacut.geometry import _assembly

FOUR_PROCESSES = WatchdogConfig(pulse_period=2, timeout=5, processes=(
    ProcessSpec("laser", "advisory"), ProcessSpec("coolant", "critical"),
    ProcessSpec("motion", "critical"), ProcessSpec("logging", "degraded")))


def _bytes(save, value) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.json"
        save(value, path)
        return path.read_bytes()


def _save_bounds(bounds, path):
    write_json(bounds.to_dict(), path)


def _save_ga_config(config, path):
    write_json(config.to_dict(), path)


def _save_spec(spec, path):
    nx, ny, nz = spec.dims
    dump_grid(WorkspaceGrid(spec, np.zeros((nz, ny, nx), dtype=bool)), path)


def _load_spec(path):
    return load_grid(path).spec


def test_save_geometry_bytes(g0):
    assert _bytes(save_geometry, g0) == (
        b'{\n'
        b'  "e": 103.92304845413263,\n'
        b'  "f": 346.41016151377545,\n'
        b'  "re": 350.0,\n'
        b'  "rf": 150.0\n'
        b'}\n'
    )


def test_save_watchdog_config_bytes_of_the_default_table():
    assert _bytes(save_watchdog_config, WatchdogConfig()) == (
        b'{\n'
        b'  "processes": [\n'
        b'    {\n'
        b'      "name": "motion",\n'
        b'      "severity": "critical"\n'
        b'    },\n'
        b'    {\n'
        b'      "name": "laser",\n'
        b'      "severity": "degraded"\n'
        b'    },\n'
        b'    {\n'
        b'      "name": "logging",\n'
        b'      "severity": "advisory"\n'
        b'    }\n'
        b'  ],\n'
        b'  "pulse_period": 1,\n'
        b'  "timeout": 4\n'
        b'}\n'
    )


def test_save_watchdog_config_bytes_of_a_four_process_table():
    assert _bytes(save_watchdog_config, FOUR_PROCESSES) == (
        b'{\n'
        b'  "processes": [\n'
        b'    {\n'
        b'      "name": "laser",\n'
        b'      "severity": "advisory"\n'
        b'    },\n'
        b'    {\n'
        b'      "name": "coolant",\n'
        b'      "severity": "critical"\n'
        b'    },\n'
        b'    {\n'
        b'      "name": "motion",\n'
        b'      "severity": "critical"\n'
        b'    },\n'
        b'    {\n'
        b'      "name": "logging",\n'
        b'      "severity": "degraded"\n'
        b'    }\n'
        b'  ],\n'
        b'  "pulse_period": 2,\n'
        b'  "timeout": 5\n'
        b'}\n'
    )


def test_save_fault_script_bytes():
    script = FaultScript((FaultWindow("motion", 20, 10_000), FaultWindow("coolant", 0, 3)))
    assert _bytes(save_fault_script, script) == (
        b'{\n'
        b'  "windows": [\n'
        b'    {\n'
        b'      "end_tick": 10000,\n'
        b'      "process_name": "motion",\n'
        b'      "start_tick": 20\n'
        b'    },\n'
        b'    {\n'
        b'      "end_tick": 3,\n'
        b'      "process_name": "coolant",\n'
        b'      "start_tick": 0\n'
        b'    }\n'
        b'  ]\n'
        b'}\n'
    )


def test_bounds_bytes():
    bounds = DesignBounds(f=(150.0, 600.0), e=(40.0, 300.0), r_f=(60.0, 400.0),
                          r_e=(150.0, 700.0))
    assert _bytes(_save_bounds, bounds) == (
        b'{\n'
        b'  "e": [\n'
        b'    40.0,\n'
        b'    300.0\n'
        b'  ],\n'
        b'  "f": [\n'
        b'    150.0,\n'
        b'    600.0\n'
        b'  ],\n'
        b'  "re": [\n'
        b'    150.0,\n'
        b'    700.0\n'
        b'  ],\n'
        b'  "rf": [\n'
        b'    60.0,\n'
        b'    400.0\n'
        b'  ]\n'
        b'}\n'
    )


@pytest.mark.parametrize("name, load, save", [
    ("g0.json", load_geometry, save_geometry),
    ("bounds.json", load_bounds, _save_bounds),
    ("faults_motion20.json", load_fault_script, save_fault_script),
    ("faults_logging_10_12.json", load_fault_script, save_fault_script),
])
def test_a_fixture_saves_back_to_its_own_bytes(fixtures_dir, name, load, save):
    assert _bytes(save, load(fixtures_dir / name)) == (fixtures_dir / name).read_bytes()


lengths = st.floats(min_value=1e-3, max_value=1e100)


@st.composite
def geometries(draw):
    f, e, r_f = draw(lengths), draw(lengths), draw(lengths)
    reach = _assembly(f, e, r_f, 0.0)[2]
    r_e = draw(st.floats(min_value=math.nextafter(reach, math.inf), max_value=1e150))
    return RobotGeometry(f=f, e=e, r_f=r_f, r_e=r_e)


pairs = st.tuples(lengths, lengths).filter(lambda p: p[0] != p[1]).map(sorted).map(tuple)
bounds = st.builds(DesignBounds, f=pairs, e=pairs, r_f=pairs, r_e=pairs)


@st.composite
def grid_specs(draw):
    """Specs of at most 4 cells a side, so the grid written is small."""
    resolution = draw(st.floats(min_value=1e-3, max_value=1e3))
    box = {}
    for axis in "xyz":
        lo = draw(st.floats(min_value=-1e4, max_value=1e4))
        hi = draw(st.floats(min_value=lo, max_value=lo + 4.0 * resolution,
                            exclude_min=True))
        box[f"{axis}_min"], box[f"{axis}_max"] = lo, hi
    return GridSpec(**box, resolution=resolution)


names = st.text(min_size=1, max_size=8).filter(lambda s: not any(c in s for c in "\t\n\r"))
severities = st.sampled_from(("critical", "degraded", "advisory"))


@st.composite
def watchdog_configs(draw):
    builtins = [ProcessSpec(n, draw(severities)) for n in ("motion", "laser", "logging")]
    extra = draw(st.lists(names.filter(lambda n: n not in ("motion", "laser", "logging")),
                          max_size=3, unique=True))
    processes = draw(st.permutations(builtins + [ProcessSpec(n, draw(severities))
                                                 for n in extra]))
    pulse_period = draw(st.integers(min_value=1, max_value=2 ** 40))
    timeout = draw(st.integers(min_value=pulse_period, max_value=2 ** 41))
    return WatchdogConfig(pulse_period=pulse_period, timeout=timeout,
                          processes=tuple(processes))


@st.composite
def fault_windows(draw):
    start = draw(st.integers(min_value=0, max_value=2 ** 40))
    end = draw(st.integers(min_value=start, max_value=2 ** 41))
    return FaultWindow(draw(names), start, end)


fault_scripts = st.lists(fault_windows(), max_size=4).map(lambda w: FaultScript(tuple(w)))


@st.composite
def ga_configs(draw):
    population = draw(st.integers(min_value=2, max_value=500))
    return GaConfig(
        population_size=population,
        generations=draw(st.integers(min_value=0, max_value=500)),
        tournament_size=draw(st.integers(min_value=1, max_value=population)),
        crossover_rate=draw(st.floats(min_value=0.0, max_value=1.0)),
        mutation_sigma_fraction=draw(st.floats(min_value=0.0, max_value=1.0,
                                               exclude_min=True)),
        elitism_count=draw(st.integers(min_value=0, max_value=population - 1)),
        seed=draw(st.integers(min_value=0, max_value=2 ** 64 - 1)),
        size_penalty_weight=draw(st.floats(min_value=0.0, max_value=1.0, exclude_max=True)),
    )


FORMATS = {
    "geometry": (geometries(), save_geometry, load_geometry),
    "bounds": (bounds, _save_bounds, load_bounds),
    "grid_spec": (grid_specs(), _save_spec, _load_spec),
    "watchdog": (watchdog_configs(), save_watchdog_config, load_watchdog_config),
    "faults": (fault_scripts, save_fault_script, load_fault_script),
    "ga_config": (ga_configs(), _save_ga_config, load_ga_config),
}


@pytest.mark.parametrize("name", sorted(FORMATS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_saved_value_loads_back_and_saves_the_same_bytes(name, data):
    values, save, load = FORMATS[name]
    value = data.draw(values, label="value")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "value.json"
        save(value, path)
        again = load(path)
        assert again == value
        assert _bytes(save, again) == path.read_bytes()
