"""Every JSON loader and value type follows one input rule.

Numbers are JSON numbers (finite), counts are JSON integers, unknown keys are
refused, and a malformed file raises a ValueError that names the file and
exits the CLI with code 2.
"""

import contextlib
import io
import json
import math
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from deltacut import (
    ArcSegment,
    Contour,
    DesignBounds,
    FaultWindow,
    GaConfig,
    GridSpec,
    JointAngles,
    LineSegment,
    MachineLimits,
    Pose,
    RobotGeometry,
    TraceEvent,
    WatchdogConfig,
    load_bounds,
    load_fault_script,
    load_ga_config,
    load_geometry,
    load_prescribed,
    load_program,
    load_watchdog_config,
)
from deltacut.cli import app
from deltacut.errors import json_text

FIXTURES = Path(__file__).parent / "fixtures"


def _fixture(name):
    return json.loads((FIXTURES / name).read_text(encoding="utf-8"))


def _optimize(flag):
    inputs = {"--bounds": "bounds.json", "--prescribed": "prescribed_mixed10.json"}
    inputs.pop(flag, None)
    argv = ["optimize"]
    for option, name in inputs.items():
        argv += [option, str(FIXTURES / name)]
    return lambda bad, out: argv + [flag, bad, "--out", out]


def _simulate(flag):
    stream = str(FIXTURES / "line100_stream.csv")
    return lambda bad, out: ["simulate", "--stream", stream, flag, bad, "--out", out]


# label, loader, a valid document, and the CLI call that reads it.
LOADERS = {
    "geometry": ("geometry file", load_geometry, _fixture("g0.json"),
                 lambda bad, out: ["ik", "--geometry", bad, "0", "0", "-300"]),
    "bounds": ("bounds file", load_bounds, _fixture("bounds.json"), _optimize("--bounds")),
    "ga_config": ("config file", load_ga_config,
                  {**GaConfig().to_dict(), **_fixture("ga_small.json")}, _optimize("--config")),
    "prescribed": ("prescribed file", load_prescribed, _fixture("prescribed_mixed10.json"),
                   _optimize("--prescribed")),
    "program": ("program file", load_program, _fixture("programs/multi.json"),
                lambda bad, out: ["plan", "--geometry", str(FIXTURES / "g0.json"),
                                  "--program", bad, "--out", out]),
    "watchdog": ("watchdog config", load_watchdog_config,
                 json.loads(json_text(WatchdogConfig().to_dict())), _simulate("--config")),
    "faults": ("fault script", load_fault_script, _fixture("faults_logging_10_12.json"),
               _simulate("--faults")),
}


def _cli_error(cli, bad, tmp_path):
    """Stderr of the CLI call that reads the file bad, which must exit 2."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert app(cli(str(bad), str(tmp_path / "out"))) == 2
    return err.getvalue()


def _paths(doc, prefix=()):
    """The path of doc itself and of every value inside it, at any depth."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _replace(doc, path, value):
    if not path:
        return value
    copy = json.loads(json.dumps(doc))
    parent = copy
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return copy


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=8,
)


@pytest.mark.parametrize("name", sorted(LOADERS))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_one_replaced_field_loads_or_names_the_file(tmp_path, name, data):
    label, loader, doc, cli = LOADERS[name]
    path = data.draw(st.sampled_from(list(_paths(doc))), label="path")
    value = data.draw(json_values, label="value")
    bad = tmp_path / "input.json"
    bad.write_text(json.dumps(_replace(doc, path, value)), encoding="utf-8")
    try:
        loader(bad)
    except ValueError as exc:
        assert str(exc).startswith(f"{label} {bad}:")
        assert _cli_error(cli, bad, tmp_path).startswith(f"ValueError: {label} {bad}:")


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_too_deeply_nested_json_is_a_usage_error(tmp_path, name):
    label, _, _, cli = LOADERS[name]
    bad = tmp_path / "input.json"
    bad.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    assert _cli_error(cli, bad, tmp_path).startswith(f"ValueError: {label} {bad}: invalid JSON")


_LINE = LineSegment(end=(1.0, 0.0))

# Value type, valid keyword arguments, numeric fields, count fields.  A field
# (name, i) is item i of the pair under name.  Numeric fields refuse None,
# bools, strings, inf and nan; count fields refuse bools, floats and strings.
VALUE_TYPES = [
    (RobotGeometry, dict(f=346.0, e=104.0, r_f=150.0, r_e=350.0), ["f", "e", "r_f", "r_e"], []),
    (Pose, dict(x=0.0, y=0.0, z=-300.0), ["x", "y", "z"], []),
    (JointAngles, dict(theta1=0.1, theta2=0.2, theta3=0.3), ["theta1", "theta2", "theta3"], []),
    (GridSpec, dict(x_min=-10.0, x_max=10.0, y_min=-10.0, y_max=10.0, z_min=-20.0,
                    z_max=-10.0, resolution=1.0),
     ["x_min", "x_max", "y_min", "y_max", "z_min", "z_max", "resolution"], []),
    (MachineLimits, dict(v_max=1000.0, a_max=23000.0, tick=0.0025),
     ["v_max", "a_max", "tick"], []),
    (LineSegment, dict(end=(1.0, 0.0)), [("end", 0), ("end", 1)], []),
    (ArcSegment, dict(end=(1.0, 0.0), center=(0.0, 0.0), direction="ccw"),
     [("end", 0), ("end", 1), ("center", 0), ("center", 1)], []),
    (Contour, dict(start=(0.0, 0.0), segments=(_LINE,), z_plane=-300.0, feed=500.0),
     [("start", 0), ("start", 1), "z_plane", "feed"], []),
    (DesignBounds, dict(f=(150.0, 600.0), e=(40.0, 300.0), r_f=(60.0, 400.0), r_e=(150.0, 700.0)),
     [(gene, i) for gene in ("f", "e", "r_f", "r_e") for i in (0, 1)], []),
    (GaConfig, {}, ["crossover_rate", "mutation_sigma_fraction", "size_penalty_weight"],
     ["population_size", "generations", "tournament_size", "elitism_count", "seed"]),
    (WatchdogConfig, {}, [], ["pulse_period", "timeout"]),
    (FaultWindow, dict(process_name="motion", start_tick=1, end_tick=2), [],
     ["start_tick", "end_tick"]),
    (TraceEvent, dict(tick=0, kind="laser_off"), [], ["tick"]),
]


# Fields whose None is the documented "not given": a contour without a feed
# runs at v_max.
NONE_IS_ABSENT = {(Contour, "feed")}


def _cases(column, bad_values):
    for cls, kwargs, *columns in VALUE_TYPES:
        for field in columns[column]:
            for value in bad_values:
                if value is None and (cls, field) in NONE_IS_ABSENT:
                    continue
                yield pytest.param(cls, kwargs, field, value,
                                   id=f"{cls.__name__}.{field}={value!r}")


def _replaced(kwargs, field, value):
    """(field name, kwargs with the field set to value)."""
    kwargs = dict(kwargs)
    if isinstance(field, tuple):
        name, index = field
        pair = list(kwargs[name])
        pair[index] = value
        kwargs[name] = tuple(pair)
    else:
        name = field
        kwargs[name] = value
    return name, kwargs


@pytest.mark.parametrize("cls, kwargs, field, value", [
    *_cases(0, [None, True, "1", math.inf, math.nan]),
    *_cases(1, [True, 1.0, "1"]),
])
def test_numbers_and_counts_follow_one_rule(cls, kwargs, field, value):
    cls(**kwargs)
    name, bad = _replaced(kwargs, field, value)
    with pytest.raises(ValueError, match=name):
        cls(**bad)
