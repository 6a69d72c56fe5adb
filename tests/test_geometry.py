import math

import pytest

import oracles
from conftest import load_fixture
from deltacut import (
    JointAngles,
    Pose,
    RobotGeometry,
    THETA_MAX,
    THETA_MIN,
    load_geometry,
    save_geometry,
)


def test_reference_offsets_are_exact(g0):
    assert g0.a == 100.0
    assert g0.b == 30.0


def test_home_z_matches_closed_form(g0):
    expected = -math.sqrt(350.0 ** 2 - (100.0 + 150.0 - 30.0) ** 2)
    assert g0.home_z() == expected
    assert g0.home_z() == oracles.home_z(g0.f, g0.e, g0.r_f, g0.r_e)


def test_coerces_ints_to_floats():
    g = RobotGeometry(f=300, e=100, r_f=150, r_e=350)
    assert isinstance(g.f, float) and g.f == 300.0


@pytest.mark.parametrize("bad", [
    dict(f=0.0, e=100.0, r_f=150.0, r_e=350.0),
    dict(f=300.0, e=-1.0, r_f=150.0, r_e=350.0),
    dict(f=300.0, e=100.0, r_f=math.inf, r_e=350.0),
    dict(f=300.0, e=100.0, r_f=float("nan"), r_e=350.0),
    dict(f="wide", e=100.0, r_f=150.0, r_e=350.0),
])
def test_rejects_nonpositive_or_nonnumeric_links(bad):
    with pytest.raises(ValueError):
        RobotGeometry(**bad)


def test_rejects_links_whose_square_overflows():
    # Such a geometry would otherwise assemble, and the array kernel would
    # call poses reachable that scalar IK cannot solve.
    with pytest.raises(ValueError, match="r_e=.* square overflows"):
        RobotGeometry(f=300.0, e=100.0, r_f=150.0, r_e=1e300)


def test_rejects_unassemblable_sizing():
    # Forearm shorter than the horizontal reach a + r_f - b.
    with pytest.raises(ValueError, match="r_e"):
        RobotGeometry(f=400.0, e=60.0, r_f=200.0, r_e=100.0)


def test_geometry_file_round_trip(tmp_path, g0):
    path = tmp_path / "geom.json"
    save_geometry(g0, path)
    again = load_geometry(path)
    assert again == g0


def test_load_geometry_names_missing_keys(tmp_path):
    path = tmp_path / "geom.json"
    path.write_text('{"f": 300.0, "e": 100.0}', encoding="utf-8")
    with pytest.raises(ValueError, match="rf"):
        load_geometry(path)


def test_load_geometry_rejects_bad_json(tmp_path):
    path = tmp_path / "geom.json"
    path.write_text("not json", encoding="utf-8")
    with pytest.raises(ValueError, match="invalid JSON"):
        load_geometry(path)


def test_g0_fixture_matches_reference(g0):
    raw = load_fixture("g0.json")
    assert raw["f"] == g0.f and raw["e"] == g0.e
    assert raw["rf"] == g0.r_f and raw["re"] == g0.r_e


def test_pose_rejects_nonfinite():
    with pytest.raises(ValueError):
        Pose(0.0, math.nan, -300.0)
    with pytest.raises(ValueError):
        Pose(math.inf, 0.0, -300.0)


def test_joint_angles_enforce_canonical_range():
    JointAngles(0.0, 0.5, -1.5)  # just inside -pi/2
    with pytest.raises(ValueError, match="canonical"):
        JointAngles(THETA_MIN, 0.0, 0.0)
    with pytest.raises(ValueError, match="canonical"):
        JointAngles(0.0, THETA_MAX, 0.0)
    with pytest.raises(ValueError):
        JointAngles(0.0, 0.0, math.nan)


def test_joint_angles_tuple_order():
    j = JointAngles(0.1, 0.2, 0.3)
    assert j.as_tuple() == (0.1, 0.2, 0.3)
