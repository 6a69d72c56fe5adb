"""Value types for the delta mechanism: link sizing, joint space, task space.

All lengths are millimetres, all angles radians.  The base frame sits at the
centroid of the fixed triangle with z pointing up, so every working pose has
z < 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .errors import as_number, fields, read_json, write_json

_SQRT3 = math.sqrt(3.0)

# Canonical joint range: theta = 0 puts the upper arm horizontal, positive
# theta swings the knee below the base plane.
THETA_MIN = -math.pi / 2.0
THETA_MAX = math.pi


def _offset(side):
    """Centroid to side midpoint of an equilateral triangle with this side."""
    return side / (2.0 * _SQRT3)


def _assembly(f, e, r_f, r_e):
    """(a, b, reach, assembles) of the home-pose assembly rule r_e > reach,
    reach = |a + r_f - b|, on floats (RobotGeometry) or arrays (GA fitness)."""
    a = _offset(f)
    b = _offset(e)
    reach = abs(a + r_f - b)
    return a, b, reach, r_e > reach


@dataclass(frozen=True, slots=True)
class RobotGeometry:
    """Link sizing of a translational delta robot.

    f: side length of the fixed base triangle
    e: side length of the moving effector triangle
    r_f: actuated upper-arm length
    r_e: parallelogram forearm length
    """

    f: float
    e: float
    r_f: float
    r_e: float

    def __post_init__(self):
        for name in ("f", "e", "r_f", "r_e"):
            value = as_number(name, getattr(self, name))
            if value <= 0.0:
                raise ValueError(f"{name} must be a positive length, got {value!r}")
            # The kinematics kernel squares every link; an infinite square
            # would blind its tolerance checks.
            if not math.isfinite(value * value):
                raise ValueError(f"{name}={value!r} is too long: its square overflows")
            object.__setattr__(self, name, value)
        _, _, reach, assembles = _assembly(self.f, self.e, self.r_f, self.r_e)
        if not assembles:
            raise ValueError(
                "home-pose assembly requires r_e > |a + r_f - b| "
                f"(r_e={self.r_e}, |a + r_f - b|={reach})"
            )

    @property
    def a(self) -> float:
        """Base offset: centroid to side midpoint of the fixed triangle."""
        return _offset(self.f)

    @property
    def b(self) -> float:
        """Effector offset: centroid to side midpoint of the moving triangle."""
        return _offset(self.e)

    def home_z(self) -> float:
        """Effector height with all arms horizontal (theta = 0)."""
        reach = _assembly(self.f, self.e, self.r_f, self.r_e)[2]
        return -math.sqrt(self.r_e * self.r_e - reach * reach)

    def to_dict(self) -> dict:
        return {"f": self.f, "e": self.e, "rf": self.r_f, "re": self.r_e}


@dataclass(frozen=True, slots=True)
class Pose:
    """Cartesian effector position in the base frame, mm."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        for name in ("x", "y", "z"):
            object.__setattr__(self, name, as_number(name, getattr(self, name)))


@dataclass(frozen=True, slots=True)
class JointAngles:
    """Actuated joint angles, radians, one per arm in arm order."""

    theta1: float
    theta2: float
    theta3: float

    def __post_init__(self):
        for name in ("theta1", "theta2", "theta3"):
            value = as_number(name, getattr(self, name))
            if not (THETA_MIN < value < THETA_MAX):
                raise ValueError(
                    f"{name}={value} outside canonical joint range (-pi/2, pi)"
                )
            object.__setattr__(self, name, value)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.theta1, self.theta2, self.theta3)


def load_geometry(path: str | Path) -> RobotGeometry:
    """Read a geometry JSON file with keys f, e, rf, re (mm)."""
    with read_json(path, "geometry file") as raw:
        fields(raw, "top level", ("f", "e", "rf", "re"))
        return RobotGeometry(f=raw["f"], e=raw["e"], r_f=raw["rf"], r_e=raw["re"])


def save_geometry(geometry: RobotGeometry, path: str | Path) -> None:
    write_json(geometry.to_dict(), path)
