"""Error types and input checks shared across the toolkit.

DomainError subclasses describe mechanisms or inputs that are internally
consistent but cannot be satisfied (a pose outside the workspace, a fault
that aborts a run).  Malformed files and violated type invariants raise
plain ValueError instead; the CLI maps the two groups to different exit
codes.
"""

from __future__ import annotations

import json


def read_json(path, label: str, expect_object: bool = False):
    """Parse a JSON file; bad syntax raises ValueError naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{label} {path}: invalid JSON ({exc})") from exc
    if expect_object and not isinstance(raw, dict):
        raise ValueError(f"{label} {path}: expected a JSON object")
    return raw


def as_number(name: str, value) -> float:
    """value as a float; None, bools, strings and other non-numbers raise."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


class DomainError(Exception):
    """Base class for well-formed requests with no feasible answer."""


class Unreachable(DomainError):
    """A pose cannot be reached by one of the arms."""

    def __init__(self, arm_index: int, reason: str):
        self.arm_index = arm_index
        self.reason = reason
        super().__init__(f"arm {arm_index}: {reason}")


class NoSolution(DomainError):
    """Forward kinematics has no assembly point for the given joints."""


class Singular(DomainError):
    """The forward-kinematics sphere system is rank deficient."""


class CellBudgetExceeded(ValueError):
    """A grid request exceeds the cell budget."""


class InvalidFeed(DomainError):
    """A programmed feed is not positive or exceeds the machine limit."""


class UnreachableSample(DomainError):
    """A planned setpoint falls outside the workspace."""

    def __init__(self, t: float, pose, arm_index: int):
        self.t = t
        self.pose = pose
        self.arm_index = arm_index
        super().__init__(
            f"sample at t={t:.6f}s pose=({pose.x:.6f}, {pose.y:.6f}, {pose.z:.6f}) "
            f"unreachable by arm {arm_index}"
        )


class EmptyProgram(DomainError):
    """A cut program contains no contours."""


class InvalidStream(DomainError):
    """A setpoint stream violates its ordering or shape contract."""


class UnknownProcess(DomainError):
    """A fault script names a process the watchdog does not supervise."""
