"""Error types and the one input path shared across the toolkit.

DomainError subclasses describe mechanisms or inputs that are internally
consistent but cannot be satisfied (a pose outside the workspace, a fault
that aborts a run).  Malformed files and violated type invariants raise
plain ValueError instead; the CLI maps the two groups to different exit
codes.

Every JSON input is checked by the same few helpers, so one malformed value
gets the same treatment in every file:

- read_json parses a file and, as a context manager, prefixes every
  ValueError raised while its value is checked with "{label} {path}: ";
- naming adds such a prefix to any block, "contour 3" or "window 0" say;
- fields refuses a non-object, a missing key and an unknown key;
- as_number takes JSON numbers only and refuses inf and nan;
- as_count takes JSON integers only;
- as_list takes a JSON array, of a given length if one is asked for.

Value types call as_number and as_count in their constructors, so a value
built in code is held to the same rule as one read from a file.  JSON
outputs go through write_json: sorted keys, two-space indent, trailing LF.
"""

from __future__ import annotations

import json
import math
import reprlib
from contextlib import contextmanager


class naming:
    """Context manager: prefix "{prefix}: " to every ValueError raised in
    the block.

    CellBudgetExceeded keeps its type; every other ValueError subclass (a
    JSON or UTF-8 decoding error, say) becomes a plain ValueError.
    """

    __slots__ = ("prefix",)

    def __init__(self, prefix: str):
        self.prefix = prefix

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb):
        if isinstance(exc, ValueError):
            kind = CellBudgetExceeded if isinstance(exc, CellBudgetExceeded) else ValueError
            raise kind(f"{self.prefix}: {exc}") from exc


@contextmanager
def read_json(path, label: str):
    """Parse a JSON file and yield its value.

    Bad syntax, and every ValueError raised in the with block while the value
    is checked, raise a ValueError that starts with "{label} {path}: ".
    """
    with naming(f"{label} {path}"):
        with open(path, "r", encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except (json.JSONDecodeError, RecursionError) as exc:
                raise ValueError(f"invalid JSON ({exc})") from None
        yield raw


def fields(raw, where: str, required, optional=()) -> dict:
    """raw itself, once it is an object holding every required key and no
    key outside required and optional."""
    if not isinstance(raw, dict):
        raise ValueError(f"{where} must be a JSON object, got {reprlib.repr(raw)}")
    missing = [key for key in required if key not in raw]
    if missing:
        raise ValueError(f"{where} is missing key(s) {', '.join(missing)}")
    unknown = [key for key in raw if key not in required and key not in optional]
    if unknown:
        raise ValueError(f"{where} has unknown key(s) {', '.join(sorted(unknown))}")
    return raw


def as_number(name: str, value) -> float:
    """value as a finite float; None, bools, strings, inf and nan raise."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {reprlib.repr(value)}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"{name} must be a finite number, got {reprlib.repr(value)}")
    return number


def as_count(name: str, value, minimum: int) -> int:
    """value as an int >= minimum; bools, floats and strings raise."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {reprlib.repr(value)}")
    return value


def as_list(name: str, value, length: int | None = None) -> list:
    """value as a list (a JSON array, or a tuple built in code)."""
    if not isinstance(value, (list, tuple)) or length not in (None, len(value)):
        shape = "a list" if length is None else f"a list of {length}"
        raise ValueError(f"{name} must be {shape}, got {reprlib.repr(value)}")
    return list(value)


def write_json(payload, path) -> None:
    """Write payload in the one JSON style: sorted keys, two-space indent,
    trailing LF."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json_text(payload))


def json_text(payload) -> str:
    """payload as write_json writes it; inf and nan raise, as JSON has none."""
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


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
    """Forward kinematics' shifted sphere centres coincide or are collinear."""


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
            f"sample at t={t:.17g}s pose=({pose.x:.17g}, {pose.y:.17g}, {pose.z:.17g}) "
            f"unreachable by arm {arm_index}"
        )


class EmptyProgram(DomainError):
    """A cut program contains no contours."""


class InvalidStream(DomainError):
    """A setpoint stream violates its ordering or shape contract."""


class UnknownProcess(DomainError):
    """A fault script names a process the watchdog does not supervise."""
