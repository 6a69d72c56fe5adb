"""Cut-program planning: trapezoidal profiles, tick sampling, joint streams.

Every motion (contour segment or linking rapid) is planned independently
with a trapezoidal speed profile and full stops at its ends, then sampled on
the controller tick.  Within a motion the samples sit at multiples of the
tick except the last, which is clamped to the exact motion end time so the
endpoint is hit exactly.  The next motion starts on the first tick boundary
strictly after that, so the machine dwells stopped for less than one tick at
each junction and timestamps stay strictly increasing.

build_motions turns a program into one flat row of numbers per motion.
plan_program refuses a program that needs more than SAMPLE_BUDGET samples
before it allocates any, fixes each motion's first and last sample, then
samples and solves STREAM_BLOCK_ROWS samples at a time with array code, into
the stream's preallocated arrays; validate_stream audits a stream in blocks
of the same size.  Both read reachability from batch IK's per-arm flags.
Beyond the stream, neither allocates per sample.

write_stream_csv formats STREAM_BLOCK_ROWS rows at a time in array code,
byte for byte as "%.17g" would: each value is scaled by a power of ten in
double-double arithmetic to a 17-digit integer, whose digits are laid out in
fixed NUL-padded cells, and one bytes.translate drops the NULs of a block.
A row holding a value whose rounding that cannot certify (a near tie at the
17th digit, a decade log10 may have got wrong, or a magnitude beyond the
table of powers) is formatted by the "%.17g" line template instead, so the
output is exact for every finite value.
"""

from __future__ import annotations

import contextlib
import functools
import io
import math
import warnings
from collections import namedtuple
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (EmptyProgram, InvalidFeed, InvalidStream, UnreachableSample,
                     as_list, as_number, fields, naming, read_json)
from .geometry import Pose, RobotGeometry
# inverse_kinematics stays importable from here: perfbench/worker.py traces the name.
from .kinematics import inverse_kinematics, inverse_kinematics_many  # noqa: F401

_CSV_HEADER = ("t", "x", "y", "z", "theta1", "theta2", "theta3", "laser")
# One stream CSV row as np.loadtxt parses it: t, the pose and the joints,
# then the laser flag.
_CSV_ROW = np.dtype([("v", np.float64, (7,)), ("l", np.int8)])
_ARC_RADIUS_TOL = 1e-6
_FULL_CIRCLE_TOL = 1e-9

# Most samples plan_program plans and validate_stream audits, and stream CSV
# rows write_stream_csv formats, at once, so that their temporaries stay a
# fixed size whatever the stream length: about 1 MB to plan a block, 0.6 MB
# to validate one and 4 MB to write one (tracemalloc).  The writer takes as
# long per row at 2,048 as at 4,096.  read_stream_csv reads no blocks:
# np.loadtxt sizes its own chunks, and its line walk keeps one line at a time.
STREAM_BLOCK_ROWS = 2048

# Most samples plan_program plans for one program.  Its peak is the stream,
# 57 bytes per sample, plus a block's temporaries and the motion rows: 58-59
# bytes per sample at a million samples on lines or arcs (tracemalloc), so a
# plan at the budget stays under 160 MB.
SAMPLE_BUDGET = 2_500_000


@dataclass(frozen=True, slots=True)
class MachineLimits:
    """Cartesian path limits and the controller tick."""

    v_max: float = 1000.0   # mm/s   (60 m/min)
    a_max: float = 23000.0  # mm/s^2 (23 m/s^2)
    tick: float = 0.0025    # s      (2.5 ms)

    def __post_init__(self):
        for name in ("v_max", "a_max", "tick"):
            value = as_number(name, getattr(self, name))
            if not value > 0.0:
                raise ValueError(f"{name} must be positive, got {value!r}")
            object.__setattr__(self, name, value)


@dataclass(frozen=True, slots=True)
class LineSegment:
    """Straight cut to the end point, in contour-plane coordinates (mm)."""

    end: tuple[float, float]

    def __post_init__(self):
        object.__setattr__(self, "end", _check_xy(self.end, "line end"))


@dataclass(frozen=True, slots=True)
class ArcSegment:
    """Circular arc to the end point about a centre; direction cw or ccw.

    An arc whose end coincides with its start is a full circle.
    """

    end: tuple[float, float]
    center: tuple[float, float]
    direction: str

    def __post_init__(self):
        object.__setattr__(self, "end", _check_xy(self.end, "arc end"))
        object.__setattr__(self, "center", _check_xy(self.center, "arc center"))
        if self.direction not in ("cw", "ccw"):
            raise ValueError(f"arc direction must be 'cw' or 'ccw', got {self.direction!r}")


def _check_xy(pair, what: str) -> tuple[float, float]:
    x, y = as_list(what, pair, 2)
    return (as_number(f"{what} x", x), as_number(f"{what} y", y))


@dataclass(frozen=True, slots=True)
class Contour:
    """A chained sequence of segments cut at one working depth."""

    start: tuple[float, float]
    segments: tuple
    z_plane: float
    laser_on: bool = True
    feed: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "start", _check_xy(self.start, "contour start"))
        segs = tuple(self.segments)
        if not segs:
            raise ValueError("contour must have at least one segment")
        for seg in segs:
            if not isinstance(seg, (LineSegment, ArcSegment)):
                raise ValueError(f"unsupported segment type {type(seg).__name__}")
        object.__setattr__(self, "segments", segs)
        object.__setattr__(self, "z_plane", as_number("z_plane", self.z_plane))
        if not isinstance(self.laser_on, bool):
            raise ValueError(f"laser_on must be true or false, got {self.laser_on!r}")
        if self.feed is not None:
            feed = as_number("feed", self.feed)
            if not feed > 0.0:
                raise ValueError(f"contour feed must be positive, got {self.feed!r}")
            object.__setattr__(self, "feed", feed)


@dataclass(frozen=True, slots=True)
class CutProgram:
    """An ordered list of contours; rapids link them automatically."""

    contours: tuple[Contour, ...]

    def __post_init__(self):
        object.__setattr__(self, "contours", tuple(self.contours))
        for c in self.contours:
            if not isinstance(c, Contour):
                raise ValueError("contours must be Contour instances")


# One profiled move, a contour segment or a linking rapid, as a flat row of
# numbers: its flags, its profile, its start and end points and, on an arc,
# the centre, radius, start angle and signed sweep (0.0 on a line).
Motion = namedtuple("Motion", "rapid laser_on arc length accel v_peak t_accel t_cruise "
                    "total_time x0 y0 z0 x1 y1 z1 cx cy radius a0 sweep", defaults=(0.0,) * 5)


def build_motions(
    program: CutProgram, limits: MachineLimits
) -> list[Motion]:
    """Expand a program into profiled motions, rapids included.

    A ValueError raised by a segment starts with "contour C segment S: ".
    """
    if not program.contours:
        raise EmptyProgram("program has no contours")
    motions: list[Motion] = []
    cursor: tuple[float, float, float] | None = None
    for ci, contour in enumerate(program.contours):
        feed = contour.feed if contour.feed is not None else limits.v_max
        if feed > limits.v_max:
            raise InvalidFeed(f"contour {ci}: feed {feed} exceeds v_max {limits.v_max}")
        start3 = (contour.start[0], contour.start[1], contour.z_plane)
        if cursor is not None and (gap := math.dist(cursor, start3)) > 0.0:
            motions.append(_motion(True, False, cursor, start3, gap, limits, limits.v_max))
        cursor = start3
        for si, seg in enumerate(contour.segments):
            end3 = (seg.end[0], seg.end[1], contour.z_plane)
            with naming(f"contour {ci} segment {si}"):
                if isinstance(seg, LineSegment):
                    length, arc = math.dist(cursor, end3), ()
                    if length == 0.0:
                        raise ValueError("zero-length line segment")
                else:
                    length, *arc = _arc(cursor, seg)
                motions.append(_motion(False, contour.laser_on, cursor, end3, length,
                                       limits, feed, *arc))
            cursor = end3
    return motions


def _motion(rapid, laser_on, p0, p1, length, limits, feed, *arc) -> Motion:
    """The row of a move from p0 to p1; arc is _arc's centre, radius, start
    angle and sweep, or empty for a line."""
    return Motion(rapid, laser_on, bool(arc), *_profile(length, limits.a_max, feed),
                  *p0, *p1, *arc)


def _profile(length: float, a: float, feed: float) -> tuple[float, ...]:
    """Trapezoidal (or, when too short to reach the feed, triangular) speed
    profile of a move: length, accel, v_peak, t_accel, t_cruise, total_time.

    The caller keeps 0 < feed <= v_max; length must be positive and finite.
    """
    if not (math.isfinite(length) and length > 0.0):
        raise ValueError(f"path_length must be positive, got {length!r}")
    if feed * feed / a <= length:
        # Trapezoid: accelerate to feed, cruise, decelerate.
        t_accel = feed / a
        return (length, a, feed, t_accel, (length - feed * feed / a) / feed,
                length / feed + feed / a)
    # Triangle: the peak speed is reached at half the length.
    t_accel = math.sqrt(length / a)
    return length, a, math.sqrt(a * length), t_accel, 0.0, 2.0 * t_accel


def _arc(p0, seg: ArcSegment) -> tuple[float, float, float, float, float, float]:
    """Length, centre x and y, radius, start angle and signed sweep of an arc
    from p0."""
    cx, cy = seg.center
    r0 = math.dist((p0[0], p0[1]), (cx, cy))
    r1 = math.dist(seg.end, (cx, cy))
    if abs(r0 - r1) > _ARC_RADIUS_TOL:
        raise ValueError(
            f"arc start/end radii differ by {abs(r0 - r1):.3e} mm "
            f"(start r={r0}, end r={r1})"
        )
    if r0 <= 0.0:
        raise ValueError("arc radius must be positive")
    a0 = math.atan2(p0[1] - cy, p0[0] - cx)
    a1 = math.atan2(seg.end[1] - cy, seg.end[0] - cx)
    two_pi = 2.0 * math.pi
    cw = seg.direction == "cw"
    if math.dist((p0[0], p0[1]), seg.end) <= _FULL_CIRCLE_TOL:
        sweep = two_pi
    else:
        # Directed angle from start to end, in (0, 2*pi].
        sweep = ((a0 - a1) if cw else (a1 - a0)) % two_pi or two_pi
    return r0 * abs(sweep), cx, cy, r0, a0, -sweep if cw else sweep


@dataclass(frozen=True, slots=True, eq=False)
class SetpointStream:
    """Tick-sampled setpoints: time, pose, joints and laser flag per sample."""

    t: np.ndarray
    poses: np.ndarray
    joints: np.ndarray
    laser: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=np.float64)
        poses = np.asarray(self.poses, dtype=np.float64)
        joints = np.asarray(self.joints, dtype=np.float64)
        laser = np.asarray(self.laser, dtype=bool)
        n = t.size
        if n == 0:
            raise InvalidStream("stream has no samples")
        if (t.shape, poses.shape, joints.shape, laser.shape) != ((n,), (n, 3), (n, 3), (n,)):
            raise InvalidStream("stream arrays have inconsistent shapes")
        # A block at a time, so that no check allocates per sample.
        for s in range(0, n, STREAM_BLOCK_ROWS):
            block = t[s:s + STREAM_BLOCK_ROWS + 1]
            if not (block[1:] > block[:-1]).all():
                raise InvalidStream("timestamps must be strictly increasing")
        for arr, name in ((t, "t"), (poses, "poses"), (joints, "joints")):
            # The minimum or maximum is NaN or infinite when any value is.
            if not (math.isfinite(arr.min()) and math.isfinite(arr.max())):
                raise InvalidStream(f"{name} contains non-finite values")
            arr.setflags(write=False)
        laser.setflags(write=False)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "poses", poses)
        object.__setattr__(self, "joints", joints)
        object.__setattr__(self, "laser", laser)

    def __len__(self) -> int:
        return self.t.shape[0]


def plan_program(
    geometry: RobotGeometry,
    program: CutProgram,
    limits: MachineLimits | None = None,
) -> SetpointStream:
    """Sample a program on the controller tick and solve joints per sample.

    Raises ValueError, before allocating any per-sample array, when the
    program needs more than SAMPLE_BUDGET samples, and UnreachableSample at
    the first setpoint outside the workspace.
    """
    lim = limits if limits is not None else MachineLimits()
    tick = lim.tick
    table = np.array(build_motions(program, lim)).T
    col = Motion(*table)
    totals = col.total_time.tolist()
    # Each motion's ticks plus its final sample, in Python floats, so that a
    # quotient past the float range is inf without a warning.
    need = len(totals) + sum(total / tick for total in totals)
    if not need <= SAMPLE_BUDGET:
        raise ValueError(f"program needs {need:.6g} samples at tick {tick} s, "
                         f"budget is {SAMPLE_BUDGET}")
    # The last motion ends within a tick per motion of the summed times.
    if not math.isfinite(sum(totals) + len(totals) * tick):
        raise ValueError(f"program end time overflows the float range at tick {tick} s")
    # ceil(total/tick) whole-tick samples plus the clamped final one; the
    # slack tolerates one-ulp noise when total is an exact tick multiple.
    steps = np.ceil(col.total_time / tick - 1e-12).astype(np.int64)
    # Each motion starts on the first tick strictly after the last one ends.
    starts, start_tick = [], 0
    for total in totals:
        starts.append(start_tick)
        start_tick = math.floor((start_tick * tick + total) / tick + 1e-12) + 1
    starts = np.array(starts, dtype=np.int64)
    last = np.cumsum(steps + 1) - 1
    first = last - steps

    n = int(last[-1]) + 1
    t, poses, joints = np.empty(n), np.empty((n, 3)), np.empty((n, 3))
    laser = np.empty(n, dtype=bool)
    for s in range(0, n, STREAM_BLOCK_ROWS):
        e = min(s + STREAM_BLOCK_ROWS, n)
        # The motion of each sample of the block, and the sample's tick in it.
        index = np.arange(s, e)
        of = np.searchsorted(last, index)
        k = index - first[of]
        m = Motion(*table[:, of])
        t[s:e] = (starts[of] + k) * tick
        # Arc length along the profile k ticks into the motion.
        tm = k * tick
        half_a = 0.5 * m.accel
        tau = m.total_time - tm
        arc_s = np.where(tm <= 0.0, 0.0,
            np.where(tm >= m.total_time, m.length,
            np.where(tm < m.t_accel, half_a * tm * tm,
            np.where(tm < m.t_accel + m.t_cruise,
                     half_a * m.t_accel * m.t_accel + m.v_peak * (tm - m.t_accel),
                     m.length - half_a * tau * tau))))
        u = arc_s / m.length
        block = poses[s:e]
        block[:] = np.column_stack((m.x0 + u * (m.x1 - m.x0), m.y0 + u * (m.y1 - m.y0),
                                    m.z0 + u * (m.z1 - m.z0)))
        on_arc = np.flatnonzero(m.arc)
        ang = (m.a0 + m.sweep * u)[on_arc].tolist()
        # math.cos/math.sin: np.cos/np.sin can differ by one ulp on some
        # hosts and would move the frozen streams.
        cos, sin = (np.array(list(map(f, ang))) for f in (math.cos, math.sin))
        radius = m.radius[on_arc]
        block[on_arc] = np.column_stack((m.cx[on_arc] + radius * cos,
                                         m.cy[on_arc] + radius * sin, m.z1[on_arc]))
        # Each motion's last sample sits at its exact end time and point.
        end = np.flatnonzero(k == steps[of])
        t[s + end] = starts[of[end]] * tick + m.total_time[end]
        block[end] = np.column_stack((m.x1[end], m.y1[end], m.z1[end]))
        laser[s:e] = m.laser_on != 0.0
        joints[s:e], flags = inverse_kinematics_many(geometry, block)
        # Rows are samples, columns arms; name the first failing sample's first arm.
        bad = np.array([f[0] | f[1] | f[2] | f[3] for f in flags]).T
        if bad.any():
            i, arm = divmod(int(np.argmax(bad)), 3)
            raise UnreachableSample(float(t[s + i]), Pose(*block[i].tolist()), arm + 1)
    return SetpointStream(t=t, poses=poses, joints=joints, laser=laser)


@dataclass(frozen=True, slots=True)
class Violation:
    """One validator finding, anchored to a sample index."""

    index: int
    kind: str
    value: float
    limit: float


@dataclass(frozen=True, slots=True)
class StreamReport:
    """Finite-difference limit audit of a stream."""

    max_speed: float
    max_accel: float
    max_joint_step: float
    max_ik_residual: float
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


# Finite differences smear instantaneous corners, so speed gets only
# rounding headroom while acceleration gets 5 % at profile corners.
SPEED_REL_TOL = 1e-9
ACCEL_REL_TOL = 0.05
IK_RESIDUAL_TOL = 1e-9


@np.errstate(over="ignore", invalid="ignore")
def validate_stream(
    geometry: RobotGeometry,
    stream: SetpointStream,
    limits: MachineLimits | None = None,
) -> StreamReport:
    """Re-derive speeds, accelerations and joints from the samples.

    Runs STREAM_BLOCK_ROWS samples at a time.  A block reads the two samples
    after it too, so the differences across a block edge are the ones the
    whole stream gives.
    """
    lim = limits if limits is not None else MachineLimits()
    speed_limit = lim.v_max * (1.0 + SPEED_REL_TOL)
    accel_limit = lim.a_max * (1.0 + ACCEL_REL_TOL)
    peaks, violations = [], []
    for s in range(0, len(stream), STREAM_BLOCK_ROWS):
        e = s + STREAM_BLOCK_ROWS
        t = stream.t[s:e + 2]
        vel = np.diff(stream.poses[s:e + 2], axis=0) / np.diff(t)[:, None]
        # For i in the block: sample i + 1's speed from samples i and i + 1,
        # its acceleration from samples i to i + 2, its joint step.
        speed = _norms(vel[:e - s])
        accel = _norms(np.diff(vel, axis=0) / ((t[2:] - t[:-2]) / 2.0)[:, None])
        step = _row_max(np.abs(np.diff(stream.joints[s:e + 1], axis=0)))
        joints, flags = inverse_kinematics_many(geometry, stream.poses[s:e])
        bad = [f[0] | f[1] | f[2] | f[3] for f in flags]
        reachable = ~(bad[0] | bad[1] | bad[2])
        res = np.where(reachable, _row_max(np.abs(joints - stream.joints[s:e])), 0.0)
        peaks.append((speed.max(initial=0.0), accel.max(initial=0.0),
                      step.max(initial=0.0), res.max()))
        for i in np.flatnonzero(speed > speed_limit).tolist():
            violations.append(Violation(s + i + 1, "speed", float(speed[i]), lim.v_max))
        for i in np.flatnonzero(accel > accel_limit).tolist():
            violations.append(Violation(s + i + 1, "accel", float(accel[i]), lim.a_max))
        for i in np.flatnonzero(~reachable).tolist():
            violations.append(Violation(s + i, "unreachable", math.inf, 0.0))
        for i in np.flatnonzero(res > IK_RESIDUAL_TOL).tolist():
            violations.append(Violation(s + i, "ik_residual", float(res[i]), IK_RESIDUAL_TOL))

    # np.max keeps a NaN acceleration (inf - inf) as the whole stream did.
    max_speed, max_accel, max_joint_step, max_res = np.max(peaks, axis=0).tolist()
    violations.sort(key=lambda v: (v.index, v.kind))
    return StreamReport(
        max_speed=max_speed,
        max_accel=max_accel,
        max_joint_step=max_joint_step,
        max_ik_residual=max_res,
        violations=tuple(violations),
    )


def _norms(v: np.ndarray) -> np.ndarray:
    """sqrt((v * v).sum(axis=1)) of an (n, 3) array, column by column: the
    same sums, (x^2 + y^2) + z^2, at a fraction of the cost."""
    sq = v * v
    return np.sqrt(sq[:, 0] + sq[:, 1] + sq[:, 2])


def _row_max(a: np.ndarray) -> np.ndarray:
    """a.max(axis=1) of an (n, 3) array, column by column."""
    return np.maximum(np.maximum(a[:, 0], a[:, 1]), a[:, 2])


def write_stream_csv(stream: SetpointStream, path: str | Path) -> None:
    """Write the stream contract CSV: fixed header, 17 significant digits, LF."""
    line = "%.17g," * 7 + "%d\n"
    with open(path, "wb") as fh:
        fh.write((",".join(_CSV_HEADER) + "\n").encode())
        for s in range(0, len(stream), STREAM_BLOCK_ROWS):
            e = s + STREAM_BLOCK_ROWS
            values = np.column_stack((stream.t[s:e], stream.poses[s:e], stream.joints[s:e]))
            # Column by column, a 45-byte value cell, its comma, and on the
            # last value of a row the laser flag and LF; NUL pads the rest.
            cells = np.zeros((48, len(values), 7), np.uint8)
            exact = _format_g17(values.ravel(), cells[:45].reshape(45, -1)).reshape(-1, 7)
            cells[45] = ord(",")
            cells[46, :, 6] = stream.laser[s:e] + ord("0")
            cells[47, :, 6] = ord("\n")
            rows = cells.transpose(1, 2, 0).reshape(len(values), -1)
            for i in np.flatnonzero(~exact.all(axis=1)).tolist():
                text = (line % (*values[i].tolist(), stream.laser[s + i])).encode()
                rows[i] = np.frombuffer(text.ljust(rows.shape[1], b"\0"), np.uint8)
            fh.write(rows.tobytes().translate(None, b"\0"))


@functools.cache
def _powers_of_ten() -> np.ndarray:
    """Rows for k in [-280, 280]: 10**(16 - k) as hi + lo, hi's two halves
    for Dekker's product, and the least double not below 10**k.

    Built on first use: the big-int divisions take a few milliseconds.  The
    range keeps 10**(16 - k), |x| and their splits well inside the doubles.
    """
    def nearest(e):
        """10**e's nearest double and the rest's, by correctly rounded int / int."""
        num, den = 10 ** max(e, 0), 10 ** max(-e, 0)
        hi = num / den
        n, d = hi.as_integer_ratio()
        return hi, (num * d - n * den) / (den * d)

    rows = []
    for k in range(-280, 281):
        near, rest = nearest(k)
        rows.append((*nearest(16 - k), math.nextafter(near, math.inf) if rest > 0 else near))
    hi, lo, floor = np.array(rows).T
    c = 134217729.0 * hi  # 2**27 + 1 splits a double into two 26-bit halves
    head = c - (c - hi)
    table = np.stack((hi, head, hi - head, lo, floor))
    table.setflags(write=False)
    return table


_DIGIT_PAIRS = np.frombuffer(b"".join(b"%02d" % i for i in range(100)), np.uint16)


def _format_g17(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Lay out "%.17g" of each x in the columns of out; True where certified.

    Column j of out is one cell: the sign, a leading 0, the integer digits,
    the point, up to three zeros, the fraction digits and the exponent,
    each in fixed rows of NUL-padded bytes.  With k = floor(log10|x|),
    |x| * 10**(16 - k) is taken in double-double arithmetic and rounded to
    the 17-digit integer D.  The result is certified unless the fraction
    is within 1e-6 of a half, |x| < 10**k (log10 rounded up), or the
    product is within 64 of 1e17 (log10 rounded down, or D would round up
    to 1e17); 0.0 and -0.0 are exact.
    """
    a = np.abs(x)
    with np.errstate(divide="ignore"):
        k = np.floor(np.log10(a))
    table = _powers_of_ten()
    k_max = table.shape[1] // 2
    exact = np.abs(k) <= k_max
    a = np.where(exact, a, 0.0)
    k = np.where(exact, k, 0.0).astype(np.int64)
    hi, hi_head, hi_tail, lo, floor = np.take(table, k + k_max, axis=1)
    c = 134217729.0 * a
    head = c - (c - a)
    tail = a - head
    p = a * hi
    err = ((head * hi_head - p) + head * hi_tail + tail * hi_head) + tail * hi_tail + a * lo
    whole = np.floor(err)
    frac = err - whole
    exact &= (np.abs(frac - 0.5) > 1e-6) & (a >= floor) & (p <= 1e17 - 64)
    exact |= x == 0.0
    d = p.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    digits = np.empty((17, x.size), np.uint8)
    for j in range(15, 0, -2):
        q = d // 100
        digits[j:j + 2] = np.take(_DIGIT_PAIRS, d - q * 100).view(np.uint8).reshape(-1, 2).T
        d = q
    digits[0] = d + ord("0")
    i = np.arange(17, dtype=np.uint8)[:, None]
    last = (i * (digits != ord("0"))).max(axis=0)  # the last nonzero digit
    # The digit before the point: "%g" takes exponent form when k < -4 or
    # k >= 17, and trailing zeros go.
    fixed = (k >= -4) & (k < 17)
    point = np.where(fixed, k, 0)
    out[0] = np.where(np.signbit(x), ord("-"), 0)
    out[1] = np.where(point < 0, ord("0"), 0)
    np.multiply(digits, i <= point, out=out[2:19])
    out[19] = np.where(last > point, ord("."), 0)
    out[20:23] = np.where(i[:3] < -1 - point, ord("0"), 0)
    np.multiply(digits, (i > point) & (i <= last), out=out[23:40])
    mag = np.abs(k)
    out[40] = ord("e")
    out[41] = np.where(k < 0, ord("-"), ord("+"))
    out[42] = np.where(mag >= 100, mag // 100 + ord("0"), 0)
    out[43:45] = np.take(_DIGIT_PAIRS, mag % 100).view(np.uint8).reshape(-1, 2).T
    out[40:45] *= ~fixed
    return exact


def read_stream_csv(path: str | Path) -> SetpointStream:
    """Read a stream written by write_stream_csv.

    Lines end at LF, CRLF or a lone CR (universal newlines turn each into
    LF), and blank lines are skipped.  One np.loadtxt call parses the rows
    in C into one record array, which the stream's arrays view.  A file it
    refuses or warns on, whose values fail the stream's checks, or that
    holds a byte 0x1C-0x1F (numpy strips these, float() refuses them), is
    read again line by line with float() and int(), each row into an array
    sized by a count of the lines after the header.
    """
    with open(path, "rb") as raw:
        # Whether the file holds a byte that numpy strips and float() refuses.
        separators = False
        for chunk in iter(lambda: raw.read(1 << 20), b""):
            separators = separators or any(
                c in chunk for c in (b"\x1c", b"\x1d", b"\x1e", b"\x1f"))
        raw.seek(0)
        fh = io.TextIOWrapper(raw, encoding="utf-8", errors="surrogateescape")
        header = fh.readline()
        if not header:
            raise InvalidStream(f"stream file {path} is empty")
        if tuple(header.rstrip("\n").split(",")) != _CSV_HEADER:
            raise InvalidStream(
                f"stream file {path}: header must be {','.join(_CSV_HEADER)}"
            )
        if not separators:
            # As errors: "input contained no data", and before numpy 2.0 a
            # float in the integer column.
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    record = np.loadtxt(fh, delimiter=",", comments=None, ndmin=1,
                                        dtype=_CSV_ROW)
                except (ValueError, Warning):
                    record = None
            if record is not None and (record["l"].view(np.uint8) <= 1).all():
                v = record["v"]
                # A non-finite value or a time not above the one before it.
                with contextlib.suppress(InvalidStream):
                    return SetpointStream(t=v[:, 0], poses=v[:, 1:4], joints=v[:, 4:7],
                                          laser=record["l"].view(bool))
        fh.seek(0)
        cap = sum(1 for _ in fh) - 1  # the lines after the header
        fh.seek(0)
        fh.readline()
        table, n, prev_t = np.empty((cap, 8)), 0, -math.inf
        for ln, line in enumerate(fh, start=2):
            row = line.rstrip("\n").split(",")
            if row == [""]:
                continue
            where = f"stream file {path}: line {ln}"
            if len(row) != 8:
                raise InvalidStream(f"{where} has {len(row)} fields")
            try:
                values = [float(v) for v in row[:7]]
                flag = int(row[7])
            except ValueError as exc:
                raise InvalidStream(f"{where}: {exc}") from exc
            if flag not in (0, 1):
                raise InvalidStream(f"{where}: laser must be 0 or 1")
            for name, value in zip(_CSV_HEADER, values):
                if not math.isfinite(value):
                    raise InvalidStream(f"{where}: {name} must be finite, got {value}")
            if not values[0] > prev_t:
                raise InvalidStream(f"{where}: timestamps must be strictly increasing")
            table[n] = values + [flag]
            n, prev_t = n + 1, values[0]
    if n == 0:
        raise InvalidStream(f"stream file {path} has no samples")
    table.resize((n, 8), refcheck=False)
    return SetpointStream(t=table[:, 0], poses=table[:, 1:4], joints=table[:, 4:7],
                          laser=table[:, 7])


def load_program(path: str | Path) -> CutProgram:
    """Read a cut-program JSON file; schema documented in the README."""
    with read_json(path, "program file") as raw:
        contours = fields(raw, "top level", ("contours",))["contours"]
        return CutProgram(contours=tuple(
            _load_contour(rc, f"contour {ci}")
            for ci, rc in enumerate(as_list("contours", contours))
        ))


def _load_contour(rc, where: str) -> Contour:
    fields(rc, where, ("start", "segments", "z_plane"), ("laser_on", "feed"))
    with naming(where):
        segments = [_load_segment(rs, f"segment {si}")
                    for si, rs in enumerate(as_list("segments", rc["segments"]))]
        return Contour(start=rc["start"], segments=tuple(segments), z_plane=rc["z_plane"],
                       laser_on=rc.get("laser_on", True), feed=rc.get("feed"))


def _load_segment(rs, where: str) -> LineSegment | ArcSegment:
    with naming(where):
        kind = rs.get("type") if isinstance(rs, dict) else None
        if kind == "line":
            fields(rs, "line segment", ("type", "end"))
            return LineSegment(end=rs["end"])
        if kind == "arc":
            fields(rs, "arc segment", ("type", "end", "center"), ("direction",))
            return ArcSegment(end=rs["end"], center=rs["center"],
                              direction=rs.get("direction", "ccw"))
        fields(rs, "segment", ("type",), ("end", "center", "direction"))
        raise ValueError(f"unknown type {kind!r}")
