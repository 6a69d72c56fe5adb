"""Cut-program planning: trapezoidal profiles, tick sampling, joint streams.

Every motion (contour segment or linking rapid) is planned independently
with a trapezoidal speed profile and full stops at its ends, then sampled on
the controller tick.  Within a motion the samples sit at multiples of the
tick except the last, which is clamped to the exact motion end time so the
endpoint is hit exactly.  The next motion starts on the first tick boundary
strictly after that, so the machine dwells stopped for less than one tick at
each junction and timestamps stay strictly increasing.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (EmptyProgram, InvalidFeed, InvalidStream, UnreachableSample, Unreachable,
                     read_json)
from .geometry import Pose, RobotGeometry
from .kinematics import inverse_kinematics, inverse_kinematics_many

_CSV_HEADER = ("t", "x", "y", "z", "theta1", "theta2", "theta3", "laser")
_ARC_RADIUS_TOL = 1e-6
_FULL_CIRCLE_TOL = 1e-9


@dataclass(frozen=True, slots=True)
class MachineLimits:
    """Cartesian path limits and the controller tick."""

    v_max: float = 1000.0   # mm/s   (60 m/min)
    a_max: float = 23000.0  # mm/s^2 (23 m/s^2)
    tick: float = 0.0025    # s      (2.5 ms)

    def __post_init__(self):
        for name in ("v_max", "a_max", "tick"):
            value = float(getattr(self, name))
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be positive and finite")
            object.__setattr__(self, name, value)


@dataclass(frozen=True, slots=True)
class MotionProfile:
    """Trapezoidal (or triangular) speed profile over a fixed path length."""

    length: float
    accel: float
    v_peak: float
    t_accel: float
    t_cruise: float
    total_time: float

    def position(self, t: float) -> float:
        """Arc length travelled at time t, clamped to [0, length]."""
        if t <= 0.0:
            return 0.0
        if t >= self.total_time:
            return self.length
        if t < self.t_accel:
            return 0.5 * self.accel * t * t
        d_acc = 0.5 * self.accel * self.t_accel * self.t_accel
        if t < self.t_accel + self.t_cruise:
            return d_acc + self.v_peak * (t - self.t_accel)
        tau = self.total_time - t
        return self.length - 0.5 * self.accel * tau * tau

    def speed(self, t: float) -> float:
        if t <= 0.0 or t >= self.total_time:
            return 0.0
        if t < self.t_accel:
            return self.accel * t
        if t < self.t_accel + self.t_cruise:
            return self.v_peak
        return self.accel * (self.total_time - t)


def plan_profile(path_length: float, limits: MachineLimits, feed: float) -> MotionProfile:
    """Profile a motion of the given length at the requested feed.

    Raises InvalidFeed unless 0 < feed <= v_max; path_length must be
    positive.
    """
    if not (math.isfinite(path_length) and path_length > 0.0):
        raise ValueError(f"path_length must be positive, got {path_length!r}")
    if not (math.isfinite(feed) and 0.0 < feed <= limits.v_max):
        raise InvalidFeed(f"feed must satisfy 0 < feed <= {limits.v_max}, got {feed}")
    a = limits.a_max
    if feed * feed / a <= path_length:
        # Trapezoid: accelerate to feed, cruise, decelerate.
        v = feed
        t_accel = v / a
        t_cruise = (path_length - v * v / a) / v
        total = path_length / v + v / a
    else:
        # Too short to reach the feed: triangular peak.
        v = math.sqrt(a * path_length)
        t_accel = math.sqrt(path_length / a)
        t_cruise = 0.0
        total = 2.0 * t_accel
    return MotionProfile(
        length=path_length, accel=a, v_peak=v,
        t_accel=t_accel, t_cruise=t_cruise, total_time=total,
    )


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
    if not (isinstance(pair, (tuple, list)) and len(pair) == 2):
        raise ValueError(f"{what} must be an (x, y) pair")
    x, y = float(pair[0]), float(pair[1])
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"{what} must be finite")
    return (x, y)


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
        z = float(self.z_plane)
        if not math.isfinite(z):
            raise ValueError("z_plane must be finite")
        object.__setattr__(self, "z_plane", z)
        if self.feed is not None:
            fv = float(self.feed)
            if not (math.isfinite(fv) and fv > 0.0):
                raise ValueError(f"contour feed must be positive, got {self.feed!r}")
            object.__setattr__(self, "feed", fv)


@dataclass(frozen=True, slots=True)
class CutProgram:
    """An ordered list of contours; rapids link them automatically."""

    contours: tuple[Contour, ...]

    def __post_init__(self):
        object.__setattr__(self, "contours", tuple(self.contours))
        for c in self.contours:
            if not isinstance(c, Contour):
                raise ValueError("contours must be Contour instances")


class _LinePath:
    __slots__ = ("p0", "p1", "length")

    def __init__(self, p0, p1):
        self.p0 = p0
        self.p1 = p1
        self.length = math.dist(p0, p1)

    def point(self, s: float) -> tuple[float, float, float]:
        u = s / self.length
        return (
            self.p0[0] + u * (self.p1[0] - self.p0[0]),
            self.p0[1] + u * (self.p1[1] - self.p0[1]),
            self.p0[2] + u * (self.p1[2] - self.p0[2]),
        )


class _ArcPath:
    __slots__ = ("center", "z", "radius", "a0", "sweep", "length", "p1")

    def __init__(self, p0, seg: ArcSegment, z: float):
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
        self.center = (cx, cy)
        self.z = z
        self.radius = r0
        self.a0 = math.atan2(p0[1] - cy, p0[0] - cx)
        a1 = math.atan2(seg.end[1] - cy, seg.end[0] - cx)
        two_pi = 2.0 * math.pi
        cw = seg.direction == "cw"
        if math.dist((p0[0], p0[1]), seg.end) <= _FULL_CIRCLE_TOL:
            sweep = two_pi
        else:
            # Directed angle from start to end, in (0, 2*pi].
            sweep = ((self.a0 - a1) if cw else (a1 - self.a0)) % two_pi or two_pi
        self.sweep = -sweep if cw else sweep
        self.length = self.radius * abs(sweep)
        self.p1 = (seg.end[0], seg.end[1], z)

    def point(self, s: float) -> tuple[float, float, float]:
        ang = self.a0 + self.sweep * (s / self.length)
        return (
            self.center[0] + self.radius * math.cos(ang),
            self.center[1] + self.radius * math.sin(ang),
            self.z,
        )


@dataclass(frozen=True, slots=True)
class Motion:
    """One profiled move: a contour segment or a linking rapid."""

    path: object
    profile: MotionProfile
    laser_on: bool
    rapid: bool


def build_motions(
    program: CutProgram, limits: MachineLimits
) -> list[Motion]:
    """Expand a program into profiled motions, rapids included."""
    if not program.contours:
        raise EmptyProgram("program has no contours")
    motions: list[Motion] = []
    cursor: tuple[float, float, float] | None = None
    for contour in program.contours:
        feed = contour.feed if contour.feed is not None else limits.v_max
        if contour.feed is not None and contour.feed > limits.v_max:
            raise InvalidFeed(
                f"contour feed {contour.feed} exceeds v_max {limits.v_max}"
            )
        start3 = (contour.start[0], contour.start[1], contour.z_plane)
        if cursor is not None and math.dist(cursor, start3) > 0.0:
            path = _LinePath(cursor, start3)
            motions.append(Motion(
                path=path,
                profile=plan_profile(path.length, limits, limits.v_max),
                laser_on=False,
                rapid=True,
            ))
        cursor = start3
        for seg in contour.segments:
            if isinstance(seg, LineSegment):
                end3 = (seg.end[0], seg.end[1], contour.z_plane)
                if math.dist(cursor, end3) == 0.0:
                    raise ValueError("zero-length line segment in contour")
                path = _LinePath(cursor, end3)
            else:
                path = _ArcPath(cursor, seg, contour.z_plane)
            motions.append(Motion(
                path=path,
                profile=plan_profile(path.length, limits, feed),
                laser_on=contour.laser_on,
                rapid=False,
            ))
            cursor = path.p1
    return motions


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
        n = t.shape[0]
        if n == 0:
            raise InvalidStream("stream has no samples")
        if t.ndim != 1 or poses.shape != (n, 3) or joints.shape != (n, 3) or laser.shape != (n,):
            raise InvalidStream("stream arrays have inconsistent shapes")
        if not (np.diff(t) > 0.0).all():
            raise InvalidStream("timestamps must be strictly increasing")
        for arr, name in ((t, "t"), (poses, "poses"), (joints, "joints")):
            if not np.isfinite(arr).all():
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

    Raises UnreachableSample at the first setpoint outside the workspace.
    """
    lim = limits if limits is not None else MachineLimits()
    motions = build_motions(program, lim)
    tick = lim.tick

    times: list[float] = []
    poses: list[tuple[float, float, float]] = []
    laser: list[bool] = []
    start_tick = 0
    prev_end_t = None
    for motion in motions:
        if prev_end_t is not None:
            start_tick = math.floor(prev_end_t / tick + 1e-12) + 1
        total = motion.profile.total_time
        # ceil(total/tick) whole-tick samples plus the clamped final one; the
        # slack tolerates one-ulp noise when total is an exact tick multiple.
        steps = math.ceil(total / tick - 1e-12)
        for k in range(steps):
            t_local = k * tick
            s = motion.profile.position(t_local)
            times.append((start_tick + k) * tick)
            poses.append(motion.path.point(s))
            laser.append(motion.laser_on)
        end_t = start_tick * tick + total
        times.append(end_t)
        poses.append(motion.path.p1)
        laser.append(motion.laser_on)
        prev_end_t = end_t

    pose_array = np.array(poses, dtype=np.float64)
    joints, reachable = inverse_kinematics_many(geometry, pose_array)
    if not reachable.all():
        # The scalar solver shares the kernel, so it fails here too and
        # names the arm and the reason.
        i = int(np.argmin(reachable))
        pose = Pose(*poses[i])
        try:
            inverse_kinematics(geometry, pose)
        except Unreachable as exc:
            raise UnreachableSample(times[i], pose, exc.arm_index) from exc

    return SetpointStream(
        t=np.array(times, dtype=np.float64),
        poses=pose_array,
        joints=joints,
        laser=np.array(laser, dtype=bool),
    )


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


def validate_stream(
    geometry: RobotGeometry,
    stream: SetpointStream,
    limits: MachineLimits | None = None,
) -> StreamReport:
    """Re-derive speeds, accelerations and joints from the samples."""
    lim = limits if limits is not None else MachineLimits()
    t = stream.t
    p = stream.poses
    violations: list[Violation] = []

    dt = np.diff(t)
    dp = np.diff(p, axis=0)
    vel = dp / dt[:, None]
    speed = np.sqrt((vel * vel).sum(axis=1))
    max_speed = float(speed.max()) if speed.size else 0.0
    speed_limit = lim.v_max * (1.0 + SPEED_REL_TOL)
    for i in np.nonzero(speed > speed_limit)[0]:
        violations.append(Violation(int(i) + 1, "speed", float(speed[i]), lim.v_max))

    max_accel = 0.0
    if len(stream) >= 3:
        mid_dt = (t[2:] - t[:-2]) / 2.0
        dv = np.diff(vel, axis=0)
        acc = dv / mid_dt[:, None]
        accel = np.sqrt((acc * acc).sum(axis=1))
        max_accel = float(accel.max())
        accel_limit = lim.a_max * (1.0 + ACCEL_REL_TOL)
        for i in np.nonzero(accel > accel_limit)[0]:
            violations.append(Violation(int(i) + 1, "accel", float(accel[i]), lim.a_max))

    dj = np.abs(np.diff(stream.joints, axis=0)).max(axis=1) if len(stream) > 1 else np.zeros(0)
    max_joint_step = float(dj.max()) if dj.size else 0.0

    joints, reachable = inverse_kinematics_many(geometry, p)
    res = np.where(reachable, np.abs(joints - stream.joints).max(axis=1), 0.0)
    max_res = float(res.max())
    for i in np.nonzero(~reachable)[0]:
        violations.append(Violation(int(i), "unreachable", math.inf, 0.0))
    for i in np.nonzero(res > IK_RESIDUAL_TOL)[0]:
        violations.append(Violation(int(i), "ik_residual", float(res[i]), IK_RESIDUAL_TOL))

    violations.sort(key=lambda v: (v.index, v.kind))
    return StreamReport(
        max_speed=max_speed,
        max_accel=max_accel,
        max_joint_step=max_joint_step,
        max_ik_residual=max_res,
        violations=tuple(violations),
    )


def write_stream_csv(stream: SetpointStream, path: str | Path) -> None:
    """Write the stream contract CSV: fixed header, 17 significant digits, LF."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(_CSV_HEADER))
        fh.write("\n")
        for i in range(len(stream)):
            row = [
                _fmt(stream.t[i]),
                _fmt(stream.poses[i, 0]), _fmt(stream.poses[i, 1]), _fmt(stream.poses[i, 2]),
                _fmt(stream.joints[i, 0]), _fmt(stream.joints[i, 1]), _fmt(stream.joints[i, 2]),
                "1" if stream.laser[i] else "0",
            ]
            fh.write(",".join(row))
            fh.write("\n")


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def read_stream_csv(path: str | Path) -> SetpointStream:
    """Read a stream written by write_stream_csv."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InvalidStream(f"stream file {path} is empty") from None
        if tuple(header) != _CSV_HEADER:
            raise InvalidStream(
                f"stream file {path}: header must be {','.join(_CSV_HEADER)}"
            )
        times, poses, joints, laser = [], [], [], []
        for ln, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 8:
                raise InvalidStream(f"stream file {path}: line {ln} has {len(row)} fields")
            try:
                values = [float(v) for v in row[:7]]
                flag = int(row[7])
            except ValueError as exc:
                raise InvalidStream(f"stream file {path}: line {ln}: {exc}") from exc
            if flag not in (0, 1):
                raise InvalidStream(f"stream file {path}: line {ln}: laser must be 0 or 1")
            times.append(values[0])
            poses.append(values[1:4])
            joints.append(values[4:7])
            laser.append(bool(flag))
    if not times:
        raise InvalidStream(f"stream file {path} has no samples")
    return SetpointStream(
        t=np.array(times), poses=np.array(poses),
        joints=np.array(joints), laser=np.array(laser, dtype=bool),
    )


def load_program(path: str | Path) -> CutProgram:
    """Read a cut-program JSON file; schema documented in the README."""
    raw = read_json(path, "program file")
    if not isinstance(raw, dict) or "contours" not in raw:
        raise ValueError(f"program file {path}: expected an object with 'contours'")
    if not isinstance(raw["contours"], list):
        raise ValueError(f"program file {path}: contours must be a list, got {raw['contours']!r}")
    contours = []
    for ci, rc in enumerate(raw["contours"]):
        if not isinstance(rc, dict):
            raise ValueError(f"program file {path}: contour {ci} must be an object")
        try:
            segments = []
            for si, rs in enumerate(rc.get("segments", [])):
                kind = rs.get("type")
                if kind == "line":
                    segments.append(LineSegment(end=tuple(rs["end"])))
                elif kind == "arc":
                    segments.append(ArcSegment(
                        end=tuple(rs["end"]),
                        center=tuple(rs["center"]),
                        direction=rs.get("direction", "ccw"),
                    ))
                else:
                    raise ValueError(f"segment {si}: unknown type {kind!r}")
            contour = Contour(
                start=tuple(rc["start"]),
                segments=tuple(segments),
                z_plane=rc["z_plane"],
                laser_on=bool(rc.get("laser_on", True)),
                feed=rc.get("feed"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"program file {path}: contour {ci}: {exc}") from exc
        contours.append(contour)
    return CutProgram(contours=tuple(contours))
