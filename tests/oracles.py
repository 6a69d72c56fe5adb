"""Independent reference solvers used to freeze expected test values.

Deliberately different algebra from the package: rotations come from
math.cos/math.sin of the arm angles, the per-arm solve goes through the
radical line and an explicit quadratic, and the three-sphere solve
parametrises the intersection line of the two difference planes with a
least-squares particular point.  Agreement with the package is therefore
evidence, not tautology.

simulate_ticks is the watchdog as it first ran: a state machine stepped
through every tick, rescanning the fault windows on each pulse tick.  The
package finds the same trips from the pulse schedule instead.

plan_samples and write_stream_rows are the planner's sampling loop and the
stream writer as they first ran: one profile position, one path point and
one formatted value at a time.  plan_samples reads the motion rows of
build_motions through profile_position and path_point, one sample at a
time; the package samples a block of samples at a time with array code.
The same samples and bytes come out.

plan_one_pass and validate_one_pass are the planner and the validator as
they ran before sample blocks: every per-sample temporary, from the motion
index to the joint solutions and the finite differences, spans the whole
stream at once.  The package runs STREAM_BLOCK_ROWS samples at a time, and
the validator reads two samples past each block; the same streams and
reports come out.

read_stream_rows is the stream reader as it first ran: csv.reader, one row
and one float() per field at a time.  The package parses a whole file with
np.loadtxt, walks the lines of a file numpy refuses with float() and int(),
and also names the line of a non-finite or out-of-order value.

run_ga_slots is the GA as it first bred: one offspring slot at a time, two
tournaments of min() over a (-fitness, index) key, then crossover and
mutation on that slot's 4-element genome.  The package draws the same
numbers in the same order and breeds a whole generation with array code.
fitness_per_genome scores a population one RobotGeometry at a time, with
coverage(); the package masks unassemblable genomes out with array code.
random_search_exhaustive is the random-search baseline as it first ran:
every genome drawn is scored.  The package scores only the genomes whose
fitness bound, 1 - penalty, beats the best fitness so far.

draw_slots_numpy is a generation's draws as run_ga_slots makes them, numpy's
own integers() call per tournament; the package rebuilds the entrants and
the crossover coins from raw 64-bit words.

scan_live_columns is the workspace scan as it ran before column runs: a
plane probe drops the columns some arm's plane misses, and the kernel tests
every cell of the others.  The package decides most cells from closed-form
z-bounds per column and runs the kernel only near the bounds.

arm_kernel_selects is the arm kernel as it ran with conditional selects:
np.where on arrays and pick on Python floats, for every clamp, flag and
elbow-out branch.  The package clamps with maxima, adds or xors the flags
in and takes the branch as a sign factor of +1 or -1, with no selects.

coverage_links_kernel is point-set coverage as it ran before the closed-form
pair verdict: the kernel tests every geometry x point pair, in blocks of at
most PAIR_BUDGET pairs.  The package decides most pairs in closed form and
runs the kernel only on the pairs within the verdict's margin.

fk_planes is forward kinematics as it ran before the circumcentre solve:
pairwise sphere subtraction gives two planes, a third row pins the point of
their line in the centres' plane, and Cramer's rule solves the 3 x 3
system.  The package takes the centres' circumcentre in closed form.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

from deltacut import design_opt
from deltacut.control_sim import (
    FaultScript,
    FaultWindow,
    ProcessSpec,
    SimulationResult,
    TraceEvent,
    WatchdogConfig,
)
from deltacut.design_opt import (
    _BASELINE_STREAM,
    _BLEND_ALPHA,
    INFEASIBLE_FITNESS,
    DesignBounds,
    GaConfig,
    GaResult,
    population_fitness,
)
from deltacut.errors import (
    InvalidStream,
    NoSolution,
    Singular,
    UnknownProcess,
    Unreachable,
    UnreachableSample,
)
from deltacut.geometry import THETA_MAX, THETA_MIN, JointAngles, Pose, RobotGeometry
from deltacut.kinematics import (
    ARM_COS,
    ARM_SIN,
    DISC_TOL_FRAC,
    RANK_TOL,
    _plane_cut,
    inverse_kinematics,
    inverse_kinematics_many,
    reachable_mask,
)
from deltacut.trajectory import (
    _CSV_HEADER,
    ACCEL_REL_TOL,
    IK_RESIDUAL_TOL,
    SPEED_REL_TOL,
    MachineLimits,
    Motion,
    SetpointStream,
    StreamReport,
    Violation,
    build_motions,
)
from deltacut.workspace import (
    PAIR_BUDGET,
    SLAB_CELLS,
    GridSpec,
    PrescribedWorkspace,
    WorkspaceGrid,
    _blocks,
    _LinkColumns,
    coverage,
)

TOL = 1e-12


def arm_basis(arm_index: int) -> tuple[float, float]:
    """(cos, sin) of the world-to-arm rotation, -(i-1)*120 degrees."""
    ang = math.radians(-120.0 * (arm_index - 1))
    return math.cos(ang), math.sin(ang)


def offsets(f: float, e: float) -> tuple[float, float]:
    """Base and effector pivot offsets for triangle sides f and e."""
    return f / (2.0 * math.sqrt(3.0)), e / (2.0 * math.sqrt(3.0))


def home_z(f: float, e: float, r_f: float, r_e: float) -> float:
    a, b = offsets(f, e)
    reach = a + r_f - b
    return -math.sqrt(r_e * r_e - reach * reach)


def ik_arm(f, e, r_f, r_e, x, y, z, arm_index):
    """One arm via the radical line; returns (theta, knee_y, knee_z) or None.

    None means the arm cannot reach the pose (no circle intersection or the
    selected knee leaves the (-pi/2, pi) angle interval).
    """
    a, b = offsets(f, e)
    c, s = arm_basis(arm_index)
    xp = x * c - y * s
    yp = x * s + y * c

    rc2 = r_e * r_e - xp * xp
    if rc2 < -TOL * r_e * r_e:
        return None
    rc2 = max(rc2, 0.0)

    # Knee K on two circles: |K - (-a, 0)| = r_f and |K - (py, pz)| = rc.
    py = yp - b
    pz = z
    # Radical line A*ky + B*kz = C from subtracting the circle equations.
    big_a = 2.0 * (py + a)
    big_b = 2.0 * pz
    big_c = r_f * r_f - rc2 - a * a + py * py + pz * pz
    if big_a == 0.0 and big_b == 0.0:
        return None

    candidates = []
    if abs(big_b) >= abs(big_a):
        # kz = (C - A*ky)/B; substitute into the pivot circle.
        alpha = big_a / big_b
        beta = big_c / big_b
        qa = 1.0 + alpha * alpha
        qb = 2.0 * (a - alpha * beta)
        qc = a * a + beta * beta - r_f * r_f
        roots = _quad_roots(qa, qb, qc, r_f * r_f)
        if roots is None:
            return None
        for ky in roots:
            candidates.append((ky, beta - alpha * ky))
    else:
        # ky = (C - B*kz)/A.
        alpha = big_b / big_a
        beta = big_c / big_a
        qa = 1.0 + alpha * alpha
        qb = -2.0 * alpha * (a + beta)
        qc = (a + beta) * (a + beta) - r_f * r_f
        roots = _quad_roots(qa, qb, qc, r_f * r_f)
        if roots is None:
            return None
        for kz in roots:
            candidates.append((beta - alpha * kz, kz))

    candidates.sort(key=lambda k: (k[0], k[1]))
    ky, kz = candidates[0]
    theta = math.atan2(-kz, -(ky + a))
    if not (-math.pi / 2.0 < theta < math.pi):
        return None
    return theta, ky, kz


def _quad_roots(qa, qb, qc, scale2):
    disc = qb * qb - 4.0 * qa * qc
    if disc < -TOL * scale2:
        return None
    disc = max(disc, 0.0)
    root = math.sqrt(disc)
    return ((-qb - root) / (2.0 * qa), (-qb + root) / (2.0 * qa))


def ik(f, e, r_f, r_e, x, y, z):
    """All three arms; None if any arm fails."""
    thetas = []
    for arm in (1, 2, 3):
        sol = ik_arm(f, e, r_f, r_e, x, y, z, arm)
        if sol is None:
            return None
        thetas.append(sol[0])
    return tuple(thetas)


def fk(f, e, r_f, r_e, t1, t2, t3):
    """Three-sphere intersection; returns (x, y, z) or the failure kind.

    Failure kinds: 'singular' (centres do not span a plane) and
    'no_solution' (no intersection below the base plane).
    """
    a, b = offsets(f, e)
    centers = []
    for arm, theta in zip((1, 2, 3), (t1, t2, t3)):
        c, s = arm_basis(arm)
        # Knee in the arm frame, shifted by +b along arm-frame y, then
        # rotated back to the world (inverse rotation: angle +120*(i-1)).
        ky = -a - r_f * math.cos(theta) + b
        kz = -r_f * math.sin(theta)
        centers.append((ky * s, ky * c, kz))
    centers = np.array(centers)

    # Subtracting sphere equations pairwise leaves two planes.
    n1 = 2.0 * (centers[1] - centers[0])
    n2 = 2.0 * (centers[2] - centers[0])
    d1 = centers[1] @ centers[1] - centers[0] @ centers[0]
    d2 = centers[2] @ centers[2] - centers[0] @ centers[0]
    direction = np.cross(n1, n2)
    norm = np.linalg.norm(direction)
    if norm < 1e-9 * max(np.linalg.norm(n1), np.linalg.norm(n2), 1e-30):
        return "singular"
    point, *_ = np.linalg.lstsq(np.stack([n1, n2]), np.array([d1, d2]), rcond=None)

    # |point + s*direction - c0|^2 = r_e^2, a quadratic in s.
    rel = point - centers[0]
    qa = direction @ direction
    qb = 2.0 * (rel @ direction)
    qc = rel @ rel - r_e * r_e
    disc = qb * qb - 4.0 * qa * qc
    if disc < -TOL * (r_e * r_e) * qa:
        return "no_solution"
    disc = max(disc, 0.0)
    root = math.sqrt(disc)
    sols = [point + ((-qb - root) / (2.0 * qa)) * direction,
            point + ((-qb + root) / (2.0 * qa)) * direction]
    below = [p for p in sols if p[2] < 0.0]
    if not below:
        return "no_solution"
    best = min(below, key=lambda p: p[2])
    return (float(best[0]), float(best[1]), float(best[2]))


def reachable(f, e, r_f, r_e, x, y, z) -> bool:
    return ik(f, e, r_f, r_e, x, y, z) is not None


def grid_counts(f, e, r_f, r_e, lo, hi, res):
    """Brute-force occupancy over cell centres; returns (dims, count, flags).

    dims is (nx, ny, nz); flags is a z-major, y-middle, x-minor nested list
    of '0'/'1' strings, one string per (iz, iy) row.
    """
    nx = max(1, math.ceil((hi[0] - lo[0]) / res))
    ny = max(1, math.ceil((hi[1] - lo[1]) / res))
    nz = max(1, math.ceil((hi[2] - lo[2]) / res))
    rows = []
    count = 0
    for iz in range(nz):
        z = lo[2] + (iz + 0.5) * res
        for iy in range(ny):
            y = lo[1] + (iy + 0.5) * res
            bits = []
            for ix in range(nx):
                x = lo[0] + (ix + 0.5) * res
                ok = reachable(f, e, r_f, r_e, x, y, z)
                bits.append("1" if ok else "0")
                count += ok
            rows.append("".join(bits))
    return (nx, ny, nz), count, rows


def grid_dump_bytes(grid, geometry=None) -> bytes:
    """A grid dump written the slow way: the JSON header line, then one
    '0'/'1' string per (z, y) row joined from per-cell characters."""
    spec = grid.spec
    nx, ny, nz = spec.dims
    header = {
        "format": "deltacut-grid",
        "version": 1,
        "bounds": {"x_min": spec.x_min, "x_max": spec.x_max,
                   "y_min": spec.y_min, "y_max": spec.y_max,
                   "z_min": spec.z_min, "z_max": spec.z_max,
                   "resolution": spec.resolution},
        "dims": [nx, ny, nz],
        "order": "x fastest, then y, then z",
    }
    if geometry is not None:
        header["geometry"] = {"f": geometry.f, "e": geometry.e,
                              "rf": geometry.r_f, "re": geometry.r_e}
    lines = [json.dumps(header, sort_keys=True, separators=(",", ":"))]
    digits = np.where(grid.occupancy, "1", "0")
    for iz in range(nz):
        for iy in range(ny):
            lines.append("".join(digits[iz, iy]))
    return ("\n".join(lines) + "\n").encode("utf-8")


def trapezoid_total_time(length: float, feed: float, a_max: float) -> float:
    """Closed-form motion time, trapezoid or triangle."""
    if feed * feed / a_max <= length:
        return length / feed + feed / a_max
    return 2.0 * math.sqrt(length / a_max)


def trapezoid_position(length, feed, a_max, t):
    """Closed-form distance along the path at time t."""
    total = trapezoid_total_time(length, feed, a_max)
    if feed * feed / a_max <= length:
        v = feed
    else:
        v = math.sqrt(a_max * length)
    t_acc = v / a_max
    if t <= 0.0:
        return 0.0
    if t >= total:
        return length
    if t < t_acc:
        return 0.5 * a_max * t * t
    if t < total - t_acc:
        return 0.5 * a_max * t_acc * t_acc + v * (t - t_acc)
    tau = total - t
    return length - 0.5 * a_max * tau * tau


class _ProcState:
    __slots__ = ("spec", "last_pulse", "tripped")

    def __init__(self, spec: ProcessSpec, period: int):
        self.spec = spec
        # Virtual pulse one period before tick 0: first expected pulse is at 0.
        self.last_pulse = -period
        self.tripped = False


def covers(window, tick: int) -> bool:
    """Whether a fault window suppresses the pulse of its process at tick."""
    return window.start_tick <= tick <= window.end_tick


def simulate_ticks(
    stream: SetpointStream,
    config: WatchdogConfig | None = None,
    faults: FaultScript | None = None,
) -> SimulationResult:
    """Run the stream tick by tick under watchdog supervision."""
    cfg = config if config is not None else WatchdogConfig()
    script = faults if faults is not None else FaultScript()

    known = {p.name for p in cfg.processes}
    for w in script.windows:
        if w.process_name not in known:
            raise UnknownProcess(
                f"fault script names unconfigured process {w.process_name!r}"
            )
    windows_by_proc: dict[str, list[FaultWindow]] = {name: [] for name in known}
    for w in script.windows:
        windows_by_proc[w.process_name].append(w)

    period = cfg.pulse_period
    timeout = cfg.timeout
    states = [_ProcState(p, period) for p in cfg.processes]
    laser_flags = stream.laser
    n_ticks = len(stream)

    trace: list[TraceEvent] = []
    failed: list[str] = []
    coast_hold_tick: int | None = None
    status = "complete"
    final_tick = n_ticks - 1

    for tick in range(n_ticks):
        # Pulses land before the lateness check on the same tick.
        if tick % period == 0:
            for st in states:
                if not any(covers(w, tick) for w in windows_by_proc[st.spec.name]):
                    st.last_pulse = tick
                    st.tripped = False

        stopping = False
        for st in states:
            if st.tripped:
                continue
            expected = st.last_pulse + period
            late = tick - expected
            if late <= timeout:
                continue
            st.tripped = True
            name = st.spec.name
            if name not in failed:
                failed.append(name)
            trace.append(TraceEvent(
                tick, "pulse_missed", name,
                f"missed pulse expected at tick {expected}",
            ))
            trace.append(TraceEvent(
                tick, "watchdog_trip", name,
                f"{late} ticks past expected pulse exceeds timeout {timeout}",
            ))
            severity = st.spec.severity
            if severity == "critical":
                trace.append(TraceEvent(
                    tick, "corrective_action", name,
                    "critical failure: disabling laser and holding motion",
                ))
                trace.append(TraceEvent(tick, "laser_off", name, "laser disabled"))
                trace.append(TraceEvent(
                    tick, "motion_hold", name, "motion held at current setpoint",
                ))
                status = "aborted"
                final_tick = tick
                stopping = True
                break
            if severity == "degraded":
                trace.append(TraceEvent(
                    tick, "corrective_action", name,
                    "degraded failure: disabling laser, finishing current cut",
                ))
                trace.append(TraceEvent(tick, "laser_off", name, "laser disabled"))
                if coast_hold_tick is None:
                    coast_hold_tick = _laser_run_end(laser_flags, tick)
            else:
                trace.append(TraceEvent(
                    tick, "corrective_action", name,
                    "advisory failure: warning logged, run continues",
                ))
        if stopping:
            break

        if coast_hold_tick is not None and tick >= coast_hold_tick:
            trace.append(TraceEvent(
                tick, "motion_hold", "", "motion held at end of current cut",
            ))
            status = "held"
            final_tick = tick
            break
    else:
        trace.append(TraceEvent(
            n_ticks - 1, "run_complete", "", f"{n_ticks} samples executed",
        ))

    pose = stream.poses[final_tick]
    return SimulationResult(
        status=status,
        final_tick=final_tick,
        final_pose=(float(pose[0]), float(pose[1]), float(pose[2])),
        failed_processes=tuple(failed),
        trace=tuple(trace),
    )


def _laser_run_end(laser_flags, tick: int) -> int:
    """Last index of the laser-on run covering tick; tick itself if laser is off."""
    n = laser_flags.shape[0]
    if not bool(laser_flags[tick]):
        return tick
    end = tick
    while end + 1 < n and bool(laser_flags[end + 1]):
        end += 1
    return end


def profile_position(motion, t: float) -> float:
    """Arc length travelled at time t into a motion row, clamped to [0, length]."""
    if t <= 0.0:
        return 0.0
    if t >= motion.total_time:
        return motion.length
    if t < motion.t_accel:
        return 0.5 * motion.accel * t * t
    d_acc = 0.5 * motion.accel * motion.t_accel * motion.t_accel
    if t < motion.t_accel + motion.t_cruise:
        return d_acc + motion.v_peak * (t - motion.t_accel)
    tau = motion.total_time - t
    return motion.length - 0.5 * motion.accel * tau * tau


def path_point(motion, s: float) -> tuple[float, float, float]:
    """Point at arc length s along a motion row's line or arc."""
    if not motion.arc:
        u = s / motion.length
        return (
            motion.x0 + u * (motion.x1 - motion.x0),
            motion.y0 + u * (motion.y1 - motion.y0),
            motion.z0 + u * (motion.z1 - motion.z0),
        )
    ang = motion.a0 + motion.sweep * (s / motion.length)
    return (
        motion.cx + motion.radius * math.cos(ang),
        motion.cy + motion.radius * math.sin(ang),
        motion.z1,
    )


def plan_samples(geometry, program, limits: MachineLimits | None = None) -> SetpointStream:
    """plan_program as a loop over samples; same stream, same errors."""
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
        total = motion.total_time
        # ceil(total/tick) whole-tick samples plus the clamped final one; the
        # slack tolerates one-ulp noise when total is an exact tick multiple.
        steps = math.ceil(total / tick - 1e-12)
        for k in range(steps):
            t_local = k * tick
            s = profile_position(motion, t_local)
            times.append((start_tick + k) * tick)
            poses.append(path_point(motion, s))
            laser.append(motion.laser_on)
        end_t = start_tick * tick + total
        times.append(end_t)
        poses.append((motion.x1, motion.y1, motion.z1))
        laser.append(motion.laser_on)
        prev_end_t = end_t

    pose_array = np.array(poses, dtype=np.float64)
    joints, reachable = inverse_kinematics_many(geometry, pose_array)
    if not reachable.all():
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


def write_stream_rows(stream: SetpointStream, path) -> None:
    """write_stream_csv one formatted value at a time."""
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


def read_stream_rows(path) -> SetpointStream:
    """read_stream_csv one csv.reader row at a time."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="") as fh:
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


def plan_one_pass(geometry, program, limits: MachineLimits | None = None) -> SetpointStream:
    """plan_program with every sample's temporaries built at once."""
    lim = limits if limits is not None else MachineLimits()
    t, pose_array, laser = _sample_one_pass(build_motions(program, lim), lim.tick)
    joints, reachable = inverse_kinematics_many(geometry, pose_array)
    if not reachable.all():
        i = int(np.argmin(reachable))
        pose = Pose(*pose_array[i].tolist())
        try:
            inverse_kinematics(geometry, pose)
        except Unreachable as exc:
            raise UnreachableSample(float(t[i]), pose, exc.arm_index) from exc
    return SetpointStream(t=t, poses=pose_array, joints=joints, laser=laser)


def _sample_one_pass(motions, tick: float):
    """Times, poses and laser flags of every motion's samples, all at once;
    the sample budget is plan_program's to check."""
    table = np.array(motions).T
    col = Motion(*table)
    steps = np.ceil(col.total_time / tick - 1e-12).astype(np.int64)
    starts, start_tick = [], 0
    for total in col.total_time.tolist():
        starts.append(start_tick)
        start_tick = math.floor((start_tick * tick + total) / tick + 1e-12) + 1
    starts = np.array(starts, dtype=np.int64)
    last = np.cumsum(steps + 1) - 1
    of = np.repeat(np.arange(len(motions)), steps + 1)
    k = np.arange(of.size) - (last - steps)[of]
    m = Motion(*table[:, of])

    t = (starts[of] + k) * tick
    t[last] = starts * tick + col.total_time
    tm = k * tick
    half_a = 0.5 * m.accel
    tau = m.total_time - tm
    s = np.where(tm <= 0.0, 0.0,
        np.where(tm >= m.total_time, m.length,
        np.where(tm < m.t_accel, half_a * tm * tm,
        np.where(tm < m.t_accel + m.t_cruise,
                 half_a * m.t_accel * m.t_accel + m.v_peak * (tm - m.t_accel),
                 m.length - half_a * tau * tau))))
    u = s / m.length
    poses = np.column_stack((m.x0 + u * (m.x1 - m.x0), m.y0 + u * (m.y1 - m.y0),
                             m.z0 + u * (m.z1 - m.z0)))
    on_arc = np.flatnonzero(m.arc)
    ang = (m.a0 + m.sweep * u)[on_arc].tolist()
    cos, sin = (np.array(list(map(f, ang))) for f in (math.cos, math.sin))
    radius = m.radius[on_arc]
    poses[on_arc] = np.column_stack((m.cx[on_arc] + radius * cos,
                                     m.cy[on_arc] + radius * sin, m.z1[on_arc]))
    poses[last] = np.column_stack((col.x1, col.y1, col.z1))
    return t, poses, m.laser_on != 0.0


def validate_one_pass(geometry, stream: SetpointStream,
                      limits: MachineLimits | None = None) -> StreamReport:
    """validate_stream with every sample's differences built at once."""
    lim = limits if limits is not None else MachineLimits()
    t = stream.t
    p = stream.poses
    violations = []

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
    return StreamReport(max_speed=max_speed, max_accel=max_accel,
                        max_joint_step=max_joint_step, max_ik_residual=max_res,
                        violations=tuple(violations))


def fitness_per_genome(genomes, prescribed, size_penalty_weight, bounds) -> list[float]:
    """population_fitness one genome at a time: -1.0 where RobotGeometry
    refuses the genome, else coverage minus the size penalty."""
    fits = []
    for f, e, r_f, r_e in np.asarray(genomes, dtype=np.float64).tolist():
        try:
            geometry = RobotGeometry(f=f, e=e, r_f=r_f, r_e=r_e)
        except ValueError:
            fits.append(INFEASIBLE_FITNESS)
            continue
        penalty = size_penalty_weight * (f + e + r_f + r_e) / bounds.sum_upper()
        fits.append(coverage(geometry, prescribed) - penalty)
    return fits


def random_search_exhaustive(bounds, prescribed, evaluations, size_penalty_weight, seed):
    """random_search scoring every genome it draws, POPULATION_BUDGET at a time."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, _BASELINE_STREAM]))
    best, best_fit = None, -math.inf
    for start in range(0, evaluations, design_opt.POPULATION_BUDGET):
        size = (min(design_opt.POPULATION_BUDGET, evaluations - start), 4)
        genomes = rng.uniform(bounds.lower(), bounds.upper(), size=size)
        fits = population_fitness(genomes, prescribed, size_penalty_weight, bounds)
        if (fit := fits.max()) > best_fit:
            best, best_fit = genomes[fits.argmax()].copy(), float(fit)
    return best, best_fit


def coverage_links_kernel(links, prescribed: PrescribedWorkspace) -> np.ndarray:
    """coverage() of each row (a, b, r_f, r_e) of links, the link fields of
    assemblable geometries, from kernel calls of at most PAIR_BUDGET pairs."""
    links = np.asarray(links, dtype=np.float64)
    pts = prescribed.points
    n = len(pts)
    rows = max(1, PAIR_BUDGET // n)
    cols = min(n, PAIR_BUDGET)
    counts = np.zeros(len(links), dtype=np.int64)
    for i in range(0, len(links), rows):
        columns = _LinkColumns(*links[i:i + rows].T[:, :, None])
        for j in range(0, n, cols):
            part = pts[j:j + cols]
            mask = reachable_mask(columns, part[:, 0], part[:, 1], part[:, 2])
            counts[i:i + rows] += mask.sum(axis=1)
    return counts / n


def _rank(fits: np.ndarray) -> list[int]:
    # Descending fitness; index breaks ties so ordering is total.
    return sorted(range(len(fits)), key=lambda i: (-fits[i], i))


def draw_slots_numpy(stream, slots: int, cfg: GaConfig):
    """design_opt._draw_slots' outputs drawn as run_ga_slots draws them: per
    slot two integers(pop, size=t) calls, then random(), random(4) when the
    slot crosses, and standard_normal(4)."""
    rng = np.random.default_rng(stream)
    entrants, cross, blend, noise = [], [], [], []
    for _ in range(slots):
        entrants.append([rng.integers(0, cfg.population_size, size=cfg.tournament_size)
                         for _ in range(2)])
        cross.append(rng.random() < cfg.crossover_rate)
        blend.append(rng.random(4) if cross[-1] else np.zeros(4))
        noise.append(rng.standard_normal(4))
    return np.array(entrants), np.array(cross), np.array(blend), np.array(noise)


def run_ga_slots(
    bounds: DesignBounds,
    prescribed: PrescribedWorkspace,
    config: GaConfig | None = None,
) -> GaResult:
    """Evolve geometries against the prescribed workspace; deterministic."""
    cfg = config if config is not None else GaConfig()
    lo = bounds.lower()
    hi = bounds.upper()
    span = hi - lo
    sigma = cfg.mutation_sigma_fraction * span
    pop_size = cfg.population_size

    streams = np.random.SeedSequence(cfg.seed).spawn(cfg.generations + 1)

    init_rng = np.random.default_rng(streams[0])
    population = init_rng.uniform(lo, hi, size=(pop_size, 4))

    fits = population_fitness(population, prescribed, cfg.size_penalty_weight, bounds)
    history = [(float(fits.max()), float(fits.mean()))]
    evaluations = pop_size
    best_idx = _rank(fits)[0]
    best_genome = population[best_idx].copy()
    best_fit = float(fits[best_idx])

    for gen in range(1, cfg.generations + 1):
        rng = np.random.default_rng(streams[gen])
        order = _rank(fits)
        next_pop = np.empty_like(population)
        for k in range(cfg.elitism_count):
            next_pop[k] = population[order[k]]

        for slot in range(cfg.elitism_count, pop_size):
            entrants = rng.integers(0, pop_size, size=cfg.tournament_size)
            p1 = population[min(entrants, key=lambda i: (-fits[i], i))]
            entrants = rng.integers(0, pop_size, size=cfg.tournament_size)
            p2 = population[min(entrants, key=lambda i: (-fits[i], i))]

            if rng.random() < cfg.crossover_rate:
                low = np.minimum(p1, p2)
                high = np.maximum(p1, p2)
                pad = _BLEND_ALPHA * (high - low)
                child = low - pad + rng.random(4) * ((high + pad) - (low - pad))
            else:
                child = p1.copy()

            child = child + rng.standard_normal(4) * sigma
            next_pop[slot] = np.clip(child, lo, hi)

        population = next_pop
        fits = population_fitness(population, prescribed, cfg.size_penalty_weight, bounds)
        evaluations += pop_size
        history.append((float(fits.max()), float(fits.mean())))
        gen_best = _rank(fits)[0]
        if float(fits[gen_best]) > best_fit:
            best_fit = float(fits[gen_best])
            best_genome = population[gen_best].copy()

    try:
        best_geometry = RobotGeometry(*(float(v) for v in best_genome))
    except ValueError:
        best_geometry = None
    return GaResult(
        best=best_geometry,
        best_fitness=best_fit,
        history=tuple(history),
        evaluations=evaluations,
        config=cfg,
        bounds=bounds,
    )


def plane_mask(geometry: RobotGeometry, x, y) -> np.ndarray:
    """False where some arm's forearm sphere misses that arm's plane.

    That is the kernel's first flag, from its first stage, which reads only
    x and y; so where plane_mask is False, reachable_mask is False at every z.
    """
    miss = [_plane_cut(geometry, x, y, arm)[0] for arm in (1, 2, 3)]
    return np.logical_not(miss[0] | miss[1] | miss[2])


def scan_live_columns(geometry: RobotGeometry, spec: GridSpec) -> WorkspaceGrid:
    """Scan the grid; each flag is the exact reachability of the cell centre.

    The (y, x) plane is cut into tiles of at most SLAB_CELLS columns, the
    blocks _blocks gives for a single z layer.  Where plane_mask is False
    a column is unreachable at every z and keeps its initial False;
    the kernel runs only on a tile's live columns, over z, in blocks of at
    most SLAB_CELLS cells.  So peak memory is the occupancy plus a fixed
    block's temporaries, and as the kernel is elementwise, the flags do not
    depend on the tiling.
    """
    nx, ny, nz = spec.dims
    x = spec.axis_centers("x")
    y = spec.axis_centers("y")
    # z broadcasts against a tile's live columns inside the kernel, so steps
    # that do not depend on z run once per column of a block.
    z = spec.axis_centers("z")[:, None]
    occupancy = np.zeros((nz, ny, nx), dtype=bool)
    for _, ys, xs in _blocks(nx, ny, 1):
        iy, ix = np.nonzero(plane_mask(geometry, x[xs], y[ys, None]))
        if iy.size == 0:
            continue
        tile = occupancy[:, ys, xs]
        xl = x[xs][ix]
        yl = y[ys][iy]
        kz = SLAB_CELLS // iy.size
        for z0 in range(0, nz, kz):
            tile[z0:z0 + kz, iy, ix] = reachable_mask(geometry, xl, yl, z[z0:z0 + kz])
    return WorkspaceGrid(spec=spec, occupancy=occupancy)


def pick(cond, if_true, if_false):
    """Scalar counterpart of np.where."""
    return if_true if cond else if_false


def plane_cut_unclamped(geometry, x, y, arm_index: int):
    """kinematics._plane_cut in its first form, which neither clamped rc2
    nor shifted the pose to the pivot: (plane_miss, rc2, yp, tol), rc2 below
    0 where the plane misses and yp the pose's arm-frame y, so the platform
    joint sits at yp - b."""
    r_e = geometry.r_e
    tol = DISC_TOL_FRAC * (r_e * r_e)
    c = ARM_COS[arm_index - 1]
    s = ARM_SIN[arm_index - 1]
    xp = x * c - y * s
    rc2 = r_e * r_e - xp * xp
    return rc2 < -tol, rc2, x * s + y * c, tol


def arm_kernel_selects(geometry, x, y, z, arm_index: int, sqrt, select):
    """kinematics._arm_kernel on world poses behind a plane stage of its own
    (plane_cut_unclamped), with selects: (np.sqrt, np.where) or (math.sqrt, pick)."""
    a = geometry.a
    b = geometry.b
    r_f = geometry.r_f
    plane_miss, rc2, yp, tol = plane_cut_unclamped(geometry, x, y, arm_index)
    rc2 = select(rc2 < 0.0, 0.0, rc2)

    ey = yp - b
    dy = ey + a
    dz = z
    d2 = dy * dy + dz * dz
    coincident = d2 <= 0.0
    d = sqrt(select(coincident, 1.0, d2))

    t = (d2 + r_f * r_f - rc2) / (2.0 * d)
    h2 = r_f * r_f - t * t
    knee_miss = select(h2 >= -tol, False, True)
    h = sqrt(select(h2 < 0.0, 0.0, h2))

    uy = dy / d
    uz = dz / d
    ky = -a + t * uy
    kz = t * uz
    oy = -(h * uz)
    oz = h * uy

    take_plus = (oy < 0.0) | ((oy == 0.0) & (oz <= 0.0))
    yj = select(take_plus, ky + oy, ky - oy)
    zj = select(take_plus, kz + oz, kz - oz)

    sin_c = -zj
    cos_c = -(yj + a)
    # Folded: at or below -pi/2, or at or above pi, each within 2^-48 rad,
    # and the knee on the pivot.
    slack = 2.0 ** -48
    folded = select(sin_c < 0.0, cos_c <= -slack * sin_c,
                    select(cos_c < 0.0, sin_c <= -slack * cos_c, (sin_c == 0.0) & (cos_c == 0.0)))
    return (plane_miss, coincident, knee_miss, folded), sin_c, cos_c


def _det3(r0, r1, r2) -> float:
    return (
        r0[0] * (r1[1] * r2[2] - r1[2] * r2[1])
        - r0[1] * (r1[0] * r2[2] - r1[2] * r2[0])
        + r0[2] * (r1[0] * r2[1] - r1[1] * r2[0])
    )


def fk_planes(geometry: RobotGeometry, joints: JointAngles, probe: dict | None = None) -> Pose:
    """kinematics.forward_kinematics as it ran with the plane system; probe,
    if given, receives its disc and tol and, once disc passes, its z.

    Shifts every knee by the effector offset so all three forearm spheres
    pass through the platform centroid, then intersects the spheres by
    pairwise subtraction: two planes, their line, and a quadratic along it.
    """
    a = geometry.a
    b = geometry.b
    r_f = geometry.r_f
    r_e = geometry.r_e

    centers = []
    for i, theta in enumerate(joints.as_tuple()):
        if not (THETA_MIN < theta < THETA_MAX):
            raise ValueError(f"theta{i + 1}={theta} outside canonical joint range")
        t = a - b + r_f * math.cos(theta)
        zc = -r_f * math.sin(theta)
        c = ARM_COS[i]
        s = ARM_SIN[i]
        # Arm-frame centre (0, -t, zc) rotated back to the world frame.
        centers.append(((-t) * s, (-t) * c, zc))

    c1, c2, c3 = centers
    ux, uy, uz = c2[0] - c1[0], c2[1] - c1[1], c2[2] - c1[2]
    vx, vy, vz = c3[0] - c1[0], c3[1] - c1[1], c3[2] - c1[2]
    nx = uy * vz - uz * vy
    ny = uz * vx - ux * vz
    nz = ux * vy - uy * vx
    nn = math.sqrt(nx * nx + ny * ny + nz * nz)
    un = math.sqrt(ux * ux + uy * uy + uz * uz)
    vn = math.sqrt(vx * vx + vy * vy + vz * vz)
    # Coincidence is judged against the forearm length, collinearity against
    # the centre spacing; both at the same relative tolerance.
    if un < RANK_TOL * r_e or vn < RANK_TOL * r_e or nn < RANK_TOL * un * vn:
        raise Singular("shifted sphere centres are collinear or coincident")

    # Plane equations from pairwise sphere subtraction (equal radii), plus
    # the centre plane through c1 to pin a particular point on the line.
    sq1 = c1[0] * c1[0] + c1[1] * c1[1] + c1[2] * c1[2]
    sq2 = c2[0] * c2[0] + c2[1] * c2[1] + c2[2] * c2[2]
    sq3 = c3[0] * c3[0] + c3[1] * c3[1] + c3[2] * c3[2]
    rows = (
        (2.0 * ux, 2.0 * uy, 2.0 * uz),
        (2.0 * vx, 2.0 * vy, 2.0 * vz),
        (nx, ny, nz),
    )
    rhs = (sq2 - sq1, sq3 - sq1, nx * c1[0] + ny * c1[1] + nz * c1[2])

    det = _det3(*rows)
    if det == 0.0:
        raise Singular("plane-intersection system is rank deficient")
    px = _det3((rhs[0], rows[0][1], rows[0][2]),
               (rhs[1], rows[1][1], rows[1][2]),
               (rhs[2], rows[2][1], rows[2][2])) / det
    py = _det3((rows[0][0], rhs[0], rows[0][2]),
               (rows[1][0], rhs[1], rows[1][2]),
               (rows[2][0], rhs[2], rows[2][2])) / det
    pz = _det3((rows[0][0], rows[0][1], rhs[0]),
               (rows[1][0], rows[1][1], rhs[1]),
               (rows[2][0], rows[2][1], rhs[2])) / det

    # The particular point lies in the centre plane, so the quadratic along
    # the line direction reduces to s^2 = r_e^2 - |p - c1|^2.
    wx, wy, wz = px - c1[0], py - c1[1], pz - c1[2]
    disc = r_e * r_e - (wx * wx + wy * wy + wz * wz)
    tol = DISC_TOL_FRAC * (r_e * r_e)
    if probe is not None:
        probe.update(disc=disc, tol=tol)
    if disc < -tol:
        raise NoSolution("forearm spheres share no common point")
    if disc < 0.0:
        disc = 0.0
    step = math.sqrt(disc)

    hx, hy, hz = nx / nn, ny / nn, nz / nn
    if hz > 0.0:
        step = -step
    x = px + step * hx
    y = py + step * hy
    z = pz + step * hz
    if probe is not None:
        probe["z"] = z
    if not z < 0.0:
        raise NoSolution("assembly point does not lie below the base plane")
    return Pose(x, y, z)
