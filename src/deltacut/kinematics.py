"""Closed-form inverse and forward kinematics of the translational delta.

Arm i (1..3) works in a frame rotated by -(i-1)*120 degrees about z.  In that
frame the actuated pivot sits at (y, z) = (-a, 0), the upper arm swings in
the x = 0 plane, and the platform joint for the arm is the pose shifted by
-b along y.  Inverse kinematics intersects the forearm sphere with the arm
plane, then intersects the resulting circle with the knee circle and keeps
the knee with the smaller y (elbow out).  Forward kinematics intersects the
three forearm spheres after shifting their centres to the platform centroid.

_arm_kernel is the only place that solves an arm.  Workspace scans call its
first stage, _plane_cut, which reads only x and y, once per grid column to
bound the column's reach in closed form.  The kernel runs in numpy alone, on
Python floats as numpy scalars or on arrays, where the link values may be
arrays too; scalar IK, workspace scans, batch planning and batch GA fitness
run this one code path.  It has no branches: clamps are maxima, a flag is
added or xor-ed in, and the elbow-out branch is a sign factor of +1 or -1.
Joint angles always come from math.atan2, also for arrays: np.arctan2 can
differ by one ulp and would move the frozen streams.  Knee angles within a
few ulps of THETA_MIN or THETA_MAX count as folded, so a rounded atan2 never
lands on a joint-range end.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NoSolution, Singular, Unreachable
from .geometry import JointAngles, Pose, RobotGeometry, THETA_MAX, THETA_MIN

_SQRT3_2 = math.sqrt(3.0) / 2.0

# World-to-arm-frame rotation (cos, sin) per arm, angles -(i-1)*120 degrees.
ARM_COS = (1.0, -0.5, -0.5)
ARM_SIN = (0.0, -_SQRT3_2, _SQRT3_2)

# Discriminants within [-tol, 0] count as tangent so boundary poses do not
# fail on rounding noise; tol scales with the squared forearm length.
DISC_TOL_FRAC = 1e-12

# Slack of the folded test, relative to the larger knee coordinate: an angle
# within about 2^-48 rad of THETA_MIN or THETA_MAX (16 and 8 ulps) counts as
# folded, so math.atan2, which rounds by under an ulp, never returns either.
FOLD_SLACK = 2.0 ** -48

# Relative rank tolerance for the forward-kinematics plane system.
RANK_TOL = 1e-12

# Unreachable reasons, in the order _arm_kernel returns its failure flags.
REASONS = (
    "forearm sphere does not reach the arm plane",
    "platform joint coincides with the arm pivot",
    "knee circle does not meet the forearm circle",
    "knee angle outside the canonical branch",
)


def _plane_cut(geometry: RobotGeometry, x, y, arm_index: int):
    """The first stage of _arm_kernel, which reads only x and y.

    The forearm sphere cut by the arm plane x = 0 is a circle of squared
    radius rc2 about the projected platform joint at arm-frame y = yp.
    Returns (plane_miss, rc2, yp, tol): plane_miss flags where rc2 is below
    the tangent tolerance tol, so the circle is empty.
    """
    r_e = geometry.r_e
    tol = DISC_TOL_FRAC * (r_e * r_e)
    c = ARM_COS[arm_index - 1]
    s = ARM_SIN[arm_index - 1]
    xp = x * c - y * s
    rc2 = r_e * r_e - xp * xp
    return rc2 < -tol, rc2, x * s + y * c, tol


@np.errstate(over="ignore", invalid="ignore")
def _arm_kernel(geometry: RobotGeometry, x, y, z, arm_index: int):
    """Solve one arm for world poses (x, y, z), scalars or arrays alike.

    geometry supplies a, b, r_f and r_e: a RobotGeometry, or a record of
    arrays, such as (m, 1) columns that broadcast m geometries.

    Returns (flags, sin_c, cos_c): flags holds one failure flag per entry of
    REASONS, in check order; sin_c and cos_c are meaningful only where no
    flag is set.  theta = atan2(sin_c, cos_c), and the knee sits at arm-frame
    (y, z) = (-a - cos_c, -sin_c).  Overflow and the NaN
    it leads to count as misses, silently; they arise with links of about
    1e154 mm and up.
    """
    a, b, r_f = geometry.a, geometry.b, geometry.r_f
    plane_miss, rc2, yp, tol = _plane_cut(geometry, x, y, arm_index)
    rc2 = np.maximum(rc2, 0.0)

    # Circle 1: pivot (-a, 0), radius r_f.  Circle 2: (yp - b, z), radius
    # sqrt(rc2).  (dy, z) points from the pivot to the platform joint.
    dy = (yp - b) + a
    d2 = dy * dy + z * z
    coincident = d2 <= 0.0
    d = np.sqrt(d2 + coincident)

    # Distance from the pivot to the chord along the centre line, and the
    # half-chord length.  An overflowed d2 makes t NaN, which counts as a miss.
    t = (d2 + r_f * r_f - rc2) / (2.0 * d)
    h2 = r_f * r_f - t * t
    knee_miss = (h2 >= -tol) ^ True
    h = np.sqrt(np.maximum(h2, 0.0))

    uy = dy / d
    uz = z / d
    ky = -a + t * uy
    kz = t * uz
    oy = -(h * uz)
    oz = h * uy

    # Elbow-out branch: smaller knee y; on a y tie prefer the lower knee,
    # which sits at (ky + sign * oy, kz + sign * oz).
    take_plus = (oy < 0.0) | ((oy == 0.0) & (oz <= 0.0))
    sign = 2.0 * take_plus - 1.0

    # theta measured from the horizontal, positive knee-down; the upper arm
    # points from the pivot to the knee along (-cos, -sin).  Folded: the
    # knee lies in the wedge from THETA_MAX round to THETA_MIN, each end
    # widened by about FOLD_SLACK rad; the wedge is the meet of two
    # half-planes and holds the pivot itself.
    sin_c = -(kz + sign * oz)
    cos_c = -((ky + sign * oy) + a)
    folded = (cos_c <= -FOLD_SLACK * sin_c) & (sin_c <= -FOLD_SLACK * cos_c)
    return (plane_miss, coincident, knee_miss, folded), sin_c, cos_c


def inverse_kinematics(geometry: RobotGeometry, pose: Pose) -> JointAngles:
    """Joint angles reaching the pose; raises Unreachable naming the arm."""
    thetas = []
    for arm in (1, 2, 3):
        flags, sin_c, cos_c = _arm_kernel(geometry, pose.x, pose.y, pose.z, arm)
        if any(flags):
            raise Unreachable(arm, REASONS[flags.index(True)])
        thetas.append(math.atan2(sin_c, cos_c))
    return JointAngles(*thetas)


def is_reachable(geometry: RobotGeometry, pose: Pose) -> bool:
    """True when inverse kinematics succeeds for all three arms."""
    return bool(reachable_mask(geometry, pose.x, pose.y, pose.z))


def reachable_mask(geometry: RobotGeometry, x, y, z) -> np.ndarray:
    """Exact reachability of the poses (x, y, z); the arrays broadcast, and
    so do the geometry's link fields when they are arrays (see _arm_kernel)."""
    shape = np.broadcast_shapes(np.shape(geometry.a), np.shape(x), np.shape(y), np.shape(z))
    bad = np.zeros(shape, dtype=bool)
    for arm in (1, 2, 3):
        # Keeping one arm's arrays until the next arm's call returns lets
        # glibc's default heap reuse their pages: 6.3 k against 9.9 k minor
        # faults, first 6 mm g0 scan in a process; 5.7 k against 5.5 k under
        # cli._keep_heap.
        flags, *kept = _arm_kernel(geometry, x, y, z, arm)
        bad |= flags[0] | flags[1] | flags[2] | flags[3]
    return ~bad


def inverse_kinematics_many(geometry: RobotGeometry, points: np.ndarray):
    """Joint angles for an (n, 3) array of poses, and a reachable flag per pose.

    Rows of reachable poses equal inverse_kinematics bit for bit; the other
    rows hold no meaningful angles.
    """
    x, y, z = points[:, 0], points[:, 1], points[:, 2]
    joints = np.empty(points.shape, dtype=np.float64)
    bad = np.zeros(points.shape[0], dtype=bool)
    for arm in (1, 2, 3):
        flags, sin_c, cos_c = _arm_kernel(geometry, x, y, z, arm)
        bad |= flags[0] | flags[1] | flags[2] | flags[3]
        joints[:, arm - 1] = list(map(math.atan2, sin_c.tolist(), cos_c.tolist()))
    return joints, ~bad


def _det3(r0, r1, r2) -> float:
    return (
        r0[0] * (r1[1] * r2[2] - r1[2] * r2[1])
        - r0[1] * (r1[0] * r2[2] - r1[2] * r2[0])
        + r0[2] * (r1[0] * r2[1] - r1[1] * r2[0])
    )


def forward_kinematics(geometry: RobotGeometry, joints: JointAngles) -> Pose:
    """Effector pose for the joint angles; the below-base assembly branch.

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
    if not z < 0.0:
        raise NoSolution("assembly point does not lie below the base plane")
    return Pose(x, y, z)
