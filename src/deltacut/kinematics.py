"""Closed-form inverse and forward kinematics of the translational delta.

Arm i (1..3) works in a frame rotated by -(i-1)*120 degrees about z.  In that
frame the actuated pivot sits at (y, z) = (-a, 0), the upper arm swings in
the x = 0 plane, and the platform joint for the arm is the pose shifted by
-b along y.  Inverse kinematics intersects the forearm sphere with the arm
plane, then intersects the resulting circle with the knee circle and keeps
the knee with the smaller y (elbow out).  Forward kinematics steps from the
circumcentre of the three shifted forearm sphere centres along their normal.
inverse_kinematics_many and forward_kinematics_many are the only bodies, for
one (3,) triple or an (n, 3) array; IK flags REASONS per arm as _arm_kernel
does, FK flags FK_FAILURES, and the scalar calls raise the first flag.

_arm_kernel is the only place that solves an arm.  Its first stage,
_plane_cut, reads only x and y; the kernel is handed that cut and z, so a
caller that holds a grid column's cut hands it on for every cell of the
column, and _reachable ORs the three arms' flags.  The closed forms of an
arm's reach below the base plane read the same cut: the knee circle meets
the forearm circle where w^2 <= 4 d^2 (r_f^2 + tol), and the knee folds
inside the fold circle dy^2 + (z - r_f)^2 = rc2 when dy < 0.  _reach_verdict
decides genome x point pairs by them, with no square root, and _arm_bounds
solves them for z along a grid column.  Each decides only below the base
plane and beyond a margin that covers its own rounding, the kernel's and the
FOLD_SLACK wedge, so its verdicts are the kernel's own; the kernel decides
the rest.  The kernel runs in numpy alone, on Python floats as numpy scalars
or on arrays, where the link values may be arrays too; scalar IK, workspace
scans, batch planning and batch GA fitness run this one code path.  It has
no branches: clamps are maxima, a flag is added or xor-ed in, and the
elbow-out branch is a sign factor of +1 or -1.  Joint angles always come
from math.atan2, also for arrays: np.arctan2 can differ by one ulp and would
move the frozen streams.  Knee angles within a few ulps of THETA_MIN or
THETA_MAX count as folded, so a rounded atan2 never lands on a joint-range
end.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NoSolution, Singular, Unreachable
from .geometry import JointAngles, Pose, RobotGeometry

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

# Relative tolerance of forward kinematics' coincidence and collinearity tests.
RANK_TOL = 1e-12

# Relative rounding the closed forms allow for, on the squared scale of their
# terms: thousands of ulps of every step of the closed forms and the kernel.
_BOUND_ROUNDING = 1e-12

# How far the kernel's knee may sit from the exact knee of its own rounded w
# and d2, per mm of r_f and of the pivot offset a (see _reach_verdict).
_KNEE_SLACK = 2.0 ** -24
_PIVOT_SLACK = 2.0 ** -50

# Links and |coordinates| the pair verdict decides lie in [_TINY, _HUGE], so
# none of its steps or the kernel's overflows or loses precision to underflow.
_HUGE = 2.0 ** 200
_TINY = 2.0 ** -200

# Unreachable reasons, in the order _arm_kernel returns its failure flags.
REASONS = (
    "forearm sphere does not reach the arm plane",
    "platform joint coincides with the arm pivot",
    "knee circle does not meet the forearm circle",
    "knee angle outside the canonical branch",
)

# Forward kinematics' failures, in the order forward_kinematics_many flags them.
FK_FAILURES = ((Singular, "shifted sphere centres are collinear or coincident"),
               (NoSolution, "forearm spheres share no common point"),
               (NoSolution, "assembly point does not lie below the base plane"))


@np.errstate(over="ignore", invalid="ignore")
def _plane_cut(geometry: RobotGeometry, x, y, arm_index: int):
    """The first stage of an arm's solve, the cut _arm_kernel takes; it reads only x and y.

    The forearm sphere cut by the arm plane x = 0 is a circle of squared
    radius rc2, clamped at 0, about the projected platform joint, dy along y
    from the pivot.  Returns (plane_miss, rc2, dy, tol): plane_miss flags
    where rc2 is below the tangent tolerance tol, so the circle is empty.
    Overflow and the NaN it leads to count as misses, silently, here or in
    _arm_kernel.
    """
    r_e = geometry.r_e
    tol = DISC_TOL_FRAC * (r_e * r_e)
    c = ARM_COS[arm_index - 1]
    s = ARM_SIN[arm_index - 1]
    xp = x * c - y * s
    rc2 = r_e * r_e - xp * xp
    dy = (x * s + y * c - geometry.b) + geometry.a
    return rc2 < -tol, np.maximum(rc2, 0.0), dy, tol


@np.errstate(over="ignore", invalid="ignore")
def _arm_kernel(geometry: RobotGeometry, cut, z):
    """Solve one arm at heights z above its plane cut, scalars or arrays alike.

    cut is _plane_cut's (plane_miss, rc2, dy, tol) for the arm and the poses'
    x and y.  geometry supplies a and r_f: a RobotGeometry, or a record of
    arrays, such as (m, 1) columns that broadcast m geometries.

    Returns (flags, sin_c, cos_c): flags holds one failure flag per entry of
    REASONS, in check order; sin_c and cos_c are meaningful only where no
    flag is set.  theta = atan2(sin_c, cos_c), and the knee sits at arm-frame
    (y, z) = (-a - cos_c, -sin_c).  Overflow and the NaN
    it leads to count as misses, silently; they arise with links of about
    1e154 mm and up.
    """
    a, r_f = geometry.a, geometry.r_f
    plane_miss, rc2, dy, tol = cut

    # Circle 1: pivot (-a, 0), radius r_f.  Circle 2: (dy - a, z), radius
    # sqrt(rc2).  (dy, z) points from the pivot to the platform joint.
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


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _reach_verdict(geometry, x, y, z):
    """The kernel's reachability of poses (x, y, z) below the base plane, in
    closed form with no square root, where a margin proves it.

    geometry is a record of (m, 1) link columns and x, y, z are (n,) arrays.
    Returns (reached, missed), (m, n) masks of the pairs the kernel provably
    finds reachable and unreachable; the pairs in neither are left to it.

    Per arm, from the kernel's own floats, by its own steps (rc2 and dy
    from _plane_cut, d2 = dy^2 + z^2, w = d2 + r_f^2 - rc2), its knee solves
    t = w / (2d), d^2 = d2, and for z < 0:

    - knee circle: h2 = r_f^2 - t^2 >= -tol iff w^2 <= 4 d2 (r_f^2 + tol);
    - fold circle: the knee is folded iff dy < 0 and
      g = w - 2 r_f z = dy^2 + (z - r_f)^2 - rc2 < 0.

    Margins.  A knee test decides only beyond a relative _BOUND_ROUNDING of
    4 d2 r_f^2 or 4 d2 (r_f^2 + tol), hundreds of times the rounding of
    d = sqrt(d2), t, t^2 and h2 in the kernel and of w^2 and d2 r_f^2 here;
    t = w / (2d) keeps a relative error as d -> 0.  Past the lower one,
    h2 > 0.  There the kernel's knee lies within B = _KNEE_SLACK r_f +
    _PIVOT_SLACK |a| of the exact knee of w and d2: cancellation in h2 costs
    8.3 ulps of r_f^2, so sqrt(8.3 ulp) r_f = 3.0e-8 r_f of h; the knee's
    other steps cost 20 ulps of r_f and, through -a + ... + a, 3 of a; and
    FOLD_SLACK widens the folded wedge by 3.6e-15 r_f.  A knee further than
    B from both edges of the wedge gets the exact verdict.  The knee, at
    angle delta from the upright edge, has |g| <= 4 d r_f |sin(delta / 2)|,
    so g^2 > 9 B^2 d2 keeps it more than B off that edge (2.83 B would do;
    the rest covers g's rounding).  It nears the level edge only as z / d
    does, so z^2 > (B / r_f)^2 d2 keeps it off that one.  Both thresholds
    take the call's largest B and, per point, a bound on d2 from |x|, |y|,
    |z|, |a| and |b|, so they cost no pair-sized work.  Rows and points
    outside [_TINY, _HUGE], and points at or above the base plane, are
    decided only by the plane cut, which is the kernel's own test.
    """
    a, b, r_f, r_e = geometry.a, geometry.b, geometry.r_f, geometry.r_e
    f2 = r_f * r_f
    tol = DISC_TOL_FRAC * (r_e * r_e)
    slack = _KNEE_SLACK * r_f + _PIVOT_SLACK * np.abs(a)
    rows = ((np.abs(a) <= _HUGE) & (np.abs(b) <= _HUGE) & (r_e <= _HUGE)
            & (_TINY <= r_f) & (r_f <= _HUGE))
    # NaN constants leave a row to the kernel.
    row_nan = np.where(rows, 1.0, np.nan)
    knee_lo = 4.0 * f2 * (1.0 - _BOUND_ROUNDING) * row_nan
    knee_hi = 4.0 * (f2 + tol) * (1.0 + _BOUND_ROUNDING) * row_nan
    # Per point: d2 <= 2 (x^2 + y^2) + 2 (|a| + |b|)^2 + z^2 on every arm and
    # row, by 1 % with rounding.
    offsets = np.max(np.where(rows, np.abs(a) + np.abs(b), 0.0))
    z2 = z * z
    d2_max = (2.0 * (x * x + y * y) + 2.0 * (offsets * offsets) + z2) * 1.01
    level = np.max(np.where(rows, slack / r_f, 0.0)) ** 2
    points = ((-_HUGE <= z) & (z <= -_TINY) & (np.abs(x) <= _HUGE) & (np.abs(y) <= _HUGE)
              & (z2 > level * d2_max))
    fold_far = 9.0 * np.max(np.where(rows, slack, 0.0)) ** 2 * d2_max
    # A NaN z leaves a point to the kernel, once its plane cut has passed.
    z = np.where(points, z, np.nan)
    z2 = z * z
    r2z = (2.0 * r_f) * z
    reached, missed = True, False
    for arm in (1, 2, 3):
        # This call's errstate covers the cut's own.
        plane_miss, rc2, dy, _ = _plane_cut.__wrapped__(geometry, x, y, arm)
        d2 = dy * dy + z2
        w = d2 + f2 - rc2
        w2 = w * w
        g = w - r2z
        # A plane miss makes w = d2 + r_f^2, which fails the knee test.
        sure = (w2 < d2 * knee_lo) & (g * g > fold_far)
        folded = (dy < 0.0) & (g < 0.0)
        reached = reached & (sure > folded)
        missed = missed | plane_miss | (w2 > d2 * knee_hi) | (sure & folded)
    return reached, missed


def _signed_sqrt(v):
    return np.copysign(np.sqrt(np.abs(v)), v)


def _arm_bounds(geometry, cut, scale2):
    """One arm's reach below the base plane along columns whose plane cut
    (_plane_cut) is cut; scale2 is the scan's length scale squared.

    The column-wise z-solve of _reach_verdict's two closed forms.  The kernel
    reads z only through d^2 = dy^2 + z^2 and the sign of z.  Below the base
    plane the arm reaches -z in [lo, hi]; a negative lo means the interval
    reaches z = 0, and lo > hi means it is empty.  err bounds the bounds'
    distance, in z, from where the kernel's verdict changes.

    - knee_miss: the knee circle of radius r_f about the pivot meets the
      forearm circle, with the kernel's tolerance, where
      (R - rc)^2 <= d^2 <= (R + rc)^2, R^2 = r_f^2 + tol, rc^2 = rc2 + tol.
    - folded: the elbow-out knee lies at pivot angle phi - alpha, phi the
      angle of (dy, z) and cos(alpha) = t / r_f.  It enters the folded
      quadrant only through the knee straight above the pivot, so it is
      folded for dy < 0 inside the circle dy^2 + (z - r_f)^2 = rc2.

    Rounding moves an end by at most err^2 = _BOUND_ROUNDING S^2 (1 + S^2 /
    (r_f sqrt(rc2))) in z^2, so by err in z; S^2 = scale2.  The S^2 term
    covers cancellation in d^2 near a tangency; the other, the blow-up as
    rc2 -> 0: the kernel's h2 rounds by ulps of r_f S^2 / d, and at an end
    moves with d^2 at the rate r_f rc / d^2.  The fold edge moves ~1e-13 mm
    for FOLD_SLACK, and d B / r_f ~ 6e-8 S for _reach_verdict's knee slack B.
    """
    r_f = geometry.r_f
    _, rc2, dy, tol = cut
    dy2 = dy * dy
    big = math.sqrt(r_f * r_f + tol)
    small = np.sqrt(rc2 + tol)
    hi = _signed_sqrt((big + small) ** 2 - dy2)
    lo = _signed_sqrt((big - small) ** 2 - dy2)
    up = _signed_sqrt(rc2 - dy2)
    with np.errstate(divide="ignore"):
        err = np.sqrt(_BOUND_ROUNDING * scale2 * (1.0 + scale2 / (r_f * np.sqrt(rc2))))
    np.maximum(lo, up - r_f, out=lo, where=dy < 0.0)
    return lo, hi, err


def inverse_kinematics_many(geometry: RobotGeometry, points: np.ndarray):
    """Joint angles for an (n, 3) array of poses, or for one (3,) pose.

    Returns (joints, flags): joints has points' shape; flags holds, per arm,
    the flags _arm_kernel returns, one per entry of REASONS, each a bool per
    row.  A row's angles mean nothing where one of its flags is set.
    """
    x, y, z = points.T
    joints, flags = np.empty((np.size(x), 3)), []
    for arm in (1, 2, 3):
        arm_flags, sin_c, cos_c = _arm_kernel(geometry, _plane_cut(geometry, x, y, arm), z)
        flags.append(arm_flags)
        joints[:, arm - 1] = list(map(math.atan2, np.ravel(sin_c).tolist(),
                                      np.ravel(cos_c).tolist()))
    return joints.reshape(points.shape), tuple(flags)


def inverse_kinematics(geometry: RobotGeometry, pose: Pose) -> JointAngles:
    """Joint angles reaching the pose; raises Unreachable for the first arm
    inverse_kinematics_many flags, naming that arm's first flagged reason."""
    joints, flags = inverse_kinematics_many(geometry, np.array((pose.x, pose.y, pose.z)))
    flat = flags[0] + flags[1] + flags[2]
    if any(flat):
        arm, reason = divmod(flat.index(True), len(REASONS))
        raise Unreachable(arm + 1, REASONS[reason])
    return JointAngles(*joints.tolist())


def is_reachable(geometry: RobotGeometry, pose: Pose) -> bool:
    """True when inverse kinematics succeeds for all three arms."""
    return bool(reachable_mask(geometry, pose.x, pose.y, pose.z))


def reachable_mask(geometry: RobotGeometry, x, y, z) -> np.ndarray:
    """Exact reachability of the poses (x, y, z); the arrays broadcast, and
    so do the geometry's link fields when they are arrays (see _arm_kernel)."""
    cuts = (_plane_cut(geometry, x, y, arm) for arm in (1, 2, 3))
    return _reachable(geometry, cuts, z)


def _reachable(geometry, cuts, z) -> np.ndarray:
    """Reachability at heights z above the three arms' plane cuts, taken from
    the iterable cuts one arm at a time, so one arm's arrays are alive."""
    bad = np.False_
    for cut in cuts:
        # Keeping one arm's arrays until the next arm's call returns lets
        # glibc's default heap reuse their pages: 6.3 k against 9.9 k minor
        # faults, first 6 mm g0 scan in a process; 5.7 k against 5.5 k under
        # cli._keep_heap.
        flags, *kept = _arm_kernel(geometry, cut, z)
        bad = bad | flags[0] | flags[1] | flags[2] | flags[3]
    return ~bad


def _dot(p, q):
    return p[0] * q[0] + p[1] * q[1] + p[2] * q[2]


def _cross(p, q):
    return (p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2], p[0] * q[1] - p[1] * q[0])


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def forward_kinematics_many(geometry: RobotGeometry, joints: np.ndarray):
    """Effector poses for an (n, 3) array of joint angles, or for one (3,) triple.

    The forearm spheres, shifted by the effector offset, meet on the normal
    n of their centres' plane through its circumcentre, sqrt(r_e^2 - R^2)
    either side, R the circumradius; the pose is the lower point.  Returns
    (poses, flags): poses has joints' shape; flags holds a flag per row for
    each entry of FK_FAILURES, and a row's pose means nothing where one is set.
    """
    # Exact scaling to units of 2^p ~ r_f + r_e, so no step over- or underflows:
    # every centre lies within 2 (r_f + r_e) of the axis, as |a - b| < r_f + r_e.
    p = math.frexp(geometry.r_f + geometry.r_e)[1]
    a, b, r_f, r_e = (math.ldexp(v, -p) for v in
                      (geometry.a, geometry.b, geometry.r_f, geometry.r_e))
    centers = []
    for i, theta in enumerate(joints.T):
        t = a - b + r_f * np.cos(theta)
        # Arm-frame centre (0, -t, -r_f sin(theta)) rotated back to the world frame.
        centers.append(((-t) * ARM_SIN[i], (-t) * ARM_COS[i], -r_f * np.sin(theta)))
    c1, c2, c3 = centers
    u = [q - s for s, q in zip(c1, c2)]
    v = [q - s for s, q in zip(c1, c3)]
    n = _cross(u, v)
    uu, vv, nn2 = _dot(u, u), _dot(v, v), _dot(n, n)
    un, vn, nn = np.sqrt(uu), np.sqrt(vv), np.sqrt(nn2)
    # Coincidence is judged against the forearm length, collinearity against
    # the centre spacing; both at the same relative tolerance.
    singular = (un < RANK_TOL * r_e) | (vn < RANK_TOL * r_e) | (nn < RANK_TOL * un * vn)

    # The circumcentre, less c1: (|u|^2 v x n + |v|^2 n x u) / (2 |n|^2).
    w = [(uu * s + vv * q) / (2.0 * nn2) for s, q in zip(_cross(v, n), _cross(n, u))]
    disc = r_e * r_e - _dot(w, w)
    step = np.sqrt(np.maximum(disc, 0.0)) / nn * (1.0 - 2.0 * (n[2] > 0.0))
    x, y, z = (np.ldexp(c + d + step * m, p) for c, d, m in zip(c1, w, n))
    no_point = disc < -DISC_TOL_FRAC * (r_e * r_e)
    return np.array((x, y, z)).T, (singular, no_point, (z < 0.0) ^ True)


def forward_kinematics(geometry: RobotGeometry, joints: JointAngles) -> Pose:
    """Effector pose for the joint angles; the below-base assembly branch.

    Raises the first of FK_FAILURES that forward_kinematics_many flags."""
    pose, flags = forward_kinematics_many(geometry, np.array(joints.as_tuple()))
    for (error, message), flag in zip(FK_FAILURES, flags):
        if flag:
            raise error(message)
    return Pose(*pose.tolist())
