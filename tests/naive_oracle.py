"""Hand-rolled oracles, independent of the package's numpy implementations.

The kinematics oracles are plain lists and math functions so a bug in the
library's array plumbing cannot hide in its own checker.  The finite-
difference Jacobian checks the analytic one from the FK chain alone, and
``transform_is_valid`` checks that FK output is a rigid transform.  The blob
oracle is a per-pixel flood fill, the straightforward counterpart of the
library's run-based labeling, and ``naive_subtract`` compares a signed
int16 difference with the float threshold, where the library stays in
uint8.  ``naive_sim_step`` writes out the servo tick
rule and carries an attached object on every tick, ``naive_settle`` repeats
it, ``naive_tick`` is the simulator's tick kernel one six-joint tick at a
time, ``naive_joint_ticks`` counts one joint's ticks step by step where the
kernel takes a closed form, ``naive_interpolate`` builds and clamps one
knot at a time, and ``naive_encode`` rounds one angle at a time: the
per-step forms of the simulator's and planner's batched code, sharing no
arithmetic with ``armkit.simulator``.  ``naive_matrix_to_pose`` and ``naive_pose_quaternion``
build a pose's position and quaternion on numpy arrays and scalars, where
``matrix_to_pose`` and ``Pose6D`` read Python floats.
``naive_first_duplicate`` is the homography's duplicate check as a scan of
every later point for each point, where the library buckets points on a
grid.
``naive_jacobian`` and ``naive_dls_step`` are the solver's kernel written
with numpy's general routines (np.cross, diag_indices_from, np.max), and
``naive_dh_matrices`` builds the DH joint transforms from scratch on every
call; the library's kernel must match each bit for bit."""
import math
from dataclasses import replace

import numpy as np

from armkit import (
    GRIPPER_CLOSED,
    BinaryMask,
    Blob,
    GrayImage,
    JointConfig,
    ServoFrame,
    Trajectory,
    forward_kinematics,
    matrix_to_pose,
)
from armkit.dh_model import JOINT_COUNT, clamp_to_limits
from armkit.ik_solver import DLS_DAMPING, STEP_LIMIT_RAD
from armkit.kinematics import _link_frames, rotation_log

# Central-difference step for the finite-difference Jacobian, radians.
JACOBIAN_FD_STEP_RAD = 1e-6


def naive_dh_matrix(theta_offset_deg, alpha_deg, a_m, d_m, joint_rad):
    th = joint_rad + math.radians(theta_offset_deg)
    al = math.radians(alpha_deg)
    ct, st = math.cos(th), math.sin(th)
    ca, sa = math.cos(al), math.sin(al)
    return [
        [ct, -st * ca, st * sa, a_m * ct],
        [st, ct * ca, -ct * sa, a_m * st],
        [0.0, sa, ca, d_m],
        [0.0, 0.0, 0.0, 1.0],
    ]


def naive_dh_matrices(theta, alpha, a, d):
    """Joint transforms of n DH rows, shape (n, 4, 4), with the cosines and
    sines of the twists taken on every call and every entry written into a
    zeroed array; ``theta`` (radians) already includes each row's offset."""
    ct, st = np.cos(theta), np.sin(theta)
    ca, sa = np.cos(alpha), np.sin(alpha)
    T = np.zeros((len(ct), 4, 4))
    T[:, 0, 0] = ct
    T[:, 0, 1] = -st * ca
    T[:, 0, 2] = st * sa
    T[:, 0, 3] = a * ct
    T[:, 1, 0] = st
    T[:, 1, 1] = ct * ca
    T[:, 1, 2] = -ct * sa
    T[:, 1, 3] = a * st
    T[:, 2, 1] = sa
    T[:, 2, 2] = ca
    T[:, 2, 3] = d
    T[:, 3, 3] = 1.0
    return T


def matmul4(A, B):
    return [
        [sum(A[i][k] * B[k][j] for k in range(4)) for j in range(4)]
        for i in range(4)
    ]


def identity4():
    return [[1.0 if i == j else 0.0 for j in range(4)] for i in range(4)]


def naive_fk(dh_rows, q_deg):
    """dh_rows: sequence of (theta_offset_deg, alpha_deg, a_m, d_m) tuples."""
    T = identity4()
    for (toff, alpha, a, d), angle_deg in zip(dh_rows, q_deg):
        T = matmul4(T, naive_dh_matrix(toff, alpha, a, d, math.radians(angle_deg)))
    return T


def transform_is_valid(T, tol=1e-9):
    """True when T is a well-formed rigid transform within ``tol``."""
    T = np.asarray(T)
    if T.shape != (4, 4) or not np.all(np.isfinite(T)):
        return False
    if not np.array_equal(T[3], np.array([0.0, 0.0, 0.0, 1.0])):
        return False
    R = T[:3, :3]
    if np.max(np.abs(R.T @ R - np.eye(3))) > tol:
        return False
    return abs(float(np.linalg.det(R)) - 1.0) <= tol


def numeric_jacobian(model, q):
    """Central finite-difference 6x6 Jacobian.

    Column i differentiates the end-effector twist with respect to joint i;
    angular rows come from the log of the relative rotation across the step.
    """
    q0 = q.radians
    h = JACOBIAN_FD_STEP_RAD
    J = np.empty((6, JOINT_COUNT))
    for i in range(JOINT_COUNT):
        qp = q0.copy()
        qm = q0.copy()
        qp[i] += h
        qm[i] -= h
        Tp = _link_frames(model, qp)[-1]
        Tm = _link_frames(model, qm)[-1]
        J[:3, i] = (Tp[:3, 3] - Tm[:3, 3]) / (2.0 * h)
        J[3:, i] = rotation_log(Tp[:3, :3] @ Tm[:3, :3].T) / (2.0 * h)
    return J


def naive_jacobian(model, q_rad):
    """Geometric Jacobian with np.cross: column i is z_i x (p_end - p_i)
    stacked on z_i."""
    frames = _link_frames(model, q_rad)
    z = frames[:-1, :3, 2]
    J = np.empty((6, JOINT_COUNT))
    J[:3] = np.cross(z, frames[-1, :3, 3] - frames[:-1, :3, 3]).T
    J[3:] = z.T
    return J


def naive_dls_step(model, q_rad, err):
    """One damped-least-squares step on the first len(err) Jacobian rows,
    scaled down to STEP_LIMIT_RAD in the infinity norm."""
    J = naive_jacobian(model, q_rad)[: len(err)]
    JJt = J @ J.T
    JJt[np.diag_indices_from(JJt)] += DLS_DAMPING**2
    dq = J.T @ np.linalg.solve(JJt, err)
    m = float(np.max(np.abs(dq)))
    if m > STEP_LIMIT_RAD:
        dq *= STEP_LIMIT_RAD / m
    return dq


def planar_2r_jacobian_linear(q1_rad, q2_rad, a1=1.0, a2=1.0):
    """Textbook planar 2R Jacobian, position rows only, embedded in 3-D."""
    s1, c1 = math.sin(q1_rad), math.cos(q1_rad)
    s12, c12 = math.sin(q1_rad + q2_rad), math.cos(q1_rad + q2_rad)
    col1 = (-a1 * s1 - a2 * s12, a1 * c1 + a2 * c12, 0.0)
    col2 = (-a2 * s12, a2 * c12, 0.0)
    return col1, col2


def naive_subtract(background: GrayImage, frame: GrayImage, threshold: float) -> np.ndarray:
    """Foreground bits |frame - background| > threshold, with the difference
    taken in int16 and compared with the threshold as given."""
    diff = np.abs(frame.pixels.astype(np.int16) - background.pixels.astype(np.int16))
    return diff > threshold


def naive_largest_blob(mask: BinaryMask, min_area: int) -> Blob | None:
    """Largest 4-connected component with area >= min_area, by depth-first
    flood fill from each unvisited foreground pixel in scan order; ties keep
    the component found first."""
    bits = mask.bits.tolist()
    height, width = mask.height, mask.width
    visited = [[False] * width for _ in range(height)]
    best = None
    for r0 in range(height):
        for c0 in range(width):
            if not bits[r0][c0] or visited[r0][c0]:
                continue
            stack = [(r0, c0)]
            visited[r0][c0] = True
            area = sum_r = sum_c = 0
            while stack:
                r, c = stack.pop()
                area += 1
                sum_r += r
                sum_c += c
                for rn, cn in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
                    if 0 <= rn < height and 0 <= cn < width and bits[rn][cn] and not visited[rn][cn]:
                        visited[rn][cn] = True
                        stack.append((rn, cn))
            if area >= min_area and (best is None or area > best.area):
                # Scan order makes (r0, c0) the component's smallest (row, col).
                best = Blob((sum_c / area, sum_r / area), area, (r0, c0))
    return best


def naive_sim_step(model, state, dt, config):
    """Advance a simulator state by dt: every joint slews toward its target
    by at most ``config.rate_limit_deg_s * dt``, arriving exactly (no
    overshoot), and an attached object follows the tool frame.  A negative
    dt raises ValueError; a zero dt changes nothing."""
    if dt < 0.0:
        raise ValueError("dt must be >= 0")
    if dt == 0.0:
        return replace(state, elapsed_s=state.elapsed_s + 0.0)
    max_move = config.rate_limit_deg_s * dt
    current = []
    for cur, tgt in zip(state.current_deg, state.target_deg):
        gap = tgt - cur
        if abs(gap) <= max_move:
            current.append(tgt)
        else:
            current.append(cur + math.copysign(max_move, gap))
    state = replace(state, current_deg=tuple(current), elapsed_s=state.elapsed_s + dt)
    if state.grasp_rel is None:
        return state
    tool = forward_kinematics(model, JointConfig(state.current_deg))
    obj = tool @ np.array(state.grasp_rel).reshape(4, 4)
    return replace(state, object_pose=matrix_to_pose(obj))


def naive_settle(model, state, config):
    """Step until every joint sits exactly on its target, carrying an
    attached object along on each tick."""
    while state.current_deg != state.target_deg:
        state = naive_sim_step(model, state, config.tick_s, config)
    return state


def naive_tick(current, target, elapsed, config, seq):
    """The simulator's tick kernel one tick at a time: all six joints step
    together until the tuple of angles equals the target, and the clock
    adds ``tick_s`` per tick.  Raises ValueError, naming frame ``seq``, when
    the clock is no longer finite."""
    tick_s = config.tick_s
    max_move = config.rate_limit_deg_s * tick_s
    while current != target:
        current = tuple([
            tgt if abs(tgt - cur) <= max_move else cur + math.copysign(max_move, tgt - cur)
            for cur, tgt in zip(current, target)
        ])
        elapsed += tick_s
    if not math.isfinite(elapsed):
        raise ValueError(f"tick_s {tick_s} overflows the simulated time at frame {seq}")
    return current, elapsed


def naive_joint_ticks(cur, tgt, max_move):
    """One joint's ticks from ``cur`` to ``tgt``: steps of exactly
    ``max_move`` toward the target while the gap is larger, then one
    arrival tick unless a step landed on the target."""
    count = 0
    if cur < tgt:
        while tgt - cur > max_move:
            cur += max_move
            count += 1
    else:
        while cur - tgt > max_move:
            cur -= max_move
            count += 1
    if cur != tgt:
        count += 1
    return count


def naive_interpolate(model, waypoints, max_step_deg):
    """Linear joint-space interpolation, one clamped knot at a time, with a
    zero-motion knot at each gripper change; the first knot and the
    gripper-change knots are clamped too."""
    first_config, first_gripper = waypoints[0]
    knots, grippers = [clamp_to_limits(model, first_config).angles_deg], [first_gripper]
    for (prev_config, prev_gripper), (next_config, next_gripper) in zip(waypoints, waypoints[1:]):
        a = np.array(prev_config.angles_deg)
        b = np.array(next_config.angles_deg)
        gap = float(np.max(np.abs(b - a)))
        steps = math.ceil(gap / max_step_deg)
        for k in range(1, steps + 1):
            t = k / steps
            config = clamp_to_limits(model, JointConfig(tuple((1.0 - t) * a + t * b)))
            knots.append(config.angles_deg)
            grippers.append(prev_gripper)
        if next_gripper != prev_gripper:
            knots.append(clamp_to_limits(model, next_config).angles_deg)
            grippers.append(next_gripper)
    return Trajectory(np.array(knots), tuple(grippers))


def naive_encode(trajectory):
    """One frame per knot, each angle rounded half-up to centidegrees on its
    own with math.floor."""
    return [
        ServoFrame(seq, tuple(math.floor(float(a) * 100.0 + 0.5) for a in knot), gripper == GRIPPER_CLOSED)
        for seq, (knot, gripper) in enumerate(zip(trajectory.knots, trajectory.grippers))
    ]


def naive_canonical_quat(q):
    """Unit quaternion with w >= 0, the first nonzero component positive at
    w == 0, normalized by np.linalg.norm on an array; a finite nonzero
    quaternion whose norm under- or overflows is first divided by its largest
    magnitude, without numpy's overflow warning."""
    with np.errstate(over="ignore"):
        n = float(np.linalg.norm(q))
    largest = float(np.max(np.abs(q)))
    if n in (0.0, math.inf) and 0.0 < largest < math.inf:
        q = q / largest
        n = float(np.linalg.norm(q))
    if n == 0.0:
        raise ValueError("zero quaternion")
    q = q / n
    if q[0] < 0.0:
        q = -q
    elif q[0] == 0.0:
        for v in q[1:]:
            if v != 0.0:
                if v < 0.0:
                    q = -q
                break
    return q


def naive_matrix_to_quat(R):
    """Canonical quaternion of a rotation matrix from numpy scalars."""
    R = np.asarray(R, dtype=float)
    tr = R[0, 0] + R[1, 1] + R[2, 2]
    if tr > 0.0:
        s = math.sqrt(tr + 1.0) * 2.0
        q = np.array(
            [0.25 * s, (R[2, 1] - R[1, 2]) / s, (R[0, 2] - R[2, 0]) / s, (R[1, 0] - R[0, 1]) / s]
        )
    elif R[0, 0] >= R[1, 1] and R[0, 0] >= R[2, 2]:
        s = math.sqrt(1.0 + R[0, 0] - R[1, 1] - R[2, 2]) * 2.0
        q = np.array(
            [(R[2, 1] - R[1, 2]) / s, 0.25 * s, (R[0, 1] + R[1, 0]) / s, (R[0, 2] + R[2, 0]) / s]
        )
    elif R[1, 1] >= R[2, 2]:
        s = math.sqrt(1.0 + R[1, 1] - R[0, 0] - R[2, 2]) * 2.0
        q = np.array(
            [(R[0, 2] - R[2, 0]) / s, (R[0, 1] + R[1, 0]) / s, 0.25 * s, (R[1, 2] + R[2, 1]) / s]
        )
    else:
        s = math.sqrt(1.0 + R[2, 2] - R[0, 0] - R[1, 1]) * 2.0
        q = np.array(
            [(R[1, 0] - R[0, 1]) / s, (R[0, 2] + R[2, 0]) / s, (R[1, 2] + R[2, 1]) / s, 0.25 * s]
        )
    w, x, y, z = naive_canonical_quat(q)
    return (float(w), float(x), float(y), float(z))


def naive_pose_quaternion(quaternion):
    """The quaternion a pose stores: checked finite, then canonicalized."""
    raw = np.array([float(v) for v in quaternion])
    if raw.shape != (4,):
        raise ValueError("quaternion must be (w, x, y, z)")
    if not np.isfinite(raw).all():
        raise ValueError(f"quaternion must be finite, got {tuple(raw.tolist())}")
    return tuple(float(v) for v in naive_canonical_quat(raw))


def naive_matrix_to_pose(T):
    """(position, quaternion) of the pose of a rigid transform."""
    T = np.asarray(T, dtype=float)
    position = tuple(float(v) for v in T[:3, 3])
    return position, naive_pose_quaternion(naive_matrix_to_quat(T[:3, :3]))


def naive_first_duplicate(pts):
    """The first pair (i, j), i < j, of points closer than 1e-12, comparing
    each point with every later one."""
    for i in range(len(pts) - 1):
        close = np.flatnonzero(np.linalg.norm(pts[i + 1 :] - pts[i], axis=1) < 1e-12)
        if close.size:
            return i, i + 1 + int(close[0])
    return None
