"""Hand-rolled oracles, independent of the package's numpy implementations.

The kinematics oracles are plain lists and math functions so a bug in the
library's array plumbing cannot hide in its own checker.  The finite-
difference Jacobian checks the analytic one from the FK chain alone, and
``transform_is_valid`` checks that FK output is a rigid transform.  The blob
oracles are a per-pixel flood fill, the straightforward counterpart of the
library's run-based labeling, and ``loop_largest_blob``, the same run
labeling with a Python union-find over every run, where the library works
in numpy passes.  ``naive_subtract`` compares a signed int16 difference
with the float threshold, where the library stays in uint8.  ``naive_sim_step`` writes out the servo tick rule and carries an
attached object on every tick (with ``rigid_product``), ``naive_settle``
repeats it, ``naive_tick`` is the simulator's tick kernel one six-joint
tick at a time, ``naive_joint_ticks`` counts one joint's ticks step by step
where the kernel takes a closed form, ``naive_interpolate`` builds and clamps one
knot at a time, and ``naive_encode`` rounds one angle at a time: the
per-step forms of the simulator's and planner's batched code, sharing no
arithmetic with ``armkit.simulator``.  ``naive_matrix_to_pose`` and ``naive_pose_quaternion``
build a pose's position and quaternion on numpy arrays and scalars, where
``matrix_to_pose`` and ``Pose6D`` read Python floats.
``naive_first_duplicate`` is the homography's duplicate check as a scan of
every later point for each point, where the library buckets points on a
grid.  ``naive_parse_pgm`` reads the PGM header with a byte-at-a-time
scanner, where the library matches one pattern.
``naive_load_arm_config`` and ``naive_load_calibration`` are the two JSON
document readers each with its own field checks, where the library shares
one reader; the arm reader builds the library's ``ArmModel``, so both apply
the same model checks.
``naive_jacobian`` and ``naive_dls_step`` are the solver's kernel written
with numpy's general routines (np.cross, np.linalg.solve, np.max) on the
frames of ``naive_frames``, the list-based chain behind ``naive_fk``, and
``naive_dh_matrices`` builds the DH joint transforms from scratch on every
call; the library's kernel must match each within float64 tolerances.
``loop_dls_step`` is the same step as a row-by-row Cholesky loop over lists,
the form the library's written-out step must equal bit for bit.
``loop_closed_form_start`` picks the planner's closed-form start with a
loop over the joints of each candidate, where the planner writes the six
joints out, and must give the same bits.
``loop_interpolate_trajectory`` builds the knots one segment at a time,
where the planner builds all segments in one expression, and must give the
same bits.
``loop_frame_target`` checks a wire frame's sequence number, angle count,
float range and limits one joint at a time, where the simulator checks
named locals first; ``rigid_product`` multiplies two transforms one nested-
list entry at a time, in the operand order of the simulator's capture and
release."""
import json
import math
from dataclasses import replace

import numpy as np

from armkit import (
    DEFAULT_JOINT_LIMITS_DEG,
    GRIPPER_CLOSED,
    ArmConfigError,
    ArmModel,
    BinaryMask,
    Blob,
    DHRow,
    FrameError,
    GrayImage,
    JointConfig,
    JointLimit,
    ServoFrame,
    Trajectory,
    forward_kinematics,
    matrix_to_pose,
)
from armkit.dh_model import JOINT_COUNT, clamp_to_limits
from armkit.ik_solver import DLS_DAMPING, STEP_LIMIT_RAD, _closed_form
from armkit.kinematics import rotation_log

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


def naive_frames(dh_rows, q_rad):
    """Base-to-joint transforms as nested lists, frames[0] = I and
    frames[i + 1] = frames[i] times joint i's DH matrix; dh_rows is a
    sequence of (theta_offset_deg, alpha_deg, a_m, d_m) tuples."""
    frames = [identity4()]
    for (toff, alpha, a, d), angle in zip(dh_rows, q_rad):
        frames.append(matmul4(frames[-1], naive_dh_matrix(toff, alpha, a, d, angle)))
    return frames


def naive_fk(dh_rows, q_deg):
    """dh_rows: sequence of (theta_offset_deg, alpha_deg, a_m, d_m) tuples."""
    return naive_frames(dh_rows, [math.radians(angle_deg) for angle_deg in q_deg])[-1]


def model_frames(model, q_rad):
    """naive_frames of a model's rows, shape (7, 4, 4)."""
    rows = [(r.theta_offset_deg, r.alpha_deg, r.a_m, r.d_m) for r in model.rows]
    return np.array(naive_frames(rows, [float(v) for v in q_rad]))


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
        Tp = model_frames(model, qp)[-1]
        Tm = model_frames(model, qm)[-1]
        J[:3, i] = (Tp[:3, 3] - Tm[:3, 3]) / (2.0 * h)
        J[3:, i] = rotation_log(Tp[:3, :3] @ Tm[:3, :3].T) / (2.0 * h)
    return J


def naive_jacobian(model, q_rad):
    """Geometric Jacobian with np.cross: column i is z_i x (p_end - p_i)
    stacked on z_i."""
    frames = model_frames(model, q_rad)
    z = frames[:-1, :3, 2]
    J = np.empty((6, JOINT_COUNT))
    J[:3] = np.cross(z, frames[-1, :3, 3] - frames[:-1, :3, 3]).T
    J[3:] = z.T
    return J


def naive_dls_step(J, err):
    """One damped-least-squares step on the first len(err) rows of the
    Jacobian J, scaled down to STEP_LIMIT_RAD in the infinity norm."""
    J = J[: len(err)]
    JJt = J @ J.T
    JJt[np.diag_indices_from(JJt)] += DLS_DAMPING**2
    dq = J.T @ np.linalg.solve(JJt, err)
    m = float(np.max(np.abs(dq)))
    if m > STEP_LIMIT_RAD:
        dq *= STEP_LIMIT_RAD / m
    return dq


def loop_dls_step(columns, err):
    """One damped-least-squares step from the Jacobian's six columns, as a
    row-by-row Cholesky of J J^T + DLS_DAMPING^2 I over lists on Python
    floats, every sum taken in index order, then J^T x and the step limit."""
    J = list(zip(*columns))[: len(err)]
    damping2 = DLS_DAMPING**2
    # L L^T = J J^T + damping2 I, one row of L at a time.
    L = []
    for i, (a0, a1, a2, a3, a4, a5) in enumerate(J):
        L_i = []
        for j in range(i):
            b0, b1, b2, b3, b4, b5 = J[j]
            s = a0 * b0 + a1 * b1 + a2 * b2 + a3 * b3 + a4 * b4 + a5 * b5
            for v, w in zip(L_i, L[j]):
                s -= v * w
            L_i.append(s / L[j][j])
        s = a0 * a0 + a1 * a1 + a2 * a2 + a3 * a3 + a4 * a4 + a5 * a5 + damping2
        for v in L_i:
            s -= v * v
        L_i.append(math.sqrt(s))
        L.append(L_i)
    # L y = err, then L^T x = y.
    y = []
    for L_i, e in zip(L, err):
        s = e
        for v, w in zip(L_i, y):
            s -= v * w
        y.append(s / L_i[-1])
    x = [0.0] * len(err)
    for i in reversed(range(len(err))):
        s = y[i]
        for k in range(i + 1, len(err)):
            s -= L[k][i] * x[k]
        x[i] = s / L[i][i]
    dq = []
    for column in columns:
        s = 0.0
        for a, b in zip(column, x):
            s += a * b
        dq.append(s)
    largest = max(map(abs, dq))
    if largest > STEP_LIMIT_RAD:
        scale = STEP_LIMIT_RAD / largest
        dq = [v * scale for v in dq]
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


def loop_largest_blob(mask: BinaryMask, min_area: int) -> Blob | None:
    """``largest_blob`` with a Python union-find over every row run: each
    run is joined with every run of the row above whose columns overlap
    it, the smaller run index kept as the root, and bincounts give each
    component's area and row/column sums in float64.  The library labels in
    numpy passes, loops only over the runs that join, and sums the winner's
    runs alone in int64; both must give the same Blob."""
    bits = mask.bits
    rows = np.flatnonzero(bits.any(axis=1))
    if rows.size == 0:
        return None
    width = bits.shape[1]
    padded = np.zeros((rows.size, width + 2), dtype=bool)
    padded[:, 1:-1] = bits[rows]
    flat = np.flatnonzero(padded[:, 1:] != padded[:, :-1])
    run_row = rows[flat[0::2] // (width + 1)]
    start = flat[0::2] % (width + 1)
    end = flat[1::2] % (width + 1)

    rr, ss, ee = run_row.tolist(), start.tolist(), end.tolist()
    runs = len(rr)
    parent = list(range(runs))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    above = 0  # first run of the row above that may still touch run k
    for k, (r, s, e) in enumerate(zip(rr, ss, ee)):
        while rr[above] < r - 1 or (rr[above] == r - 1 and ee[above] <= s):
            above += 1
        j = above
        while rr[j] == r - 1 and ss[j] < e:
            a, b = find(j), find(k)
            if a != b:
                parent[max(a, b)] = min(a, b)
            j += 1

    label = np.array([find(k) for k in range(runs)])
    length = end - start
    area = np.bincount(label, weights=length, minlength=runs)
    sum_r = np.bincount(label, weights=run_row * length, minlength=runs)
    sum_c = np.bincount(label, weights=(start + end - 1) * length // 2, minlength=runs)
    eligible = (label == np.arange(runs)) & (area >= min(max(min_area, 1), bits.size + 1))
    if not eligible.any():
        return None
    best = int(np.argmax(np.where(eligible, area, -1.0)))
    n = int(area[best])
    return Blob((int(sum_c[best]) / n, int(sum_r[best]) / n), n, (rr[best], ss[best]))


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
    tool = forward_kinematics(model, JointConfig(state.current_deg)).tolist()
    grasp = np.array(state.grasp_rel).reshape(4, 4).tolist()
    return replace(state, object_pose=matrix_to_pose(rigid_product(tool, grasp)))


def rigid_product(A, B):
    """The product of two rigid transforms given as nested lists, one entry
    at a time: each sum runs k = 0, 1, 2 in order, and A's translation is
    added last to the translation column.  The bottom rows [0, 0, 0, 1]
    contribute nothing else, so they are left out."""
    out = [[A[i][0] * B[0][j] + A[i][1] * B[1][j] + A[i][2] * B[2][j] for j in range(4)] for i in range(3)]
    for i in range(3):
        out[i][3] += A[i][3]
    return np.array(out + [[0.0, 0.0, 0.0, 1.0]])


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


def loop_closed_form_start(model, pose, previous):
    """The closed-form solution of ``pose`` within the limits that lies
    nearest ``previous`` (the least fsum of squared degree differences; the
    first of equal ones), or ``previous`` itself when none does.  Each angle
    is shifted by whole turns into [min, min + 360) and kept only if it is
    <= max, one joint at a time."""
    best, nearest = math.inf, previous
    for candidate in _closed_form(model, pose):
        angles = []
        for q, limit in zip(candidate, model.limits):
            angle = limit.min_deg + (math.degrees(q) - limit.min_deg) % 360.0
            if not angle <= limit.max_deg:
                break
            angles.append(angle)
        else:
            distance = math.fsum((a - b) * (a - b) for a, b in zip(angles, previous.angles_deg))
            if distance < best:
                best, nearest = distance, JointConfig(tuple(angles))
    return nearest


def loop_frame_target(model, last_seq, seq, centidegrees):
    """The joint targets of frame ``seq`` with angles ``centidegrees``,
    following frame ``last_seq``, in degrees; raises FrameError when the
    frame is out of order, has the wrong number of angles, or asks for a
    target beyond float range or outside the joint limits."""
    if seq <= last_seq:
        raise FrameError(
            f"frame sequence {seq} not greater than last applied {last_seq}"
        )
    if len(centidegrees) != JOINT_COUNT:
        raise FrameError(f"frame {seq}: expected {JOINT_COUNT} angles")
    try:
        target = tuple([c / 100.0 for c in centidegrees])
    except OverflowError as exc:
        raise FrameError(f"frame {seq}: target beyond float range") from exc
    for i, (angle, lim) in enumerate(zip(target, model.limits)):
        if not (lim.min_deg <= angle <= lim.max_deg):
            raise FrameError(
                f"frame {seq}: joint {i} target {angle} outside "
                f"[{lim.min_deg}, {lim.max_deg}]"
            )
    return target


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


def loop_interpolate_trajectory(model, waypoints, max_step_deg):
    """``interpolate_trajectory`` one segment at a time: each segment's
    knots from its own gap, step count and t column, and the gripper-change
    knot appended after them; the planner builds every segment's knots in
    one expression and must give the same bits."""
    if not (0.0 < max_step_deg < math.inf):
        raise ValueError(f"max_step_deg must be positive and finite, got {max_step_deg!r}")
    if not waypoints:
        raise ValueError("at least one waypoint required")
    for index, (config, _) in enumerate(waypoints):
        if not all(math.isfinite(a) for a in config.angles_deg):
            raise ValueError(f"waypoint {index} has a non-finite angle: {config.angles_deg}")
    first_config, first_gripper = waypoints[0]
    segments = [np.array([first_config.angles_deg])]
    grippers = [first_gripper]
    for (prev_config, prev_gripper), (next_config, next_gripper) in zip(waypoints, waypoints[1:]):
        a = np.array(prev_config.angles_deg)
        b = np.array(next_config.angles_deg)
        gap = float(np.max(np.abs(b - a)))
        steps = math.ceil(gap / max_step_deg)
        t = np.arange(1, steps + 1)[:, None] / steps
        segments.append((1.0 - t) * a + t * b)
        grippers.extend([prev_gripper] * steps)
        if next_gripper != prev_gripper:
            segments.append(b[None, :])
            grippers.append(next_gripper)
    knots = np.concatenate(segments)
    lo, hi = model.limits_deg
    knots = np.where(knots < lo, lo, knots)
    knots = np.where(knots > hi, hi, knots)
    return Trajectory(knots, tuple(grippers))


def naive_encode(trajectory):
    """One frame per knot, each angle rounded half-up to centidegrees on its
    own with math.floor."""
    return [
        ServoFrame(seq, tuple(math.floor(float(a) * 100.0 + 0.5) for a in knot), gripper == GRIPPER_CLOSED)
        for seq, (knot, gripper) in enumerate(zip(trajectory.knots, trajectory.grippers))
    ]


def naive_canonical_quat(q):
    """Unit quaternion with w >= 0, the first nonzero component positive at
    w == 0.  The squares are summed w, x, y, z on numpy scalars; a sum within
    8 * 2**-53 of 1 leaves the components as they are, any other divides
    them by its np.sqrt.  A finite nonzero quaternion whose sum under- or
    overflows is first divided by its largest magnitude, without numpy's
    overflow warning."""
    q = np.asarray(q, dtype=float)
    with np.errstate(over="ignore", under="ignore"):
        squares = q[0] * q[0] + q[1] * q[1] + q[2] * q[2] + q[3] * q[3]
    largest = float(np.max(np.abs(q)))
    if squares in (0.0, math.inf) and 0.0 < largest < math.inf:
        q = q / largest
        squares = q[0] * q[0] + q[1] * q[1] + q[2] * q[2] + q[3] * q[3]
    if not abs(squares - 1.0) <= 8.0 * 2.0**-53:
        n = np.sqrt(squares)
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


def naive_parse_pgm(data):
    """Binary PGM read by scanning the header one byte at a time: skip
    whitespace and '#' comments, take bytes up to the next whitespace as a
    token, and check the magic and the three numbers in turn."""
    pos = 0

    def next_token():
        nonlocal pos
        while pos < len(data):
            ch = data[pos : pos + 1]
            if ch == b"#":
                while pos < len(data) and data[pos : pos + 1] != b"\n":
                    pos += 1
            elif ch.isspace():
                pos += 1
            else:
                break
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ValueError("truncated PGM header")
        return data[start:pos]

    def next_number():
        token = next_token()
        if not token.isdigit():
            raise ValueError(f"{token!r} is not a decimal number")
        return int(token)

    magic = next_token()
    if magic != b"P5":
        raise ValueError(f"unsupported PGM magic {magic!r}; only binary P5 is accepted")
    try:
        width = next_number()
        height = next_number()
        maxval = next_number()
    except ValueError as exc:
        raise ValueError(f"malformed PGM header: {exc}") from exc
    if maxval != 255:
        raise ValueError(f"unsupported PGM maxval {maxval}; expected 255")
    if width < 1 or height < 1:
        raise ValueError(f"invalid PGM dimensions {width}x{height}")
    pos += 1
    held = max(0, min(len(data) - pos, width * height))
    if held != width * height:
        raise ValueError(f"PGM payload holds {held} bytes, expected {width * height}")
    pixels = np.frombuffer(data, dtype=np.uint8, count=held, offset=pos).reshape(height, width)
    return GrayImage(width=width, height=height, pixels=pixels)


_NAIVE_DH_KEYS = ("theta_offset_deg", "alpha_deg", "a_m", "d_m")
_NAIVE_JOINT_KEYS = {*_NAIVE_DH_KEYS, "limit_deg"}


def _naive_require_number(entry, key, joint):
    if key not in entry:
        raise ArmConfigError(f"joint {joint}: missing field '{key}'")
    value = entry[key]
    if not isinstance(value, float) or not math.isfinite(value):
        raise ArmConfigError(f"joint {joint}: '{key}' must be a finite number, got {value!r}")
    return value


def naive_load_arm_config(text):
    """The arm document read with its own JSON parse and field checks."""
    try:
        doc = json.loads(text, parse_int=float)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ArmConfigError(f"malformed JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ArmConfigError("top level must be a JSON object")
    unknown = set(doc) - {"name", "joints"}
    if unknown:
        raise ArmConfigError(f"unknown top-level fields: {sorted(unknown)}")
    name = doc.get("name")
    if not isinstance(name, str):
        raise ArmConfigError("'name' must be a string")
    joints = doc.get("joints")
    if not isinstance(joints, list):
        raise ArmConfigError("'joints' must be an array")
    if len(joints) != JOINT_COUNT:
        raise ArmConfigError(f"expected {JOINT_COUNT} joints, got {len(joints)}")
    rows = []
    limits = []
    for i, entry in enumerate(joints):
        if not isinstance(entry, dict):
            raise ArmConfigError(f"joint {i}: must be an object")
        unknown = set(entry) - _NAIVE_JOINT_KEYS
        if unknown:
            raise ArmConfigError(f"joint {i}: unknown fields: {sorted(unknown)}")
        rows.append(DHRow(*(_naive_require_number(entry, key, i) for key in _NAIVE_DH_KEYS)))
        if "limit_deg" in entry:
            raw = entry["limit_deg"]
            if not isinstance(raw, list) or len(raw) != 2 or any(not isinstance(v, float) for v in raw):
                raise ArmConfigError(f"joint {i}: 'limit_deg' must be a [min, max] number pair")
            limits.append(JointLimit(*raw))
        else:
            limits.append(JointLimit(*DEFAULT_JOINT_LIMITS_DEG[i]))
    return ArmModel(rows=tuple(rows), limits=tuple(limits), name=name)


def naive_load_calibration(text):
    """The calibration document read with its own JSON parse and field
    checks, one point list per side."""
    try:
        doc = json.loads(text, parse_int=float)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"malformed calibration JSON: {exc}") from exc
    if not isinstance(doc, list):
        raise ValueError("calibration file must be a JSON array")
    if len(doc) < 4:
        raise ValueError(f"calibration needs at least 4 correspondences, got {len(doc)}")
    fields = ("px", "py", "wx_m", "wy_m")
    pixel_pts = []
    world_pts = []
    for i, entry in enumerate(doc):
        if not isinstance(entry, dict):
            raise ValueError(f"calibration entry {i}: must be an object")
        unknown = set(entry) - set(fields)
        if unknown:
            raise ValueError(f"calibration entry {i}: unknown fields: {sorted(unknown)}")
        for key in fields:
            if key not in entry:
                raise ValueError(f"calibration entry {i}: missing field '{key}'")
            value = entry[key]
            if not isinstance(value, float) or not math.isfinite(value):
                raise ValueError(f"calibration entry {i}: '{key}' must be a finite number, got {value!r}")
        pixel_pts.append([entry["px"], entry["py"]])
        world_pts.append([entry["wx_m"], entry["wy_m"]])
    return np.array(pixel_pts), np.array(world_pts)
