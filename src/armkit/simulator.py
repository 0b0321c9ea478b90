"""Deterministic servo-bus simulator: rate-limited virtual servos consuming
the servo wire frames, with proximity-capture grasping.

Wire format, one frame per line, newline terminated, single spaces:
``F <seq> <a0> <a1> <a2> <a3> <a4> <a5> G <g>`` with seq a decimal >= 0,
angles signed decimal centidegrees, both in ASCII digits, and g 0 (open) or
1 (closed).

Execution discipline is settle-then-send: a frame is applied, the joints slew
to their targets, and only then is the next frame applied.  This removes
timing nondeterminism, so identical inputs always produce identical reports.
"""
from __future__ import annotations

import json
import math
import re
from bisect import bisect_left
from dataclasses import dataclass
from operator import sub
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .dh_model import JOINT_COUNT, ArmModel, JointConfig
from .kinematics import Pose6D, _end, _norm, _quat, _rotation, forward_kinematics
from .planner import (
    DEFAULT_CLEARANCE_M,
    GRIPPER_CLOSED,
    GRIPPER_OPEN,
    GripperState,
    Trajectory,
    plan_pick_place,
    plan_to_trajectory,
)

# A cycle places successfully when the object ends within this distance of
# the requested place position.
PLACE_TOLERANCE_M = 0.002
# Closing the gripper captures a free object whose origin lies within this
# distance of the tool origin.
CAPTURE_RADIUS_M = 0.01
# Smallest joint move per tick, degrees: a tenth of the wire's 0.01-degree
# step, so no frame (at most 360 degrees of travel) needs over 360,000 ticks.
MIN_MOVE_PER_TICK_DEG = 1e-3
# Largest angle magnitude settle accepts, degrees.  Joint limits lie in
# [0, 360), so every step still moves a joint and no settle needs over
# 1,440,000 ticks.
MAX_SETTLE_ANGLE_DEG = 720.0

_INT = r"(?:0|[1-9]\d*)"
_FRAME_RE = re.compile(
    rf"F ({_INT})"
    rf" (-?{_INT}) (-?{_INT}) (-?{_INT}) (-?{_INT}) (-?{_INT}) (-?{_INT})"
    rf" G ([01])\n?",
    re.ASCII,
)


class FrameError(ValueError):
    """A servo frame is malformed, out of order, or violates joint limits."""


class ServoFrame(NamedTuple):
    """One controller command: monotone sequence number, six target angles in
    integer centidegrees, and the gripper bit; the row the frame loop takes."""

    seq: int
    centidegrees: tuple[int, int, int, int, int, int]
    gripper_closed: bool

    def encode(self) -> str:
        a = self.centidegrees
        g = 1 if self.gripper_closed else 0
        return f"F {self.seq} {a[0]} {a[1]} {a[2]} {a[3]} {a[4]} {a[5]} G {g}\n"


def _centidegrees(trajectory: Trajectory) -> np.ndarray:
    """The knots' angles rounded half-up to whole centidegrees, an (N, 6)
    float array; raises ValueError for an angle beyond 64-bit centidegrees."""
    centi = np.floor(trajectory.knots * 100.0 + 0.5)
    beyond = np.abs(centi) >= 2.0**63
    if beyond.any():
        raise ValueError(f"knot {int(np.argmax(beyond.any(axis=1)))} has an angle beyond 64-bit centidegrees")
    return centi


def _frame_rows(trajectory: Trajectory) -> Iterator[tuple[int, list[int], bool]]:
    """Each knot's frame row: its sequence number counting from 0, its angles
    rounded half-up to integer centidegrees, and whether the gripper is
    closed.  Raises ValueError, before the first row, for an angle beyond
    64-bit centidegrees."""
    centi = _centidegrees(trajectory)
    closed = [gripper == GRIPPER_CLOSED for gripper in trajectory.grippers]
    return zip(range(len(closed)), centi.astype(np.int64).tolist(), closed)


def encode_servo_frames(trajectory: Trajectory) -> list[ServoFrame]:
    """One frame per knot, angles rounded half-up to centidegrees, sequence
    numbers counting from 0."""
    return [ServoFrame(seq, tuple(row), closed) for seq, row, closed in _frame_rows(trajectory)]


def frames_to_text(frames: Sequence[ServoFrame]) -> str:
    return "".join(frame.encode() for frame in frames)


@dataclass(frozen=True)
class SimConfig:
    """Virtual servo parameters."""

    rate_limit_deg_s: float = 300.0
    tick_s: float = 0.01

    def __post_init__(self) -> None:
        # Written as negated comparisons so NaN fails them too.
        if not (self.rate_limit_deg_s > 0.0):
            raise ValueError("rate_limit_deg_s must be positive")
        if not (0.0 < self.tick_s < math.inf):
            raise ValueError("tick_s must be positive and finite")
        if not (self.rate_limit_deg_s * self.tick_s >= MIN_MOVE_PER_TICK_DEG):
            raise ValueError(f"rate_limit_deg_s * tick_s must be >= {MIN_MOVE_PER_TICK_DEG} degrees")


class _Held(NamedTuple):
    """An attached object's pose not yet computed: the tool at joint angles
    ``current_deg`` holding it at ``grasp_rel``."""

    model: ArmModel
    current_deg: tuple[float, ...]
    grasp_rel: tuple[float, ...]


class _ObjectPose:
    """The ``SimState.object_pose`` field.  It stores a Pose6D, None, or a
    _Held record, which the first read poses with _held_pose and caches in
    the state, so every later read returns the same Pose6D."""

    def __get__(self, state: SimState | None, owner: type | None = None) -> Pose6D | None:
        if state is None:
            return None  # the field's default
        pose = state.__dict__["object_pose"]
        if type(pose) is _Held:
            pose = state.__dict__["object_pose"] = _held_pose(*pose)
        return pose

    def __set__(self, state: SimState, pose: Pose6D | _Held | None) -> None:
        state.__dict__["object_pose"] = pose


@dataclass(frozen=True, init=False)
class SimState:
    """Snapshot of the virtual bus: where the joints are, where they are
    headed, the gripper, and the workspace object (attached or free).

    ``grasp_rel`` is the object's pose in the tool frame (16 row-major floats)
    while attached, None otherwise; it stays constant for the whole grasp.
    A carried object's ``object_pose`` is computed from the tool when it is
    first read and then cached, with the same bits as posing it at once;
    ``==``, ``hash``, ``repr``, copying and pickling read it like any field.
    The constructor takes the fields in order, with their defaults, and
    stores each one straight into the instance dict: the frozen dataclass's
    generated one pays an ``object.__setattr__`` per field.
    """

    current_deg: tuple[float, float, float, float, float, float]
    target_deg: tuple[float, float, float, float, float, float]
    gripper: GripperState = GRIPPER_OPEN
    elapsed_s: float = 0.0
    object_pose: Pose6D | None = _ObjectPose()
    grasp_rel: tuple[float, ...] | None = None
    last_seq: int = -1

    def __init__(
        self,
        current_deg: tuple[float, float, float, float, float, float],
        target_deg: tuple[float, float, float, float, float, float],
        gripper: GripperState = GRIPPER_OPEN,
        elapsed_s: float = 0.0,
        object_pose: Pose6D | _Held | None = None,
        grasp_rel: tuple[float, ...] | None = None,
        last_seq: int = -1,
    ) -> None:
        stored = self.__dict__
        stored["current_deg"] = current_deg
        stored["target_deg"] = target_deg
        stored["gripper"] = gripper
        stored["elapsed_s"] = elapsed_s
        stored["object_pose"] = object_pose  # all that _ObjectPose.__set__ does
        stored["grasp_rel"] = grasp_rel
        stored["last_seq"] = last_seq

    @property
    def attached(self) -> bool:
        return self.grasp_rel is not None

    def __getstate__(self) -> dict:
        self.object_pose  # a copy or a pickle holds the pose, not the arm
        return self.__dict__


def initial_state(model: ArmModel, object_pose: Pose6D | None = None) -> SimState:
    """Servos parked at their mid-range positions, gripper open."""
    mid = model.mid_config().angles_deg
    return SimState(current_deg=mid, target_deg=mid, object_pose=object_pose)


def parse_frame(line: str) -> ServoFrame:
    """Parse one wire-format line; the exact inverse of ServoFrame.encode."""
    m = _FRAME_RE.fullmatch(line)
    if m is None:
        raise FrameError(f"malformed servo frame: {line!r}")
    seq, a0, a1, a2, a3, a4, a5, g = m.groups()
    try:
        return ServoFrame(int(seq), (int(a0), int(a1), int(a2), int(a3), int(a4), int(a5)), g == "1")
    except ValueError as exc:  # more digits than int() converts
        raise FrameError(f"malformed servo frame: a number has too many digits: {line[:40]!r}...") from exc


def _next_state(
    model: ArmModel, state: SimState, current: tuple[float, ...], target: tuple[float, ...],
    elapsed: float, last_seq: int, gripper: GripperState, moved: bool,
) -> SimState:
    """The bus after ``state`` with joint angles ``current``, targets
    ``target``, clock ``elapsed``, last frame ``last_seq`` and gripper
    ``gripper``; ``moved`` says the joints ticked since the object was last
    posed.  The one place, beside initial_state, that builds a SimState.

    Closing the gripper captures a free object within CAPTURE_RADIUS_M of
    the tool at ``current``; opening it releases a held object, posed from
    the tool at ``current`` even when nothing moved.  Otherwise a held object
    that ``moved`` is posed from the tool at ``current`` when its pose is
    first read, and any other object keeps its pose as stored: a pose not
    yet computed stays so, and a capture with no motion keeps its bits."""
    pose = state.__dict__["object_pose"]
    grasp_rel = state.grasp_rel
    changed = gripper != state.gripper
    if changed and gripper == GRIPPER_CLOSED and grasp_rel is None and pose is not None:
        r00, r01, r02, tx, r10, r11, r12, ty, r20, r21, r22, tz = _end(forward_kinematics(model, JointConfig(current)))
        px, py, pz = pose.position
        offset = (px - tx, py - ty, pz - tz)
        if _norm(offset) <= CAPTURE_RADIUS_M:
            # The tool's inverse times the object: R^T times the object's
            # rotation columns and times its offset from the tool.
            q00, q01, q02, q10, q11, q12, q20, q21, q22 = _rotation(pose.quaternion)
            rows = ((r00, r10, r20), (r01, r11, r21), (r02, r12, r22))
            columns = ((q00, q10, q20), (q01, q11, q21), (q02, q12, q22), offset)
            grasp_rel = (*_products(rows, columns), 0.0, 0.0, 0.0, 1.0)
    elif changed and gripper == GRIPPER_OPEN and grasp_rel is not None:
        pose, grasp_rel = _held_pose(model, current, grasp_rel), None
    elif moved and grasp_rel is not None:
        pose = _Held(model, current, grasp_rel)
    return SimState(current, target, gripper, elapsed, pose, grasp_rel, last_seq)


def _frame_target(model: ArmModel, last_seq: int, seq: int, centidegrees: Sequence[int]) -> tuple[float, ...]:
    """The joint targets of frame ``seq`` with angles ``centidegrees``,
    following frame ``last_seq``, in degrees; raises FrameError when the
    frame is out of order, has the wrong number of angles, or asks for a
    target beyond float range or outside the joint limits.

    The checks run over named locals; when one fails, _checked_frame_target
    runs them joint by joint and raises naming the first that fails."""
    l0, l1, l2, l3, l4, l5 = model.limits
    try:
        c0, c1, c2, c3, c4, c5 = centidegrees
        a0, a1, a2, a3, a4, a5 = c0 / 100.0, c1 / 100.0, c2 / 100.0, c3 / 100.0, c4 / 100.0, c5 / 100.0
    except (TypeError, ValueError, OverflowError):  # not six numbers, or one beyond float range
        pass
    else:
        if (
            last_seq < seq
            and l0.min_deg <= a0 <= l0.max_deg and l1.min_deg <= a1 <= l1.max_deg
            and l2.min_deg <= a2 <= l2.max_deg and l3.min_deg <= a3 <= l3.max_deg
            and l4.min_deg <= a4 <= l4.max_deg and l5.min_deg <= a5 <= l5.max_deg
        ):
            return a0, a1, a2, a3, a4, a5
    return _checked_frame_target(model, last_seq, seq, centidegrees)


def _checked_frame_target(
    model: ArmModel, last_seq: int, seq: int, centidegrees: Sequence[int]
) -> tuple[float, ...]:
    """_frame_target one check at a time, in order: the sequence number, the
    angle count, float range, then each joint's limits."""
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


def apply_frame(
    model: ArmModel, state: SimState, frame: ServoFrame, config: SimConfig = SimConfig()
) -> SimState:
    """Accept one frame: update targets and gripper, with any capture or
    release; motion happens in `settle`.

    Frames must arrive with strictly increasing sequence numbers and targets
    inside the joint limits.  ``config`` is unused; it matches settle's.
    """
    target = _frame_target(model, state.last_seq, frame.seq, frame.centidegrees)
    gripper = GRIPPER_CLOSED if frame.gripper_closed else GRIPPER_OPEN
    return _next_state(model, state, state.current_deg, target, state.elapsed_s, frame.seq, gripper, False)


def _held_pose(model: ArmModel, current_deg: tuple[float, ...], grasp_rel: tuple[float, ...]) -> Pose6D:
    """Where the tool at joint angles ``current_deg`` holds an object at
    ``grasp_rel`` in the tool frame: the tool times the grasp."""
    r00, r01, r02, tx, r10, r11, r12, ty, r20, r21, r22, tz = _end(forward_kinematics(model, JointConfig(current_deg)))
    g00, g01, g02, gx, g10, g11, g12, gy, g20, g21, g22, gz = grasp_rel[:12]
    rows = ((r00, r01, r02), (r10, r11, r12), (r20, r21, r22))
    columns = ((g00, g10, g20), (g01, g11, g21), (g02, g12, g22), (gx, gy, gz))
    m00, m01, m02, mx, m10, m11, m12, my, m20, m21, m22, mz = _products(rows, columns)
    return Pose6D((mx + tx, my + ty, mz + tz), _quat((m00, m01, m02, m10, m11, m12, m20, m21, m22)))


def _products(rows: Sequence[Sequence[float]], columns: Sequence[Sequence[float]]) -> list[float]:
    """Each row times each column, row-major: three rows by four columns
    of 3-vectors, each sum taken in order, on Python floats, so no BLAS
    kernel reaches the capture or release bits."""
    return [a * x + b * y + c * z for a, b, c in rows for x, y, z in columns]


def _stepped_ticks(cur: float, tgt: float, max_move: float) -> int:
    """One joint's ticks counted step by step: steps of exactly
    ``cur ± max_move`` while its gap exceeds ``max_move``, then one arrival
    tick unless a step landed on the target."""
    # No step overshoots, so the gap keeps its sign, and fl(cur - tgt) is
    # exactly -fl(tgt - cur): one signed step matches both directions.
    step = math.copysign(max_move, tgt - cur)
    count = 0
    while abs(tgt - cur) > max_move:
        cur += step
        count += 1
    return count + (cur != tgt)


def _tick(
    current: tuple[float, ...], target: tuple[float, ...], elapsed: float, config: SimConfig, seq: int
) -> tuple[tuple[float, ...], float]:
    """Tick until every joint sits exactly on its target; returns the joint
    angles and the simulated time.

    Each tick of ``tick_s`` moves every joint toward its target by at most
    ``rate_limit_deg_s * tick_s``, arriving exactly (no overshoot).  The
    joints move independently, so the frame takes the largest of their
    counts, N, and the clock adds ``tick_s`` N times in order, the same bits
    as ticking all joints together.  A frame whose every gap is at most
    ``max_move`` takes one tick, none when every gap is zero.  Otherwise its
    largest gap takes ``ceil(gap / max_move)`` ticks unless that ratio lies
    within the frame's rounding bound of a whole number: then
    _ticks_by_joint counts each joint on its own.  After N > 0 ticks every
    joint holds its target's bits: a step never lands on a zero, so one that
    lands on the target equals it bit for bit.  The six angles of each must
    be finite.  Raises ValueError when the simulated time is no longer
    finite; ``seq`` names the frame in that message.
    """
    tick_s = config.tick_s
    max_move = config.rate_limit_deg_s * tick_s
    c0, c1, c2, c3, c4, c5 = current
    t0, t1, t2, t3, t4, t5 = target
    # fl(tgt - cur) is exactly -fl(cur - tgt), so each tgt - cur holds the
    # bits of the joint's gap, up to sign, whichever way it moves.  Finite
    # angles differ exactly when their gap is nonzero.
    if (
        -max_move <= t0 - c0 <= max_move and -max_move <= t1 - c1 <= max_move
        and -max_move <= t2 - c2 <= max_move and -max_move <= t3 - c3 <= max_move
        and -max_move <= t4 - c4 <= max_move and -max_move <= t5 - c5 <= max_move
    ):
        ticks = 1 if t0 != c0 or t1 != c1 or t2 != c2 or t3 != c3 or t4 != c4 or t5 != c5 else 0
    else:
        gap = max(abs(t0 - c0), abs(t1 - c1), abs(t2 - c2), abs(t3 - c3), abs(t4 - c4), abs(t5 - c5))
        # Each joint's count is ceil(r_j) outside its own rounding bound (see
        # _ticks_by_joint), and never more than ceil(r_j + bound_j) inside
        # it.  The bound below takes the largest count, ratio and angle of
        # the frame, and grows with each, so it is at least every joint's
        # own.  When r = gap / max_move lies farther than it from a whole
        # number, the joint with the largest gap (r_j = r) counts ceil(r),
        # and every other joint, r_j <= r < ceil(r) - bound, counts at most
        # ceil(r_j + bound_j) <= ceil(r).
        r = gap / max_move
        ticks = math.ceil(r)
        largest = max(
            abs(c0), abs(c1), abs(c2), abs(c3), abs(c4), abs(c5), abs(t0), abs(t1), abs(t2), abs(t3), abs(t4), abs(t5)
        )
        bound = ((ticks + 1) * (largest + max_move) / max_move + 2.0 * r + 4.0) * 2.0**-53
        if not (bound < ticks - r < 1.0 - bound):  # ticks - r is exact: ticks / 2 <= r <= ticks
            ticks = _ticks_by_joint(current, target, max_move)
    for _ in range(ticks):
        elapsed += tick_s
    if ticks:
        current = target
    if not math.isfinite(elapsed):
        raise ValueError(f"tick_s {tick_s} overflows the simulated time at frame {seq}")
    return current, elapsed


def _ticks_by_joint(current: tuple[float, ...], target: tuple[float, ...], max_move: float) -> int:
    """The largest of the joints' tick counts, each joint counted on its own.

    A gap of at most ``max_move`` takes one tick, none when it is zero.  A
    longer gap takes ``ceil(gap / max_move)`` ticks, the count of steps of
    exactly ``cur ± max_move`` plus the arrival tick, unless that ratio lies
    within the steps' rounding bound of a whole number: then _stepped_ticks
    counts the steps one by one."""
    ticks = 0
    for cur, tgt in zip(current, target):
        if cur < tgt:
            gap = tgt - cur
        else:
            gap = cur - tgt
        if gap > max_move:
            # Why ceil(r) is the stepped count outside the bound (u = 2**-53,
            # M = max(|cur|, |tgt|)): each step rounds by at most
            # u * (M + max_move), so after k steps the angle lies within
            # k * (M + max_move) / max_move * u moves of cur ± k * max_move,
            # and the loop's test rounds by under 2u more.  The loop thus
            # counts ceil(g) ticks, g the exact gap in moves, when g is
            # farther than that, at k = ceil(g) + 1, from a whole number.  r,
            # two roundings off g, lies within 2r * u of it; the last 2u
            # covers rounding in the bound itself.  Closer to a whole number,
            # step.
            r = gap / max_move
            count = math.ceil(r)
            bound = ((count + 1) * (max(abs(cur), abs(tgt)) + max_move) / max_move + 2.0 * r + 4.0) * 2.0**-53
            if not (bound < count - r < 1.0 - bound):  # count - r is exact: count / 2 <= r <= count
                count = _stepped_ticks(cur, tgt, max_move)
            if count > ticks:
                ticks = count
        elif gap and not ticks:
            ticks = 1
    return ticks


def settle(model: ArmModel, state: SimState, config: SimConfig = SimConfig()) -> SimState:
    """Step until every joint sits exactly on its target.

    An attached object is not posed here: the state computes its pose from
    the final joint angles when it is first read, with the same bits as
    carrying it every tick.  A state that needs no tick comes back as it is,
    so an object captured on a zero-motion frame keeps its pose's exact bits
    instead of passing through the tool transform and its inverse.  Raises
    ValueError, before any tick, when a current or target angle is not
    finite or has a magnitude over MAX_SETTLE_ANGLE_DEG (where a step of a
    huge angle would no longer move it), and when a tick takes the simulated
    time past the float range.  A state whose current or target angles are
    not six raises ValueError naming the field."""
    try:
        c0, c1, c2, c3, c4, c5 = state.current_deg
        t0, t1, t2, t3, t4, t5 = state.target_deg
    except ValueError:
        for field in ("current_deg", "target_deg"):
            count = len(getattr(state, field))
            if count != JOINT_COUNT:
                raise ValueError(f"{field} must hold {JOINT_COUNT} angles, got {count}") from None
        raise
    m = MAX_SETTLE_ANGLE_DEG
    # Chained comparisons over named locals, each false for NaN; when one
    # fails, the loop names the first angle that fails.
    if not (
        -m <= c0 <= m and -m <= c1 <= m and -m <= c2 <= m and -m <= c3 <= m and -m <= c4 <= m and -m <= c5 <= m
        and -m <= t0 <= m and -m <= t1 <= m and -m <= t2 <= m and -m <= t3 <= m and -m <= t4 <= m and -m <= t5 <= m
    ):
        for field, angles in (("current_deg", state.current_deg), ("target_deg", state.target_deg)):
            for joint, angle in enumerate(angles):
                if not (abs(angle) <= MAX_SETTLE_ANGLE_DEG):  # negated so NaN fails too
                    if not math.isfinite(angle):
                        raise ValueError(f"{field} joint {joint} is not finite: {angle}")
                    raise ValueError(
                        f"{field} joint {joint} has magnitude over {MAX_SETTLE_ANGLE_DEG} degrees: {angle}"
                    )
    if state.current_deg == state.target_deg:
        return state
    current, elapsed = _tick(state.current_deg, state.target_deg, state.elapsed_s, config, state.last_seq)
    return _next_state(model, state, current, state.target_deg, elapsed, state.last_seq, state.gripper, True)


@dataclass(frozen=True)
class CycleReport:
    """Outcome of one executed cycle."""

    success: bool
    final_object_pose: Pose6D | None
    frames_sent: int
    sim_time_s: float

    def as_dict(self) -> dict:
        pose = None
        if self.final_object_pose is not None:
            pose = {
                "position_m": list(self.final_object_pose.position),
                "quaternion_wxyz": list(self.final_object_pose.quaternion),
            }
        return {
            "success": self.success,
            "final_object_pose": pose,
            "frames_sent": self.frames_sent,
            "sim_time_s": self.sim_time_s,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2)


def _run_frames(
    model: ArmModel, state: SimState, frames: Iterable[ServoFrame], config: SimConfig
) -> tuple[SimState, int]:
    """Apply and settle each frame in turn, a ServoFrame or any row of its
    three fields; returns the final state and the number of frames.

    The joints, targets, clock and sequence number stay plain floats and
    ints between frames: _next_state builds one state where a frame changes
    the gripper, for the capture or release, and one after the last frame,
    which poses an object carried since the last state from the last joint
    angles when its pose is first read.  The bits match applying and
    settling each frame.
    """
    current, target = state.current_deg, state.target_deg
    elapsed, last_seq = state.elapsed_s, state.last_seq
    carried = False
    count = 0
    for seq, centidegrees, gripper_closed in frames:
        target = _frame_target(model, last_seq, seq, centidegrees)
        last_seq = seq
        gripper = GRIPPER_CLOSED if gripper_closed else GRIPPER_OPEN
        if gripper != state.gripper:
            state = _next_state(model, state, current, target, elapsed, last_seq, gripper, carried)
        ticked = current != target
        if ticked:
            current, elapsed = _tick(current, target, elapsed, config, last_seq)
        carried = state.attached and (carried or ticked)
        count += 1
    return _next_state(model, state, current, target, elapsed, last_seq, state.gripper, carried), count


def _one_tick_moves(model: ArmModel, state: SimState, targets: np.ndarray, max_move: float) -> list[int] | None:
    """The frames that move the joints, when every frame of ``targets``
    (N, 6), applied after ``state``, passes _frame_target's checks and
    takes at most one tick of ``max_move``; otherwise None."""
    joints = state.current_deg
    lo, hi = model.limits_deg
    if not (
        state.last_seq < 0  # the frames count from 0
        # A list never equals a frame's tuple, so the row loop would tick it.
        and type(joints) is tuple and len(joints) == JOINT_COUNT
        # Any other gripper changes at frame 0, whatever the frame asks.
        and state.gripper in (GRIPPER_OPEN, GRIPPER_CLOSED)
        and ((lo <= targets) & (targets <= hi)).all()
    ):
        return None
    start = np.array(joints, dtype=np.float64)
    if not np.isfinite(start).all():  # checked first: no subtraction meets an inf or NaN
        return None
    gaps = targets - np.concatenate((start[None], targets[:-1]))
    if not (np.abs(gaps) <= max_move).all():
        return None
    return np.flatnonzero(gaps.any(axis=1)).tolist()


def _run_trajectory(
    model: ArmModel, state: SimState, trajectory: Trajectory, config: SimConfig
) -> tuple[SimState, int]:
    """_run_frames over the frame rows of ``trajectory``, as a few array
    operations over its knots: the same final state, frame count and errors.

    When _one_tick_moves finds every frame one tick or none away from the
    one before, each frame that moves takes exactly one tick and leaves the
    joints equal to its target in value.  The previous target then stands in
    for the joints in every gap, where a signed zero changes no check.  The
    clock adds ``tick_s`` once per moving frame, in order, and Python runs
    only where the gripper changes and for the final state: each _next_state
    gets the joints of the last frame that moved (``state``'s when none
    did), the clock and the carried flag that the row loop would pass it.
    Any other trajectory, or a clock that leaves float range, runs the row
    loop, which raises naming the frame."""
    centi = _centidegrees(trajectory)
    targets = centi / 100.0  # the bits of c / 100.0 on the row's int: float(int(c)) == c
    tick_s = config.tick_s
    moved = _one_tick_moves(model, state, targets, config.rate_limit_deg_s * tick_s)
    if moved is None:
        return _run_frames(model, state, _frame_rows(trajectory), config)
    closed = [gripper == GRIPPER_CLOSED for gripper in trajectory.grippers]
    # The frames whose gripper differs from the one before, the state's for
    # frame 0: found by list.index, each the next of the other bit.
    changes, seq, bit = [], 0, state.gripper == GRIPPER_OPEN
    while bit in closed[seq:]:
        seq = closed.index(bit, seq)
        changes.append(seq)
        bit = not bit
    count = len(closed)
    bus, elapsed, carried = state, state.elapsed_s, False
    ticks = 0  # the moving frames ahead of the last state built
    for seq in changes + [count]:
        before = bisect_left(moved, seq)  # the moving frames ahead of frame seq
        for _ in range(before - ticks):
            elapsed += tick_s
        carried = bus.attached and (carried or before > ticks)
        ticks = before
        current = tuple(targets[moved[before - 1]].tolist()) if before else state.current_deg
        if seq < count:
            gripper = GRIPPER_CLOSED if closed[seq] else GRIPPER_OPEN
            bus = _next_state(model, bus, current, tuple(targets[seq].tolist()), elapsed, seq, gripper, carried)
    if moved and not math.isfinite(elapsed):
        return _run_frames(model, state, _frame_rows(trajectory), config)
    final = _next_state(model, bus, current, tuple(targets[-1].tolist()), elapsed, count - 1, bus.gripper, carried)
    return final, count


def run_pick_cycle(
    model: ArmModel,
    object_pose: Pose6D,
    place_pose: Pose6D,
    *,
    clearance: float = DEFAULT_CLEARANCE_M,
) -> CycleReport:
    """Plan, encode, and execute a full pick-and-place cycle in simulation.

    Success means the object's final position lies within PLACE_TOLERANCE_M of
    the requested place position.  Planning failures raise before any frame is
    sent; execution itself never errors.  The planned knots run through
    _run_trajectory: at the default SimConfig every frame is at most one
    tick, so the array pass runs them all.
    """
    plan = plan_pick_place(model, object_pose, place_pose, clearance=clearance)
    trajectory = plan_to_trajectory(model, plan)
    state, count = _run_trajectory(model, initial_state(model, object_pose=object_pose), trajectory, SimConfig())
    final = state.object_pose
    success = final is not None and _norm(tuple(map(sub, final.position, place_pose.position))) <= PLACE_TOLERANCE_M
    return CycleReport(
        success=success,
        final_object_pose=final,
        frames_sent=count,
        sim_time_s=state.elapsed_s,
    )


def replay_frames(model: ArmModel, text: str, config: SimConfig = SimConfig()) -> CycleReport:
    r"""Execute a frame stream (one frame per line) with no workspace object;
    used to replay recorded plans byte-for-byte.

    Lines end at ``"\n"`` only, and one ``"\r"`` at the end of a line is
    dropped, so CRLF text replays too.  Blank lines are skipped.  Any other
    line break, such as a lone ``"\r"``, ``"\x85"`` or ``"\u2028"``, stays
    inside its line, which then fails to parse.

    The stream runs through the row loop, frame by frame, not through
    _run_trajectory's array pass: its lines are parsed as the loop reaches
    them, so a frame that fails ahead of a malformed line raises first; its
    integers may exceed 64 bits; and its frames may take many ticks each,
    which the array pass hands to the row loop anyway."""
    lines = (line[:-1] if line.endswith("\r") else line for line in text.split("\n"))
    frames = (parse_frame(line) for line in lines if line.strip())
    state, count = _run_frames(model, initial_state(model), frames, config)
    return CycleReport(
        success=True, final_object_pose=None, frames_sent=count, sim_time_s=state.elapsed_s
    )
