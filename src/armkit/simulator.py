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
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .dh_model import JOINT_COUNT, ArmModel
from .kinematics import Pose6D, _link_frames, invert_transform, matrix_to_pose, pose_to_matrix
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


def _centidegree_rows(trajectory: Trajectory) -> list[list[int]]:
    """Each knot's angles rounded half-up to integer centidegrees."""
    centi = np.floor(trajectory.knots * 100.0 + 0.5)
    beyond = np.abs(centi) >= 2.0**63
    if beyond.any():
        raise ValueError(f"knot {int(np.argmax(beyond.any(axis=1)))} has an angle beyond 64-bit centidegrees")
    return centi.astype(np.int64).tolist()


def encode_servo_frames(trajectory: Trajectory) -> list[ServoFrame]:
    """One frame per knot, angles rounded half-up to centidegrees, sequence
    numbers counting from 0."""
    return [
        ServoFrame(seq, tuple(row), gripper == GRIPPER_CLOSED)
        for seq, (row, gripper) in enumerate(zip(_centidegree_rows(trajectory), trajectory.grippers))
    ]


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


def _stored_pose(state: SimState) -> Pose6D | _Held | None:
    """``state``'s object pose as stored: a state rebuilt from it passes a
    pose not yet computed through without computing it."""
    return state.__dict__["object_pose"]


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


def _set_gripper(model: ArmModel, state: SimState, gripper: GripperState) -> SimState:
    """Instantaneous gripper transition with proximity capture / release."""
    if gripper == state.gripper:
        return state
    if gripper == GRIPPER_CLOSED:
        grasp_rel = state.grasp_rel
        if grasp_rel is None and state.object_pose is not None:
            tool = _link_frames(model, np.radians(state.current_deg))[-1]
            obj = pose_to_matrix(state.object_pose)
            reach = float(np.linalg.norm(tool[:3, 3] - obj[:3, 3]))
            if reach <= CAPTURE_RADIUS_M:
                grasp_rel = tuple((invert_transform(tool) @ obj).reshape(-1).tolist())
        pose = _stored_pose(state)
        return SimState(state.current_deg, state.target_deg, gripper, state.elapsed_s, pose, grasp_rel, state.last_seq)
    # Opening: release wherever the object currently is.
    pose = state.object_pose if state.grasp_rel is None else _held_pose(model, state.current_deg, state.grasp_rel)
    return SimState(state.current_deg, state.target_deg, gripper, state.elapsed_s, pose, None, state.last_seq)


def _frame_target(model: ArmModel, last_seq: int, seq: int, centidegrees: Sequence[int]) -> tuple[float, ...]:
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


def apply_frame(
    model: ArmModel, state: SimState, frame: ServoFrame, config: SimConfig = SimConfig()
) -> SimState:
    """Accept one frame: update targets and gripper; motion happens in steps.

    Frames must arrive with strictly increasing sequence numbers and targets
    inside the joint limits.  ``config`` is unused; it matches settle's.
    """
    target = _frame_target(model, state.last_seq, frame.seq, frame.centidegrees)
    new = SimState(
        state.current_deg, target, state.gripper, state.elapsed_s, _stored_pose(state), state.grasp_rel, frame.seq
    )
    return _set_gripper(model, new, GRIPPER_CLOSED if frame.gripper_closed else GRIPPER_OPEN)


def _held_pose(model: ArmModel, current_deg: tuple[float, ...], grasp_rel: tuple[float, ...]) -> Pose6D:
    """Where the tool at joint angles ``current_deg`` holds an object at
    ``grasp_rel`` in the tool frame."""
    tool = _link_frames(model, np.radians(current_deg))[-1]
    return matrix_to_pose(tool @ np.array(grasp_rel).reshape(4, 4))


def _carry(
    model: ArmModel,
    state: SimState,
    current: tuple[float, ...],
    target: tuple[float, ...],
    elapsed: float,
    last_seq: int,
) -> SimState:
    """``state`` moved to joint angles ``current``, targets ``target``, clock
    ``elapsed`` and frame ``last_seq``, an attached object to be posed where
    the tool holds it now when its pose is first read."""
    grasp_rel = state.grasp_rel
    pose = _stored_pose(state) if grasp_rel is None else _Held(model, current, grasp_rel)
    return SimState(current, target, state.gripper, elapsed, pose, grasp_rel, last_seq)


def _stepped_ticks(cur: float, tgt: float, max_move: float) -> int:
    """One joint's ticks counted step by step: steps of exactly
    ``cur ± max_move`` while its gap exceeds ``max_move``, then one arrival
    tick unless a step landed on the target."""
    # No step overshoots, so the gap keeps its sign: cur + copysign(max_move, gap).
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


def _tick(
    current: tuple[float, ...], target: tuple[float, ...], elapsed: float, config: SimConfig, seq: int
) -> tuple[tuple[float, ...], float]:
    """Tick until every joint sits exactly on its target; returns the joint
    angles and the simulated time.

    Each tick of ``tick_s`` moves every joint toward its target by at most
    ``rate_limit_deg_s * tick_s``, arriving exactly (no overshoot).  The
    joints move independently, so each one's ticks are counted on its own.
    A gap of at most ``max_move`` takes one tick, none when it is zero.  A
    longer gap takes ``ceil(gap / max_move)`` ticks, the count of steps of
    exactly ``cur ± max_move`` plus the arrival tick, unless that ratio lies
    within the steps' rounding bound of a whole number: then _stepped_ticks
    counts the steps one by one.  The frame takes the largest count, N, and
    the clock adds ``tick_s`` N times in order, the same bits as ticking all
    joints together.  After N > 0 ticks every joint holds its target's bits:
    a step never lands on a zero, so one that lands on the target equals it
    bit for bit.  The angles must be finite.  Raises ValueError when the
    simulated time is no longer finite; ``seq`` names the frame in that
    message.
    """
    tick_s = config.tick_s
    max_move = config.rate_limit_deg_s * tick_s
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
    for _ in range(ticks):
        elapsed += tick_s
    if ticks:
        current = target
    if not math.isfinite(elapsed):
        raise ValueError(f"tick_s {tick_s} overflows the simulated time at frame {seq}")
    return current, elapsed


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
    time past the float range."""
    for field, angles in (("current_deg", state.current_deg), ("target_deg", state.target_deg)):
        for joint, angle in enumerate(angles):
            if not (abs(angle) <= MAX_SETTLE_ANGLE_DEG):  # negated so NaN fails too
                if not math.isfinite(angle):
                    raise ValueError(f"{field} joint {joint} is not finite: {angle}")
                raise ValueError(f"{field} joint {joint} has magnitude over {MAX_SETTLE_ANGLE_DEG} degrees: {angle}")
    if state.current_deg == state.target_deg:
        return state
    current, elapsed = _tick(state.current_deg, state.target_deg, state.elapsed_s, config, state.last_seq)
    return _carry(model, state, current, state.target_deg, elapsed, state.last_seq)


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
    ints between frames: a state is built only where a frame changes the
    gripper, for the capture or release, and once after the last frame.
    Release poses an attached object from the tool; if a tick moved it
    since its capture, the final state poses it from the last joint angles
    when its pose is first read.  The bits match applying and settling each
    frame.
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
            state = SimState(current, target, state.gripper, elapsed, _stored_pose(state), state.grasp_rel, last_seq)
            state = _set_gripper(model, state, gripper)
        ticked = current != target
        if ticked:
            current, elapsed = _tick(current, target, elapsed, config, last_seq)
        carried = state.attached and (carried or ticked)
        count += 1
    if carried:
        return _carry(model, state, current, target, elapsed, last_seq), count
    return SimState(current, target, state.gripper, elapsed, _stored_pose(state), state.grasp_rel, last_seq), count


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
    sent; execution itself never errors.
    """
    plan = plan_pick_place(model, object_pose, place_pose, clearance=clearance)
    trajectory = plan_to_trajectory(model, plan)
    closed = [gripper == GRIPPER_CLOSED for gripper in trajectory.grippers]
    frames = zip(range(len(closed)), _centidegree_rows(trajectory), closed)
    state, count = _run_frames(model, initial_state(model, object_pose=object_pose), frames, SimConfig())
    final = state.object_pose
    success = final is not None and (
        float(np.linalg.norm(np.array(final.position) - np.array(place_pose.position)))
        <= PLACE_TOLERANCE_M
    )
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
    inside its line, which then fails to parse."""
    lines = (line[:-1] if line.endswith("\r") else line for line in text.split("\n"))
    frames = (parse_frame(line) for line in lines if line.strip())
    state, count = _run_frames(model, initial_state(model), frames, config)
    return CycleReport(
        success=True, final_object_pose=None, frames_sent=count, sim_time_s=state.elapsed_s
    )
