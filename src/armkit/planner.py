"""Pick-and-place planning: grasp waypoint schema and joint-space interpolation."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

# clamp_to_limits stays a module global for perfbench/tracing.py to rebind.
from .dh_model import JOINT_COUNT, ArmModel, JointConfig, clamp_to_limits  # noqa: F401
from .ik_solver import IkSettings, NoConvergenceError, UnreachableError, _closed_form, solve_ik
from .kinematics import Pose6D, _norm, forward_kinematics, matrix_to_pose

GripperState = Literal["open", "closed"]
GRIPPER_OPEN: GripperState = "open"
GRIPPER_CLOSED: GripperState = "closed"

DEFAULT_CLEARANCE_M = 0.05
MAX_STEP_DEG = 2.0

# Grasp schema: approach from above, close once at grasp, open once at place.
WAYPOINT_ORDER = ("home", "pre_grasp", "grasp", "lift", "pre_place", "place", "retreat")


@dataclass(frozen=True)
class Waypoint:
    """A named target pose, the gripper state on arrival, and the solved
    joint configuration that reaches the pose."""

    name: str
    pose: Pose6D
    gripper: GripperState
    config: JointConfig


@dataclass(frozen=True)
class GraspPlan:
    """Ordered, named, solved waypoints of one pick-and-place cycle."""

    waypoints: tuple[Waypoint, ...]


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Time-ordered joint knots: ``knots`` is a read-only (N, 6) float64 array
    of angles in degrees, N >= 1, and ``grippers`` the gripper state at each
    knot.  Gripper changes sit on zero-motion knots."""

    knots: np.ndarray
    grippers: tuple[GripperState, ...]

    def __post_init__(self) -> None:
        knots = np.array(self.knots, dtype=np.float64)
        if knots.ndim != 2 or knots.shape[0] < 1 or knots.shape[1] != JOINT_COUNT:
            raise ValueError(f"knots must have shape (N, {JOINT_COUNT}) with N >= 1, got {knots.shape}")
        finite = np.isfinite(knots).all(axis=1)
        if not finite.all():
            raise ValueError(f"knot {int(np.argmin(finite))} has a non-finite angle")
        grippers = tuple(self.grippers)
        if len(grippers) != len(knots):
            raise ValueError(f"grippers has {len(grippers)} entries for {len(knots)} knots")
        knots.flags.writeable = False
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "grippers", grippers)


def top_down_pose(x: float, y: float, z: float) -> Pose6D:
    """Pose at (x, y, z) with the tool z-axis pointing straight down; the
    default grasp orientation when perception yields position only."""
    return Pose6D((x, y, z), (0.0, 1.0, 0.0, 0.0))


def _raised(pose: Pose6D, dz: float) -> Pose6D:
    x, y, z = pose.position
    return Pose6D((x, y, z + dz), pose.quaternion)


def _closed_form_start(model: ArmModel, pose: Pose6D, previous: JointConfig) -> JointConfig:
    """The closed-form solution of ``pose`` within the limits that lies
    nearest ``previous`` (the least sum of squared degree differences; the
    first of equal ones), or ``previous`` itself when the arm has no closed
    form or no solution lies within the limits.  Each angle is shifted by
    whole turns into [min, min + 360) and kept only if it is <= max.

    Written out over named locals, a candidate at a time: the shifts and
    limit tests stop at the first joint outside its limits, fsum rounds the
    distance once, and only the winner becomes a JointConfig.  The tests
    keep the loop form as the reference (``loop_closed_form_start``)."""
    l0, l1, l2, l3, l4, l5 = model.limits
    lo0, lo1, lo2, lo3, lo4, lo5 = l0.min_deg, l1.min_deg, l2.min_deg, l3.min_deg, l4.min_deg, l5.min_deg
    hi0, hi1, hi2, hi3, hi4, hi5 = l0.max_deg, l1.max_deg, l2.max_deg, l3.max_deg, l4.max_deg, l5.max_deg
    p0, p1, p2, p3, p4, p5 = previous.angles_deg
    degrees, fsum = math.degrees, math.fsum
    best, nearest = math.inf, None
    for q0, q1, q2, q3, q4, q5 in _closed_form(model, pose):
        # Each test reads only its own joint, so the chain stops at the
        # first joint outside its limits.
        if (
            (a0 := lo0 + (degrees(q0) - lo0) % 360.0) <= hi0
            and (a1 := lo1 + (degrees(q1) - lo1) % 360.0) <= hi1
            and (a2 := lo2 + (degrees(q2) - lo2) % 360.0) <= hi2
            and (a3 := lo3 + (degrees(q3) - lo3) % 360.0) <= hi3
            and (a4 := lo4 + (degrees(q4) - lo4) % 360.0) <= hi4
            and (a5 := lo5 + (degrees(q5) - lo5) % 360.0) <= hi5
        ):
            distance = fsum((
                (a0 - p0) * (a0 - p0), (a1 - p1) * (a1 - p1), (a2 - p2) * (a2 - p2),
                (a3 - p3) * (a3 - p3), (a4 - p4) * (a4 - p4), (a5 - p5) * (a5 - p5),
            ))
            if distance < best:
                best, nearest = distance, (a0, a1, a2, a3, a4, a5)
    return previous if nearest is None else JointConfig(nearest)


def _solve_waypoint(
    model: ArmModel, name: str, pose: Pose6D, previous: JointConfig, ik_settings: IkSettings
) -> JointConfig:
    """IK for one waypoint, seeded by _closed_form_start; a
    NoConvergenceError is re-raised naming the waypoint.  The solver's own
    reach check cannot fire here: plan_pick_place has already checked every
    waypoint against the same workspace bound, measured with the same
    norm."""
    try:
        return solve_ik(model, pose, _closed_form_start(model, pose, previous), ik_settings).solution
    except NoConvergenceError as exc:
        raise NoConvergenceError(
            exc.best_position_error, exc.best_orientation_error, exc.attempts, waypoint=name
        ) from exc


def plan_pick_place(
    model: ArmModel,
    object_pose: Pose6D,
    place_pose: Pose6D,
    *,
    clearance: float = DEFAULT_CLEARANCE_M,
    ik_settings: IkSettings = IkSettings(),
) -> GraspPlan:
    """Build the seven-waypoint grasp plan and solve every waypoint.

    The gripper closes exactly once (at grasp) and opens exactly once (at
    place); pre/post waypoints sit ``clearance`` meters above their targets
    along world +z.  Each distinct pose is solved once: a waypoint whose pose
    equals an earlier one's (lift, retreat, and more at zero clearance) takes
    that waypoint's configuration.  Every other waypoint's IK starts from the
    exact closed-form solution within the limits nearest the previous
    waypoint's configuration, starting from ``mid_config()``, so the whole
    plan stays on one branch and the solver's first check accepts it.  An
    arm without a closed form, or a pose with no solution within the limits,
    seeds the solver with the previous configuration itself.  Raises
    UnreachableError or NoConvergenceError naming the first offending
    waypoint.
    """
    if not (clearance >= 0.0):  # negated so NaN fails too
        raise ValueError("clearance must be >= 0")
    home = matrix_to_pose(forward_kinematics(model, model.mid_config()))
    targets = {
        "home": (home, GRIPPER_OPEN),
        "pre_grasp": (_raised(object_pose, clearance), GRIPPER_OPEN),
        "grasp": (object_pose, GRIPPER_CLOSED),
        "lift": (_raised(object_pose, clearance), GRIPPER_CLOSED),
        "pre_place": (_raised(place_pose, clearance), GRIPPER_CLOSED),
        "place": (place_pose, GRIPPER_OPEN),
        "retreat": (_raised(place_pose, clearance), GRIPPER_OPEN),
    }
    bound = model.workspace_bound()
    # Check the commanded poses before the derived ones so errors name the
    # cause, with the solver's own _norm so the two checks agree.
    for name in ("grasp", "place", "pre_grasp", "lift", "pre_place", "retreat", "home"):
        distance = _norm(targets[name][0].position)
        if distance > bound:
            raise UnreachableError(distance, bound, waypoint=name)
    config = model.mid_config()
    solved: dict[Pose6D, JointConfig] = {}
    waypoints = []
    for name in WAYPOINT_ORDER:
        pose, gripper = targets[name]
        # A pose reaches the solver at its first waypoint, so a NaN one
        # still raises there.
        if pose not in solved:
            solved[pose] = _solve_waypoint(model, name, pose, config, ik_settings)
        config = solved[pose]
        waypoints.append(Waypoint(name, pose, gripper, config))
    return GraspPlan(tuple(waypoints))


def interpolate_trajectory(
    model: ArmModel,
    waypoints: Sequence[tuple[JointConfig, GripperState]],
    max_step_deg: float,
) -> Trajectory:
    """Linear joint-space interpolation between waypoint configurations.

    Between consecutive configurations, ceil(max |dq| / max_step) - 1
    intermediate knots are inserted; a gripper change contributes one extra
    zero-motion knot at the arrival configuration.  Every knot, the first
    and the gripper-change ones included, is clamped to the joint limits.  A
    waypoint with a non-finite angle raises ValueError naming its index.  A
    max_step_deg that is not positive and finite raises ValueError naming
    it: an infinite step would take 0 steps per gap and end the trajectory
    at the first configuration.
    """
    if not (0.0 < max_step_deg < math.inf):  # negated so NaN fails too
        raise ValueError(f"max_step_deg must be positive and finite, got {max_step_deg!r}")
    if not waypoints:
        raise ValueError("at least one waypoint required")
    q = np.array([config.angles_deg for config, _ in waypoints])
    finite = np.isfinite(q).all(axis=1)
    if not finite.all():
        index = int(np.argmin(finite))
        raise ValueError(f"waypoint {index} has a non-finite angle: {waypoints[index][0].angles_deg}")
    gaps = np.max(np.abs(q[1:] - q[:-1]), axis=1).tolist()
    steps = np.array([math.ceil(gap / max_step_deg) for gap in gaps], dtype=np.int64)
    ends = np.cumsum(steps)
    # Segment i's knots k = 1 .. steps[i] at t = k / steps[i], an int64
    # quotient, all segments in one expression.
    segment = np.repeat(np.arange(steps.size), steps)
    t = ((np.arange(1, segment.size + 1) - (ends - steps)[segment]) / steps[segment])[:, None]
    body = (1.0 - t) * q[segment] + t * q[segment + 1]
    # A gripper change arrives on the configuration itself, so a -0.0 keeps
    # its sign.
    pieces, knot_grippers = [q[:1]], [waypoints[0][1]]
    for i, (count, end) in enumerate(zip(steps.tolist(), ends.tolist())):
        (_, prev_gripper), (_, next_gripper) = waypoints[i], waypoints[i + 1]
        pieces.append(body[end - count : end])
        knot_grippers.extend([prev_gripper] * count)
        if next_gripper != prev_gripper:
            pieces.append(q[i + 1 : i + 2])
            knot_grippers.append(next_gripper)
    knots = np.concatenate(pieces)
    # JointLimit.clamp's comparisons: np.clip would turn -0.0 into 0.0.
    lo, hi = model.limits_deg
    knots = np.where(knots < lo, lo, knots)
    knots = np.where(knots > hi, hi, knots)
    return Trajectory(knots, tuple(knot_grippers))


def plan_to_trajectory(model: ArmModel, plan: GraspPlan) -> Trajectory:
    """Interpolate the plan's solved waypoint configurations in joint space,
    at most MAX_STEP_DEG per joint between knots."""
    return interpolate_trajectory(model, [(wp.config, wp.gripper) for wp in plan.waypoints], MAX_STEP_DEG)
