"""armkit: 6-DOF arm kinematics, numerical IK, pick-and-place planning, and a
deterministic servo-bus simulator."""

from .dh_model import (
    DEFAULT_JOINT_LIMITS_DEG,
    ArmConfigError,
    ArmModel,
    DHRow,
    JointConfig,
    JointLimit,
    LimitViolation,
    check_limits,
    clamp_to_limits,
    default_arm,
    dump_arm_config,
    load_arm_config,
)
from .ik_solver import (
    IkResult,
    IkSettings,
    NoConvergenceError,
    UnreachableError,
    pose_error,
    solve_ik,
    solve_ik_position_only,
)
from .kinematics import (
    Pose6D,
    dh_transform,
    forward_kinematics,
    geometric_jacobian,
    matrix_to_pose,
    pose_to_matrix,
)
from .planner import (
    GRIPPER_CLOSED,
    GRIPPER_OPEN,
    GraspPlan,
    Trajectory,
    Waypoint,
    interpolate_trajectory,
    plan_pick_place,
    plan_to_trajectory,
    top_down_pose,
)
from .simulator import (
    CycleReport,
    FrameError,
    ServoFrame,
    SimConfig,
    SimState,
    apply_frame,
    encode_servo_frames,
    frames_to_text,
    initial_state,
    parse_frame,
    replay_frames,
    run_pick_cycle,
    settle,
)
from .vision import (
    BinaryMask,
    Blob,
    Detection,
    GrayImage,
    Homography,
    HomographyError,
    detect_object,
    estimate_homography,
    largest_blob,
    load_calibration,
    parse_pgm,
    pgm_bytes,
    pixel_to_world,
    read_pgm,
    subtract_images,
    write_pgm,
)

__version__ = "0.1.0"
