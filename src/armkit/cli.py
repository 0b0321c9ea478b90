"""Command-line surface: fk, ik, detect, plan, sim, and pick.

Exit codes: 0 success, 2 parse/validation error, 3 planning error
(unreachable / no convergence), 4 no detection.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .dh_model import ArmConfigError, ArmModel, JointConfig, load_arm_config
from .ik_solver import IkResult, NoConvergenceError, UnreachableError, solve_ik, solve_ik_position_only
from .kinematics import Pose6D, forward_kinematics, matrix_to_pose
from .planner import DEFAULT_CLEARANCE_M, plan_pick_place, plan_to_trajectory, top_down_pose
from .simulator import SimConfig, encode_servo_frames, frames_to_text, replay_frames, run_pick_cycle
from .vision import Detection, detect_object, estimate_homography, load_calibration, read_pgm

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PLANNING = 3
EXIT_NO_DETECTION = 4


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"numbers must be finite, got {text!r}")
    return value


def _csv_floats(count: int):
    def parse(text: str) -> tuple[float, ...]:
        parts = text.split(",")
        if len(parts) != count:
            raise argparse.ArgumentTypeError(f"expected {count} comma-separated numbers, got {len(parts)}")
        return tuple(_finite_float(p) for p in parts)

    return parse


def _load_model(path: str) -> ArmModel:
    return load_arm_config(Path(path).read_text(encoding="utf-8"))


def _fmt(values) -> str:
    return ", ".join(f"{float(v):.6g}" for v in values)


def _print_transform(T: np.ndarray) -> None:
    print("transform:")
    for row in T:
        print(f"  {_fmt(row)}")


def _print_pose(pose: Pose6D) -> None:
    print("pose:")
    print(f"  position_m: {_fmt(pose.position)}")
    print(f"  quaternion_wxyz: {_fmt(pose.quaternion)}")
    print(f"  euler_zyx_deg: {_fmt(pose.euler_zyx_deg())}")


def _ik_result_json(result: IkResult) -> str:
    return json.dumps(
        {
            "solution_deg": list(result.solution.angles_deg),
            "iterations": result.iterations,
            "final_position_error_m": result.final_position_error,
            "final_orientation_error_rad": result.final_orientation_error,
            "restart_index": result.restart_index,
        },
        indent=2,
    )


def _detection_json(detection: Detection) -> str:
    return json.dumps(
        {
            "pixel_centroid": list(detection.pixel_centroid),
            "area": detection.area,
            "world_point_m": list(detection.world_point),
        },
        indent=2,
    )


def _cmd_fk(args: argparse.Namespace) -> int:
    model = _load_model(args.config)
    T = forward_kinematics(model, JointConfig(args.joints))
    _print_transform(T)
    _print_pose(matrix_to_pose(T))
    return EXIT_OK


def _cmd_ik(args: argparse.Namespace) -> int:
    model = _load_model(args.config)
    seed = JointConfig(args.seed) if args.seed else model.mid_config()
    if args.euler_zyx is not None:
        target = Pose6D.from_position_euler_zyx(args.pos, *args.euler_zyx)
        result = solve_ik(model, target, seed)
    else:
        result = solve_ik_position_only(model, args.pos, seed)
    print(_ik_result_json(result))
    return EXIT_OK


def _detect(args: argparse.Namespace) -> Detection | None:
    background = read_pgm(args.background)
    frame = read_pgm(args.frame)
    pixel_pts, world_pts = load_calibration(Path(args.calib).read_text(encoding="utf-8"))
    homography = estimate_homography(pixel_pts, world_pts)
    return detect_object(
        background,
        frame,
        homography,
        threshold=args.threshold,
        min_area=args.min_area,
        table_height=args.table_z,
    )


def _cmd_detect(args: argparse.Namespace) -> int:
    detection = _detect(args)
    if detection is None:
        print("none")
        return EXIT_NO_DETECTION
    print(_detection_json(detection))
    return EXIT_OK


def _cmd_plan(args: argparse.Namespace) -> int:
    model = _load_model(args.config)
    object_pose = top_down_pose(*args.object_pos)
    place_pose = top_down_pose(*args.place_pos)
    plan = plan_pick_place(model, object_pose, place_pose, clearance=args.clearance)
    sys.stdout.write(frames_to_text(encode_servo_frames(plan_to_trajectory(model, plan))))
    return EXIT_OK


def _cmd_sim(args: argparse.Namespace) -> int:
    model = _load_model(args.config)
    if args.frames == "-":
        text = sys.stdin.read()
    else:
        # newline="" keeps the bytes as written, as stdin does on POSIX.
        with open(args.frames, encoding="utf-8", newline="") as f:
            text = f.read()
    config = SimConfig(rate_limit_deg_s=args.rate, tick_s=args.tick)
    report = replay_frames(model, text, config)
    print(report.to_json())
    return EXIT_OK


def _cmd_pick(args: argparse.Namespace) -> int:
    model = _load_model(args.config)
    detection = _detect(args)
    if detection is None:
        print("none")
        return EXIT_NO_DETECTION
    object_pose = top_down_pose(*detection.world_point)
    place_pose = top_down_pose(*args.place_pos)
    report = run_pick_cycle(model, object_pose, place_pose)
    print(report.to_json())
    return EXIT_OK


def _add_detect_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--background", required=True, help="background PGM (empty workspace)")
    parser.add_argument("--frame", required=True, help="live PGM frame")
    parser.add_argument("--calib", required=True, help="pixel/world calibration JSON")
    parser.add_argument("--threshold", required=True, type=float, help="intensity threshold (0..255)")
    parser.add_argument("--min-area", required=True, type=int, help="minimum blob area, pixels")
    parser.add_argument("--table-z", required=True, type=_finite_float, help="table plane height, meters")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="armkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fk", help="forward kinematics of a joint configuration")
    p.add_argument("--config", required=True, help="arm configuration JSON")
    p.add_argument("--joints", required=True, type=_csv_floats(6), help="six joint angles, degrees")
    p.set_defaults(func=_cmd_fk)

    p = sub.add_parser("ik", help="inverse kinematics toward a target pose")
    p.add_argument("--config", required=True)
    p.add_argument("--pos", required=True, type=_csv_floats(3), help="target position x,y,z meters")
    p.add_argument(
        "--euler-zyx",
        type=_csv_floats(3),
        default=None,
        help="target orientation yaw,pitch,roll degrees; omitted = position only",
    )
    p.add_argument("--seed", type=_csv_floats(6), default=None, help="seed configuration, degrees")
    p.set_defaults(func=_cmd_ik)

    p = sub.add_parser("detect", help="locate the workspace object by image subtraction")
    _add_detect_flags(p)
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("plan", help="emit servo frames for a pick-and-place cycle")
    p.add_argument("--config", required=True)
    p.add_argument("--object-pos", required=True, type=_csv_floats(3), help="object position x,y,z meters")
    p.add_argument("--place-pos", required=True, type=_csv_floats(3), help="place position x,y,z meters")
    p.add_argument("--clearance", type=_finite_float, default=DEFAULT_CLEARANCE_M, help="approach clearance, meters")
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("sim", help="replay a servo frame stream on the simulator")
    p.add_argument("--config", required=True)
    p.add_argument("--frames", required=True, help="frame file, or - for stdin")
    p.add_argument("--rate", type=float, default=300.0, help="servo rate limit, deg/s")
    p.add_argument("--tick", type=float, default=0.01, help="simulation tick, seconds")
    p.set_defaults(func=_cmd_sim)

    p = sub.add_parser("pick", help="full vision -> plan -> simulate cycle")
    p.add_argument("--config", required=True)
    _add_detect_flags(p)
    p.add_argument("--place-pos", required=True, type=_csv_floats(3), help="place position x,y,z meters")
    p.set_defaults(func=_cmd_pick)

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ArmConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (UnreachableError, NoConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PLANNING


if __name__ == "__main__":
    sys.exit(main())
