import math

import numpy as np
import pytest

from armkit import (
    GRIPPER_CLOSED,
    GRIPPER_OPEN,
    IkSettings,
    JointConfig,
    NoConvergenceError,
    ServoFrame,
    Trajectory,
    TrajectoryKnot,
    UnreachableError,
    check_limits,
    encode_servo_frames,
    forward_kinematics,
    frames_to_text,
    interpolate_trajectory,
    matrix_to_pose,
    plan_pick_place,
    plan_to_trajectory,
    pose_to_matrix,
    top_down_pose,
)
from armkit.planner import MAX_STEP_DEG, WAYPOINT_ORDER

from conftest import float_bits, random_config
from naive_oracle import naive_interpolate


QUICK = IkSettings(restarts=3, max_iterations=150)


def fk_pose(model, q):
    return matrix_to_pose(forward_kinematics(model, q))


def feasible_pair(model, rng, clearance):
    while True:
        obj = fk_pose(model, random_config(rng, model))
        place = fk_pose(model, random_config(rng, model))
        try:
            plan_pick_place(model, obj, place, clearance=clearance, ik_settings=QUICK)
            return obj, place
        except (UnreachableError, NoConvergenceError):
            continue


class TestPlan:
    def test_waypoint_schema(self, arm):
        rng = np.random.default_rng(109)
        obj, place = feasible_pair(arm, rng, 0.02)
        plan = plan_pick_place(arm, obj, place, clearance=0.02, ik_settings=QUICK)
        assert tuple(wp.name for wp in plan.waypoints) == WAYPOINT_ORDER
        grippers = [wp.gripper for wp in plan.waypoints]
        assert grippers == ["open", "open", "closed", "closed", "closed", "open", "open"]
        transitions = [(a, b) for a, b in zip(grippers, grippers[1:]) if a != b]
        assert transitions == [("open", "closed"), ("closed", "open")]

    def test_pre_grasp_and_lift_sit_clearance_above_grasp(self, arm):
        rng = np.random.default_rng(113)
        obj, place = feasible_pair(arm, rng, 0.02)
        plan = plan_pick_place(arm, obj, place, clearance=0.02, ik_settings=QUICK)
        waypoints = {wp.name: wp for wp in plan.waypoints}
        grasp = waypoints["grasp"]
        for name in ("pre_grasp", "lift"):
            wp = waypoints[name]
            assert wp.pose.position[0] == grasp.pose.position[0]
            assert wp.pose.position[1] == grasp.pose.position[1]
            assert wp.pose.position[2] == pytest.approx(grasp.pose.position[2] + 0.02, abs=1e-15)
            assert wp.pose.quaternion == grasp.pose.quaternion
        assert grasp.pose == obj
        assert waypoints["place"].pose == place

    def test_zero_clearance_collapses_pre_grasp_onto_grasp(self, arm):
        rng = np.random.default_rng(127)
        obj, place = feasible_pair(arm, rng, 0.0)
        plan = plan_pick_place(arm, obj, place, clearance=0.0, ik_settings=QUICK)
        waypoints = {wp.name: wp for wp in plan.waypoints}
        assert waypoints["pre_grasp"].pose == waypoints["grasp"].pose

    def test_object_outside_workspace_names_grasp(self, arm):
        far = top_down_pose(2.0 * arm.workspace_bound(), 0.0, 0.0)
        near = fk_pose(arm, arm.mid_config())
        with pytest.raises(UnreachableError) as info:
            plan_pick_place(arm, far, near)
        assert info.value.waypoint == "grasp"
        assert "grasp" in str(info.value)

    def test_place_outside_workspace_names_place(self, arm):
        far = top_down_pose(0.0, 2.0 * arm.workspace_bound(), 0.0)
        near = fk_pose(arm, arm.mid_config())
        with pytest.raises(UnreachableError) as info:
            plan_pick_place(arm, near, far)
        assert info.value.waypoint == "place"

    def test_unsolvable_waypoint_is_named(self, arm):
        obj = fk_pose(arm, JointConfig((5.0, 175.0, 85.0, 95.0, 175.0, 85.0)))
        place = fk_pose(arm, arm.mid_config())
        starved = IkSettings(max_iterations=1, restarts=1)
        with pytest.raises(NoConvergenceError) as info:
            plan_pick_place(arm, obj, place, ik_settings=starved)
        assert info.value.waypoint is not None
        assert info.value.waypoint in WAYPOINT_ORDER

    def test_negative_clearance_rejected(self, arm):
        pose = fk_pose(arm, arm.mid_config())
        with pytest.raises(ValueError, match="clearance"):
            plan_pick_place(arm, pose, pose, clearance=-0.01)


class TestInterpolation:
    def test_knot_count_for_ten_degree_gap(self, arm):
        a = arm.mid_config()
        b = JointConfig((a.angles_deg[0] + 10.0,) + a.angles_deg[1:])
        traj = interpolate_trajectory(arm, [(a, GRIPPER_OPEN), (b, GRIPPER_OPEN)], 2.0)
        assert len(traj.knots) == 6
        assert traj.knots[0].config == a
        assert traj.knots[-1].config == b

    def test_identical_waypoints_insert_nothing(self, arm):
        a = arm.mid_config()
        traj = interpolate_trajectory(arm, [(a, GRIPPER_OPEN), (a, GRIPPER_OPEN)], 2.0)
        assert len(traj.knots) == 1

    def test_gripper_change_rides_a_zero_motion_knot(self, arm):
        a = arm.mid_config()
        b = JointConfig((a.angles_deg[0] + 5.0,) + a.angles_deg[1:])
        traj = interpolate_trajectory(arm, [(a, GRIPPER_OPEN), (b, GRIPPER_CLOSED)], 2.0)
        changes = [
            (k1, k2)
            for k1, k2 in zip(traj.knots, traj.knots[1:])
            if k1.gripper != k2.gripper
        ]
        assert len(changes) == 1
        before, after = changes[0]
        assert before.config == after.config

    def test_steps_never_exceed_max_step(self, arm):
        rng = np.random.default_rng(137)
        waypoints = [(random_config(rng, arm), GRIPPER_OPEN) for _ in range(5)]
        traj = interpolate_trajectory(arm, waypoints, 3.0)
        for k1, k2 in zip(traj.knots, traj.knots[1:]):
            deltas = np.abs(np.array(k2.config.angles_deg) - np.array(k1.config.angles_deg))
            assert float(np.max(deltas)) <= 3.0 + 1e-9

    def test_every_knot_is_within_limits(self, arm):
        rng = np.random.default_rng(139)
        waypoints = [(random_config(rng, arm), GRIPPER_OPEN) for _ in range(4)]
        traj = interpolate_trajectory(arm, waypoints, 2.0)
        for knot in traj.knots:
            assert check_limits(arm, knot.config) == []

    def test_matches_per_knot_oracle_bit_for_bit(self, arm, wide_arm):
        rng = np.random.default_rng(149)
        for model in (arm, wide_arm):
            lo, hi = model.limits_deg
            for _ in range(300):
                waypoints = []
                for _ in range(int(rng.integers(1, 6))):
                    # Signed zeros, exact limits and values past them, so the
                    # clamp's handling of each shows in the knots' bits.
                    pool = np.stack(
                        [rng.uniform(lo - 20.0, hi + 20.0), lo, hi, np.full(6, -0.0), np.zeros(6)]
                    )
                    q = pool[rng.choice(5, 6, p=[0.4, 0.15, 0.15, 0.2, 0.1]), np.arange(6)]
                    gripper = GRIPPER_CLOSED if rng.random() < 0.5 else GRIPPER_OPEN
                    waypoints.append((JointConfig(tuple(q)), gripper))
                step = float(rng.uniform(0.5, 10.0))
                got = interpolate_trajectory(model, waypoints, step)
                assert float_bits(got) == float_bits(naive_interpolate(model, waypoints, step))

    def test_max_step_must_be_positive(self, arm):
        a = arm.mid_config()
        b = JointConfig(tuple(v + 10.0 for v in a.angles_deg))
        for step in (0.0, math.nan):
            with pytest.raises(ValueError, match="max_step_deg must be positive"):
                interpolate_trajectory(arm, [(a, GRIPPER_OPEN), (b, GRIPPER_OPEN)], step)


class TestPlanToTrajectory:
    def test_full_plan_yields_limit_respecting_trajectory(self, arm):
        rng = np.random.default_rng(149)
        obj, place = feasible_pair(arm, rng, 0.02)
        plan = plan_pick_place(arm, obj, place, clearance=0.02, ik_settings=QUICK)
        traj = plan_to_trajectory(arm, plan)
        assert len(traj.knots) > len(plan.waypoints)
        for knot in traj.knots:
            assert check_limits(arm, knot.config) == []
        grippers = [k.gripper for k in traj.knots]
        transitions = [(a, b) for a, b in zip(grippers, grippers[1:]) if a != b]
        assert transitions == [("open", "closed"), ("closed", "open")]

    def test_end_effector_moves_continuously(self, arm):
        rng = np.random.default_rng(151)
        obj, place = feasible_pair(arm, rng, 0.02)
        plan = plan_pick_place(arm, obj, place, clearance=0.02, ik_settings=QUICK)
        traj = plan_to_trajectory(arm, plan)
        bound = math.radians(MAX_STEP_DEG) * arm.workspace_bound() + 1e-4
        positions = [forward_kinematics(arm, k.config)[:3, 3] for k in traj.knots]
        for p1, p2 in zip(positions, positions[1:]):
            assert float(np.linalg.norm(p2 - p1)) <= bound


class TestEncoding:
    def test_mid_range_frame_line(self, arm):
        traj = Trajectory((TrajectoryKnot(arm.mid_config(), GRIPPER_OPEN),))
        frames = encode_servo_frames(traj)
        assert len(frames) == 1
        assert frames[0].encode() == "F 0 9000 13500 4500 13500 9000 4500 G 0\n"

    def test_closed_gripper_bit(self, arm):
        traj = Trajectory((TrajectoryKnot(arm.mid_config(), GRIPPER_CLOSED),))
        assert encode_servo_frames(traj)[0].encode().endswith("G 1\n")

    def test_rounding_is_half_up(self, arm):
        q = JointConfig((90.005, 135.0, 45.0, 135.0, 90.0, 45.0))
        traj = Trajectory((TrajectoryKnot(q, GRIPPER_OPEN),))
        assert encode_servo_frames(traj)[0].centidegrees[0] == 9001

    def test_sequence_numbers_count_from_zero(self, arm):
        knots = tuple(TrajectoryKnot(arm.mid_config(), GRIPPER_OPEN) for _ in range(4))
        frames = encode_servo_frames(Trajectory(knots))
        assert [f.seq for f in frames] == [0, 1, 2, 3]

    def test_frames_to_text_joins_lines(self, arm):
        knots = tuple(TrajectoryKnot(arm.mid_config(), GRIPPER_OPEN) for _ in range(2))
        text = frames_to_text(encode_servo_frames(Trajectory(knots)))
        assert text.count("\n") == 2
        assert text.startswith("F 0 ")


def test_top_down_pose_points_tool_straight_down():
    pose = top_down_pose(0.1, -0.2, 0.05)
    T = pose_to_matrix(pose)
    assert np.allclose(T[:3, 2], [0.0, 0.0, -1.0], atol=1e-12)
    assert pose.position == (0.1, -0.2, 0.05)
