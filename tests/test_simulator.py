import json

import numpy as np
import pytest

from armkit import (
    GRIPPER_CLOSED,
    GRIPPER_OPEN,
    FrameError,
    IkSettings,
    JointConfig,
    NoConvergenceError,
    Pose6D,
    ServoFrame,
    SimConfig,
    Trajectory,
    TrajectoryKnot,
    UnreachableError,
    apply_frame,
    encode_servo_frames,
    forward_kinematics,
    frames_to_text,
    initial_state,
    matrix_to_pose,
    parse_frame,
    plan_pick_place,
    plan_to_trajectory,
    replay_frames,
    run_pick_cycle,
    settle,
    sim_step,
    top_down_pose,
)
from armkit.kinematics import invert_transform, pose_to_matrix
from armkit.simulator import PLACE_TOLERANCE_M

from conftest import random_config


QUICK = IkSettings(restarts=3, max_iterations=150)


def fk_pose(model, q):
    return matrix_to_pose(forward_kinematics(model, q))


def feasible_pair(model, rng, clearance=0.02):
    while True:
        obj = fk_pose(model, random_config(rng, model))
        place = fk_pose(model, random_config(rng, model))
        try:
            plan_pick_place(model, obj, place, clearance=clearance, ik_settings=QUICK)
            return obj, place
        except (UnreachableError, NoConvergenceError):
            continue


class TestWireGrammar:
    def test_parse_inverts_encode(self):
        rng = np.random.default_rng(157)
        for _ in range(200):
            frame = ServoFrame(
                seq=int(rng.integers(0, 10_000)),
                centidegrees=tuple(int(v) for v in rng.integers(0, 36_000, 6)),
                gripper_closed=bool(rng.integers(0, 2)),
            )
            assert parse_frame(frame.encode()) == frame

    def test_known_line_decodes(self):
        frame = parse_frame("F 3 9000 13500 4500 13500 9000 4500 G 1\n")
        assert frame.seq == 3
        assert frame.centidegrees == (9000, 13500, 4500, 13500, 9000, 4500)
        assert frame.gripper_closed is True

    def test_negative_angles_parse(self):
        frame = parse_frame("F 0 -100 0 0 0 0 0 G 0")
        assert frame.centidegrees[0] == -100

    @pytest.mark.parametrize(
        "line",
        [
            "",
            "F 0 1 2 3 4 5 G 0",  # five angles
            "F 0 1 2 3 4 5 6 7 G 0",  # seven angles
            "F 0  1 2 3 4 5 6 G 0",  # double space
            "F 01 1 2 3 4 5 6 G 0",  # zero-padded seq
            "F 0 1 2 3 4 5 6 G 2",  # bad gripper bit
            "F 0 1 2 3 4 5 6 G 0 trailing",
            "G 0 F 0 1 2 3 4 5 6",
            "F -1 1 2 3 4 5 6 G 0",  # negative sequence
            "F 0 1.5 2 3 4 5 6 G 0",  # non-integer angle
        ],
    )
    def test_malformed_lines_rejected(self, line):
        with pytest.raises(FrameError):
            parse_frame(line)


class TestApplyFrame:
    def test_targets_decode_to_hundredths(self, arm):
        state = initial_state(arm)
        frame = ServoFrame(0, (9001, 13500, 4500, 13500, 9000, 4500), False)
        state = apply_frame(arm, state, frame)
        assert state.target_deg == (90.01, 135.0, 45.0, 135.0, 90.0, 45.0)
        assert state.current_deg == initial_state(arm).current_deg

    def test_sequence_must_strictly_increase(self, arm):
        state = initial_state(arm)
        frame = ServoFrame(0, (9000, 13500, 4500, 13500, 9000, 4500), False)
        state = apply_frame(arm, state, frame)
        with pytest.raises(FrameError, match="sequence"):
            apply_frame(arm, state, frame)

    def test_round_trip_through_wire_format(self, arm):
        rng = np.random.default_rng(163)
        for _ in range(50):
            q = random_config(rng, arm)
            traj = Trajectory((TrajectoryKnot(q, GRIPPER_OPEN),))
            frame = encode_servo_frames(traj)[0]
            state = apply_frame(arm, initial_state(arm), parse_frame(frame.encode()))
            expected = tuple(c / 100.0 for c in frame.centidegrees)
            assert state.target_deg == expected

    def test_out_of_limit_target_rejected(self, arm):
        frame = ServoFrame(0, (0, 13500, 4500, 13500, 9000, 9100), False)
        with pytest.raises(FrameError, match="joint 5"):
            apply_frame(arm, initial_state(arm), frame)


class TestSimConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rate_limit_deg_s": float("nan")},
            {"tick_s": float("nan")},
            {"tick_s": float("inf")},
            {"rate_limit_deg_s": 1e-300},
            {"tick_s": 1e-7},
        ],
    )
    def test_nan_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SimConfig(**kwargs)


class TestSimStep:
    def test_rate_limited_motion(self, arm):
        state = initial_state(arm)
        frame = ServoFrame(0, (18000, 13500, 4500, 13500, 9000, 4500), False)
        state = apply_frame(arm, state, frame)  # joint 0: 90 -> 180, gap 90
        state = sim_step(arm, state, 0.1, SimConfig(rate_limit_deg_s=300.0))
        assert state.current_deg[0] == pytest.approx(120.0, abs=1e-12)
        assert state.elapsed_s == pytest.approx(0.1)

    def test_zero_dt_only_advances_time(self, arm):
        state = initial_state(arm)
        stepped = sim_step(arm, state, 0.0)
        assert stepped == state

    def test_exact_arrival_without_overshoot(self, arm):
        state = initial_state(arm)
        frame = ServoFrame(0, (9100, 13500, 4500, 13500, 9000, 4500), False)
        state = apply_frame(arm, state, frame)  # gap 1 degree
        state = sim_step(arm, state, 0.1, SimConfig(rate_limit_deg_s=300.0))
        assert state.current_deg[0] == 91.0

    def test_gap_never_grows(self, arm):
        rng = np.random.default_rng(167)
        state = initial_state(arm)
        q = random_config(rng, arm)
        traj = Trajectory((TrajectoryKnot(q, GRIPPER_OPEN),))
        state = apply_frame(arm, state, encode_servo_frames(traj)[0])
        gaps = np.abs(np.array(state.target_deg) - np.array(state.current_deg))
        for _ in range(200):
            state = sim_step(arm, state, 0.01)
            new_gaps = np.abs(np.array(state.target_deg) - np.array(state.current_deg))
            assert np.all(new_gaps <= gaps + 1e-12)
            gaps = new_gaps
        assert state.current_deg == state.target_deg

    def test_negative_dt_rejected(self, arm):
        with pytest.raises(ValueError, match="dt"):
            sim_step(arm, initial_state(arm), -0.01)

    def test_limits_always_hold(self, arm):
        rng = np.random.default_rng(173)
        state = initial_state(arm)
        lo, hi = arm.limits_deg
        for seq in range(20):
            q = random_config(rng, arm)
            traj = Trajectory((TrajectoryKnot(q, GRIPPER_OPEN),))
            frame = encode_servo_frames(traj)[0]
            frame = ServoFrame(seq, frame.centidegrees, frame.gripper_closed)
            state = apply_frame(arm, state, frame)
            for _ in range(int(rng.integers(1, 30))):
                state = sim_step(arm, state, 0.01)
                assert np.all(np.array(state.current_deg) >= lo - 1e-12)
                assert np.all(np.array(state.current_deg) <= hi + 1e-12)


class TestGrasping:
    def test_capture_attach_follow_release(self, arm):
        start = arm.mid_config()
        state = initial_state(arm, object_pose=fk_pose(arm, start))
        # close at the object: capture
        close = encode_servo_frames(
            Trajectory((TrajectoryKnot(start, GRIPPER_CLOSED),))
        )[0]
        state = apply_frame(arm, state, close)
        assert state.attached
        rel_before = state.grasp_rel
        # drive elsewhere and settle; the object must ride along
        target = JointConfig((80.0, 130.0, 40.0, 130.0, 85.0, 40.0))
        move = encode_servo_frames(Trajectory((TrajectoryKnot(target, GRIPPER_CLOSED),)))[0]
        move = ServoFrame(1, move.centidegrees, move.gripper_closed)
        state = settle(arm, apply_frame(arm, state, move))
        assert state.grasp_rel == rel_before
        # the object was grasped tool-coincident, so it tracks the tool point
        tool = forward_kinematics(arm, JointConfig(state.current_deg))
        assert np.allclose(tool[:3, 3], state.object_pose.position, atol=1e-9)
        # release: the object stays wherever it was dropped
        release = ServoFrame(2, move.centidegrees, False)
        state = apply_frame(arm, state, release)
        assert not state.attached
        dropped = state.object_pose
        state = settle(arm, state)
        assert state.object_pose == dropped

    def test_relative_pose_constant_while_attached(self, arm):
        start = arm.mid_config()
        state = initial_state(arm, object_pose=fk_pose(arm, start))
        close = encode_servo_frames(Trajectory((TrajectoryKnot(start, GRIPPER_CLOSED),)))[0]
        state = apply_frame(arm, state, close)
        rel0 = np.array(state.grasp_rel).reshape(4, 4)
        target = JointConfig((70.0, 120.0, 30.0, 120.0, 60.0, 30.0))
        move = encode_servo_frames(Trajectory((TrajectoryKnot(target, GRIPPER_CLOSED),)))[0]
        move = ServoFrame(1, move.centidegrees, move.gripper_closed)
        state = apply_frame(arm, state, move)
        for _ in range(50):
            state = sim_step(arm, state, 0.01)
            tool = forward_kinematics(arm, JointConfig(state.current_deg))
            rel = invert_transform(tool) @ pose_to_matrix(state.object_pose)
            assert np.max(np.abs(rel - rel0)) <= 1e-12

    def test_no_capture_beyond_radius(self, arm):
        start = arm.mid_config()
        far_pose = fk_pose(arm, start)
        shifted = Pose6D(
            (far_pose.position[0] + 0.05, far_pose.position[1], far_pose.position[2]),
            far_pose.quaternion,
        )
        state = initial_state(arm, object_pose=shifted)
        close = encode_servo_frames(Trajectory((TrajectoryKnot(start, GRIPPER_CLOSED),)))[0]
        state = apply_frame(arm, state, close)
        assert not state.attached
        assert state.gripper == GRIPPER_CLOSED


class TestPickCycle:
    def test_reachable_pair_places_within_tolerance(self, arm):
        rng = np.random.default_rng(179)
        obj, place = feasible_pair(arm, rng)
        report = run_pick_cycle(arm, obj, place, clearance=0.02)
        assert report.success
        assert report.frames_sent > 0
        assert report.sim_time_s > 0
        err = np.linalg.norm(
            np.array(report.final_object_pose.position) - np.array(place.position)
        )
        assert err <= PLACE_TOLERANCE_M

    def test_place_equals_object_is_a_tiny_move(self, arm):
        rng = np.random.default_rng(181)
        obj, _ = feasible_pair(arm, rng)
        report = run_pick_cycle(arm, obj, obj, clearance=0.02)
        assert report.success
        displacement = np.linalg.norm(
            np.array(report.final_object_pose.position) - np.array(obj.position)
        )
        assert displacement <= PLACE_TOLERANCE_M

    def test_unreachable_object_raises_before_any_frame(self, arm):
        far = top_down_pose(1.0, 0.0, 0.0)
        near = fk_pose(arm, arm.mid_config())
        with pytest.raises(UnreachableError):
            run_pick_cycle(arm, far, near)

    def test_cycle_is_deterministic(self, arm):
        rng = np.random.default_rng(191)
        obj, place = feasible_pair(arm, rng)
        first = run_pick_cycle(arm, obj, place, clearance=0.02)
        second = run_pick_cycle(arm, obj, place, clearance=0.02)
        assert first == second

    def test_each_waypoint_is_solved_once(self, wide_arm, monkeypatch):
        import armkit.planner

        calls = []
        solve = armkit.planner.solve_ik

        def counting_solve(*args, **kwargs):
            result = solve(*args, **kwargs)
            calls.append(result.restart_index)
            return result

        monkeypatch.setattr(armkit.planner, "solve_ik", counting_solve)
        obj = top_down_pose(0.12, 0.05, 0.02)
        place = top_down_pose(-0.05, 0.12, 0.02)
        assert run_pick_cycle(wide_arm, obj, place).success
        assert calls == [0] * 7

    def test_report_serializes_to_json(self, arm):
        rng = np.random.default_rng(193)
        obj, place = feasible_pair(arm, rng)
        report = run_pick_cycle(arm, obj, place, clearance=0.02)
        doc = json.loads(report.to_json())
        assert doc["success"] is True
        assert doc["frames_sent"] == report.frames_sent
        assert len(doc["final_object_pose"]["position_m"]) == 3


class TestReplay:
    def test_plan_stream_replays_cleanly(self, arm):
        rng = np.random.default_rng(197)
        obj, place = feasible_pair(arm, rng)
        plan = plan_pick_place(arm, obj, place, clearance=0.02, ik_settings=QUICK)
        traj = plan_to_trajectory(arm, plan)
        text = frames_to_text(encode_servo_frames(traj))
        report = replay_frames(arm, text)
        assert report.success
        assert report.frames_sent == len(traj.knots)
        assert report.final_object_pose is None

    def test_blank_lines_are_skipped(self, arm):
        report = replay_frames(arm, "\n\n")
        assert report.frames_sent == 0
