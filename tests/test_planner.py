import math

import numpy as np
import pytest

from armkit import (
    GRIPPER_CLOSED,
    GRIPPER_OPEN,
    IkSettings,
    JointConfig,
    NoConvergenceError,
    Pose6D,
    ServoFrame,
    Trajectory,
    UnreachableError,
    check_limits,
    encode_servo_frames,
    forward_kinematics,
    frames_to_text,
    interpolate_trajectory,
    plan_pick_place,
    plan_to_trajectory,
    pose_to_matrix,
    replay_frames,
    top_down_pose,
)
from armkit.kinematics import _norm
from armkit.planner import MAX_STEP_DEG, WAYPOINT_ORDER

from conftest import QUICK, feasible_pair, fk_pose, make_trajectory, random_config
from naive_oracle import naive_encode, naive_interpolate


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

    def test_repeated_poses_reuse_their_configurations(self, arm):
        rng = np.random.default_rng(131)
        obj, place = feasible_pair(arm, rng, 0.02)
        plan = plan_pick_place(arm, obj, place, clearance=0.02, ik_settings=QUICK)
        waypoints = {wp.name: wp for wp in plan.waypoints}
        assert waypoints["lift"].pose == waypoints["pre_grasp"].pose
        assert waypoints["lift"].config == waypoints["pre_grasp"].config
        assert waypoints["retreat"].pose == waypoints["pre_place"].pose
        assert waypoints["retreat"].config == waypoints["pre_place"].config
        flat = plan_pick_place(arm, obj, place, clearance=0.0, ik_settings=QUICK)
        waypoints = {wp.name: wp for wp in flat.waypoints}
        for name, source in (("pre_grasp", "grasp"), ("lift", "grasp"), ("pre_place", "place"), ("retreat", "place")):
            assert waypoints[name].config == waypoints[source].config

    @pytest.mark.parametrize("axis", [0, 2])
    def test_nan_pose_still_reaches_the_solver(self, arm, axis):
        obj, place = feasible_pair(arm, np.random.default_rng(137), 0.02)
        for name, pose in (("object", obj), ("place", place)):
            position = list(pose.position)
            position[axis] = math.nan
            poses = {"object": obj, "place": place, name: Pose6D(position, pose.quaternion)}
            with pytest.raises(ValueError, match="target position must not be NaN"):
                plan_pick_place(arm, poses["object"], poses["place"], clearance=0.02, ik_settings=QUICK)

    def test_object_outside_workspace_names_grasp(self, arm):
        far = top_down_pose(2.0 * arm.workspace_bound(), 0.0, 0.0)
        near = fk_pose(arm, arm.mid_config())
        with pytest.raises(UnreachableError) as info:
            plan_pick_place(arm, far, near)
        assert info.value.waypoint == "grasp"
        assert "grasp" in str(info.value)

    def test_target_just_past_the_bound_names_its_waypoint(self, wide_arm):
        # Points one rounding past the reach bound: the planner's check and
        # the solver's must agree on each, so the error names the waypoint.
        rng = np.random.default_rng(149)
        bound = wide_arm.workspace_bound()
        near = fk_pose(wide_arm, wide_arm.mid_config())
        points = [(-0.23134647001147204, -0.2731408618892715, -0.08542177930491139)]
        for direction in rng.normal(0.0, 1.0, (200, 3)).tolist():
            scale = bound / _norm(direction)
            point = [v * scale for v in direction]
            while _norm(point) <= bound:
                point = [math.nextafter(v, math.copysign(math.inf, v)) for v in point]
            points.append(tuple(point))
        for point in points:
            with pytest.raises(UnreachableError) as info:
                plan_pick_place(wide_arm, Pose6D(point, near.quaternion), near, clearance=0.0)
            assert info.value.waypoint == "grasp"

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
        assert tuple(traj.knots[0].tolist()) == a.angles_deg
        assert tuple(traj.knots[-1].tolist()) == b.angles_deg

    def test_identical_waypoints_insert_nothing(self, arm):
        a = arm.mid_config()
        traj = interpolate_trajectory(arm, [(a, GRIPPER_OPEN), (a, GRIPPER_OPEN)], 2.0)
        assert len(traj.knots) == 1

    def test_gripper_change_rides_a_zero_motion_knot(self, arm):
        a = arm.mid_config()
        b = JointConfig((a.angles_deg[0] + 5.0,) + a.angles_deg[1:])
        traj = interpolate_trajectory(arm, [(a, GRIPPER_OPEN), (b, GRIPPER_CLOSED)], 2.0)
        knots = traj.knots.tolist()
        changes = [
            (knots[i], knots[i + 1])
            for i in range(len(knots) - 1)
            if traj.grippers[i] != traj.grippers[i + 1]
        ]
        assert len(changes) == 1
        before, after = changes[0]
        assert before == after

    def test_steps_never_exceed_max_step(self, arm):
        rng = np.random.default_rng(137)
        waypoints = [(random_config(rng, arm), GRIPPER_OPEN) for _ in range(5)]
        traj = interpolate_trajectory(arm, waypoints, 3.0)
        for k1, k2 in zip(traj.knots, traj.knots[1:]):
            deltas = np.abs(k2 - k1)
            assert float(np.max(deltas)) <= 3.0 + 1e-9

    def test_every_knot_is_within_limits(self, arm):
        rng = np.random.default_rng(139)
        waypoints = [(random_config(rng, arm), GRIPPER_OPEN) for _ in range(4)]
        traj = interpolate_trajectory(arm, waypoints, 2.0)
        for knot in traj.knots.tolist():
            assert check_limits(arm, JointConfig(tuple(knot))) == []

    def test_first_and_gripper_change_knots_are_clamped(self, arm):
        # Joint 0 goes 170 -> 185 degrees against a 180-degree limit, and the
        # gripper closes on arrival: the zero-motion knot sits on the limit
        # too, so the encoded stream replays.
        mid = arm.mid_config().angles_deg
        inside = JointConfig((170.0,) + mid[1:])
        beyond = JointConfig((185.0,) + mid[1:])
        waypoints = [(beyond, GRIPPER_OPEN), (inside, GRIPPER_OPEN), (beyond, GRIPPER_CLOSED)]
        traj = interpolate_trajectory(arm, waypoints, 2.0)
        assert traj.knots[0, 0] == 180.0
        assert traj.knots[-2:, 0].tolist() == [180.0, 180.0]
        assert traj.grippers[-2:] == (GRIPPER_OPEN, GRIPPER_CLOSED)
        for knot in traj.knots.tolist():
            assert check_limits(arm, JointConfig(tuple(knot))) == []
        frames = encode_servo_frames(traj)
        report = replay_frames(arm, frames_to_text(frames))
        assert report.frames_sent == len(frames)

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
                want = naive_interpolate(model, waypoints, step)
                assert got.knots.tobytes() == want.knots.tobytes()
                assert got.grippers == want.grippers

    @pytest.mark.parametrize("index", [0, 2])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_waypoint_is_named(self, arm, index, bad):
        a = arm.mid_config()
        b = JointConfig(tuple(v + 10.0 for v in a.angles_deg))
        waypoints = [(a, GRIPPER_OPEN), (b, GRIPPER_CLOSED), (a, GRIPPER_OPEN)]
        angles = list(waypoints[index][0].angles_deg)
        angles[3] = bad
        waypoints[index] = (JointConfig(tuple(angles)), GRIPPER_OPEN)
        with pytest.raises(ValueError, match=f"waypoint {index} has a non-finite angle"):
            interpolate_trajectory(arm, waypoints, 2.0)

    def test_max_step_must_be_positive(self, arm):
        a = arm.mid_config()
        b = JointConfig(tuple(v + 10.0 for v in a.angles_deg))
        for step in (0.0, math.nan):
            with pytest.raises(ValueError, match="max_step_deg must be positive"):
                interpolate_trajectory(arm, [(a, GRIPPER_OPEN), (b, GRIPPER_OPEN)], step)

    def test_infinite_max_step_is_refused(self, arm):
        """ceil(gap / inf) is 0 steps, which would drop every later waypoint."""
        a = arm.mid_config()
        b = JointConfig(tuple(v + 10.0 for v in a.angles_deg))
        with pytest.raises(ValueError, match="max_step_deg must be positive and finite, got inf"):
            interpolate_trajectory(arm, [(a, GRIPPER_OPEN), (b, GRIPPER_OPEN)], math.inf)
        traj = interpolate_trajectory(arm, [(a, GRIPPER_OPEN), (b, GRIPPER_OPEN)], 1e308)
        assert traj.knots[-1].tolist() == list(b.angles_deg)


class TestTrajectory:
    def test_knots_are_a_read_only_copy(self, arm):
        mid = arm.mid_config().angles_deg
        source = np.array([mid, mid])
        traj = Trajectory(source, (GRIPPER_OPEN, GRIPPER_CLOSED))
        source[0, 0] = 0.0
        assert traj.knots.dtype == np.float64
        assert tuple(traj.knots[0].tolist()) == mid
        with pytest.raises(ValueError):
            traj.knots[0, 0] = 0.0

    @pytest.mark.parametrize(
        "shape, bad, grippers, message",
        [
            ((3, 6), (1, 4, math.nan), 3, "knot 1 has a non-finite angle"),
            ((3, 6), (2, 0, -math.inf), 3, "knot 2 has a non-finite angle"),
            ((3, 5), None, 3, r"knots must have shape \(N, 6\) with N >= 1, got \(3, 5\)"),
            ((6,), None, 1, r"knots must have shape \(N, 6\)"),
            ((0, 6), None, 0, r"knots must have shape \(N, 6\) with N >= 1, got \(0, 6\)"),
            ((3, 6), None, 2, "grippers has 2 entries for 3 knots"),
        ],
        ids=["nan", "minus_inf", "five_angles", "one_dimensional", "empty", "grippers_short"],
    )
    def test_invalid_trajectory_rejected(self, shape, bad, grippers, message):
        knots = np.full(shape, 90.0)
        if bad is not None:
            row, col, value = bad
            knots[row, col] = value
        with pytest.raises(ValueError, match=message):
            Trajectory(knots, (GRIPPER_OPEN,) * grippers)


class TestPlanToTrajectory:
    def test_full_plan_yields_limit_respecting_trajectory(self, arm):
        rng = np.random.default_rng(149)
        obj, place = feasible_pair(arm, rng, 0.02)
        plan = plan_pick_place(arm, obj, place, clearance=0.02, ik_settings=QUICK)
        traj = plan_to_trajectory(arm, plan)
        assert len(traj.knots) > len(plan.waypoints)
        for knot in traj.knots.tolist():
            assert check_limits(arm, JointConfig(tuple(knot))) == []
        grippers = list(traj.grippers)
        transitions = [(a, b) for a, b in zip(grippers, grippers[1:]) if a != b]
        assert transitions == [("open", "closed"), ("closed", "open")]

    def test_end_effector_moves_continuously(self, arm):
        rng = np.random.default_rng(151)
        obj, place = feasible_pair(arm, rng, 0.02)
        plan = plan_pick_place(arm, obj, place, clearance=0.02, ik_settings=QUICK)
        traj = plan_to_trajectory(arm, plan)
        bound = math.radians(MAX_STEP_DEG) * arm.workspace_bound() + 1e-4
        positions = [forward_kinematics(arm, JointConfig(tuple(k)))[:3, 3] for k in traj.knots.tolist()]
        for p1, p2 in zip(positions, positions[1:]):
            assert float(np.linalg.norm(p2 - p1)) <= bound


class TestEncoding:
    def test_mid_range_frame_line(self, arm):
        traj = make_trajectory((arm.mid_config(), GRIPPER_OPEN))
        frames = encode_servo_frames(traj)
        assert len(frames) == 1
        assert frames[0].encode() == "F 0 9000 13500 4500 13500 9000 4500 G 0\n"

    def test_closed_gripper_bit(self, arm):
        traj = make_trajectory((arm.mid_config(), GRIPPER_CLOSED))
        assert encode_servo_frames(traj)[0].encode().endswith("G 1\n")

    def test_rounding_is_half_up(self, arm):
        q = JointConfig((90.005, 135.0, 45.0, 135.0, 90.0, 45.0))
        traj = make_trajectory((q, GRIPPER_OPEN))
        assert encode_servo_frames(traj)[0].centidegrees[0] == 9001

    def test_matches_per_knot_oracle_byte_for_byte(self, arm):
        rng = np.random.default_rng(157)
        lo, hi = arm.limits_deg
        # Odd multiples of 1/8 make angle * 100 + 0.5 an exact integer; the
        # decimal .xx5 values are the nearest doubles to such ties.
        exact_ties = (2 * rng.integers(-2880, 2880, 300) + 1) / 8.0
        decimal_ties = (rng.integers(-72000, 72000, 300) + 0.5) / 100.0
        ties = np.concatenate([exact_ties, decimal_ties])
        pool = np.concatenate(
            [rng.uniform(-720.0, 720.0, 300), ties, np.nextafter(ties, np.inf),
             np.nextafter(ties, -np.inf), lo, hi, [0.0, -0.0]]
        )
        for _ in range(300):
            n = int(rng.integers(1, 9))
            grippers = tuple(GRIPPER_CLOSED if g else GRIPPER_OPEN for g in rng.integers(0, 2, n))
            traj = Trajectory(rng.choice(pool, (n, 6)), grippers)
            got, want = encode_servo_frames(traj), naive_encode(traj)
            assert frames_to_text(got) == frames_to_text(want)
            assert got == want
            assert all(type(c) is int for frame in got for c in frame.centidegrees)

    def test_angle_beyond_int64_centidegrees_rejected(self, arm):
        knots = np.array([arm.mid_config().angles_deg] * 2)
        knots[1, 2] = -1e17
        with pytest.raises(ValueError, match="knot 1 has an angle beyond 64-bit centidegrees"):
            encode_servo_frames(Trajectory(knots, (GRIPPER_OPEN,) * 2))

    def test_sequence_numbers_count_from_zero(self, arm):
        frames = encode_servo_frames(make_trajectory(*[(arm.mid_config(), GRIPPER_OPEN)] * 4))
        assert [f.seq for f in frames] == [0, 1, 2, 3]

    def test_frames_to_text_joins_lines(self, arm):
        text = frames_to_text(encode_servo_frames(make_trajectory(*[(arm.mid_config(), GRIPPER_OPEN)] * 2)))
        assert text.count("\n") == 2
        assert text.startswith("F 0 ")


def test_top_down_pose_points_tool_straight_down():
    pose = top_down_pose(0.1, -0.2, 0.05)
    T = pose_to_matrix(pose)
    assert np.allclose(T[:3, 2], [0.0, 0.0, -1.0], atol=1e-12)
    assert pose.position == (0.1, -0.2, 0.05)


def test_interpolation_needs_a_waypoint(arm):
    with pytest.raises(ValueError, match=r"^at least one waypoint required$"):
        interpolate_trajectory(arm, [], 1.0)
