import copy
import inspect
import json
import math
import pickle
import re
from dataclasses import MISSING, FrozenInstanceError, fields, replace

import numpy as np
import pytest

from armkit import (
    GRIPPER_CLOSED,
    GRIPPER_OPEN,
    FrameError,
    JointConfig,
    Pose6D,
    ServoFrame,
    SimConfig,
    SimState,
    UnreachableError,
    apply_frame,
    encode_servo_frames,
    forward_kinematics,
    frames_to_text,
    initial_state,
    parse_frame,
    plan_pick_place,
    plan_to_trajectory,
    replay_frames,
    run_pick_cycle,
    settle,
    top_down_pose,
)
from armkit.kinematics import invert_transform, pose_to_matrix
from armkit.simulator import (
    MAX_SETTLE_ANGLE_DEG,
    MIN_MOVE_PER_TICK_DEG,
    PLACE_TOLERANCE_M,
    _Held,
    _run_frames,
    _tick,
)

from conftest import QUICK, feasible_pair, fk_pose, float_bits, make_trajectory, mutate, random_config
from naive_oracle import naive_joint_ticks, naive_settle, naive_sim_step, naive_tick


def random_sim_config(rng):
    return SimConfig(
        rate_limit_deg_s=float(rng.uniform(100.0, 400.0)), tick_s=float(rng.uniform(0.002, 0.02))
    )


def grasp_stream(rng, model, length):
    """A wire stream of random moves, pauses (frames that repeat the angles)
    and gripper changes on zero-motion frames, with the tool returning to the
    object to grasp it again.  The object starts at the tool of the parked
    arm, so a close there captures it at once."""
    lo, hi = (np.rint(100.0 * model.limits_deg)).astype(int)
    q = np.rint(100.0 * np.array(model.mid_config().angles_deg)).astype(int)
    at_object = q.copy()
    closed = holding = False
    lines = []
    for seq in range(length):
        r = rng.random()
        if r < 0.3:
            if closed and holding:
                at_object = q.copy()
            holding = not closed and np.array_equal(q, at_object)
            closed = not closed
        elif r < 0.45 and not holding:
            q = at_object.copy()
        elif r < 0.8:
            q = np.clip(q + rng.integers(-500, 501, 6), lo, hi)
        lines.append(f"F {seq} {' '.join(str(v) for v in q)} G {int(closed)}\n")
    return "".join(lines)


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
            "F 1٣ 9000 13500 4500 13500 9000 4500 G 1",  # non-ASCII digit
            "F 0 9000 13500 4500 13500 9000 4500 G 1\n\n",  # two newlines
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
            traj = make_trajectory((q, GRIPPER_OPEN))
            frame = encode_servo_frames(traj)[0]
            state = apply_frame(arm, initial_state(arm), parse_frame(frame.encode()))
            expected = tuple(c / 100.0 for c in frame.centidegrees)
            assert state.target_deg == expected

    def test_out_of_limit_target_rejected(self, arm):
        frame = ServoFrame(0, (0, 13500, 4500, 13500, 9000, 9100), False)
        with pytest.raises(FrameError, match="joint 5"):
            apply_frame(arm, initial_state(arm), frame)


def counting(function, calls):
    """``function`` with each call's arguments appended to ``calls``."""

    def count(*args, **kwargs):
        calls.append(args)
        return function(*args, **kwargs)

    return count


def frame_by_frame(model, text, config):
    r"""What replay_frames must report for ``text``: the frame count and the
    clock's bits after parsing, applying and settling each line in turn.  A
    line ends at "\n", and one "\r" at its end is dropped."""
    state = initial_state(model)
    count = 0
    for line in re.split(r"\n", text):
        line = re.sub(r"\r\Z", "", line)
        if line.strip():
            state = settle(model, apply_frame(model, state, parse_frame(line), config), config)
            count += 1
    return count, state.elapsed_s.hex()


def replayed(model, text, config):
    report = replay_frames(model, text, config)
    return report.frames_sent, report.sim_time_s.hex()


def outcome(run, *args):
    """The result of ``run``, or the type and message of the ValueError
    (FrameError included) that it raised."""
    try:
        return run(*args)
    except ValueError as exc:
        return type(exc), str(exc)


class TestFrameFuzz:
    """Mutated wire frames either parse and apply to finite targets within
    the limits, or raise FrameError; any other exception, or a hang, fails
    the suite.  Mutated streams replay exactly as the per-frame loop runs
    them: the same error, or the same frame count and clock bits."""

    def test_parse_and_apply_frame(self, arm):
        rng = np.random.default_rng(6363)
        lines = grasp_stream(rng, arm, 40).splitlines(keepends=True)
        lo, hi = arm.limits_deg
        accepted = refused = 0
        for _ in range(3000):
            text = mutate(rng, lines[int(rng.integers(len(lines)))].encode()).decode("latin-1")
            try:
                frame = parse_frame(text)
            except FrameError:
                continue
            # Half the time the frame repeats the last sequence number.
            state = replace(initial_state(arm), last_seq=frame.seq - int(rng.integers(0, 2)))
            try:
                state = settle(arm, apply_frame(arm, state, frame))
            except FrameError:
                refused += 1
                continue
            accepted += 1
            target = np.array(state.target_deg)
            assert state.last_seq == frame.seq
            assert state.current_deg == state.target_deg
            assert np.isfinite(target).all() and np.all(lo <= target) and np.all(target <= hi)
            assert math.isfinite(state.elapsed_s)
        assert accepted > 0 and refused > 0

    def test_replay_matches_frame_by_frame(self, arm):
        rng = np.random.default_rng(6367)
        refused = 0
        for _ in range(1500):
            text = grasp_stream(rng, arm, int(rng.integers(2, 20)))
            text = mutate(rng, text.encode()).decode("latin-1")
            config = random_sim_config(rng)
            expected = outcome(frame_by_frame, arm, text, config)
            assert outcome(replayed, arm, text, config) == expected
            refused += expected[0] is FrameError
        assert 0 < refused < 1500

    @pytest.mark.parametrize(
        "frame_3, tick_s, message",
        [
            pytest.param(
                "F 1 9000 13500 4500 13500 9000 4500 G 0", 0.01,
                "frame sequence 1 not greater than last applied 2", id="seq_backwards",
            ),
            pytest.param(
                "F 3 9000 13500 4500 13500 9000 9100 G 0", 0.01,
                "frame 3: joint 5 target 91.0 outside [0.0, 90.0]", id="joint5_out_of_limits",
            ),
            pytest.param(
                f"F 3 9000 13500 {'9' * 400} 13500 9000 4500 G 0", 0.01,
                "frame 3: target beyond float range", id="angle_400_digits",
            ),
            pytest.param(
                "F 3 9000 13500 4500 13500 9000 4500 G 0", 1e308,
                "tick_s 1e+308 overflows the simulated time at frame 1", id="clock_overflow",
            ),
        ],
    )
    def test_replay_raises_as_frame_by_frame(self, arm, frame_3, tick_s, message):
        away, back = "0 18000 0 9000 18000 0", "9000 13500 4500 13500 9000 4500"
        lines = [f"F 0 {away} G 0", f"F 1 {back} G 0", f"F 2 {away} G 0", frame_3, f"F 4 {away} G 0"]
        text = "\n".join(lines)
        config = SimConfig(tick_s=tick_s)
        expected = outcome(frame_by_frame, arm, text, config)
        assert outcome(replayed, arm, text, config) == expected
        assert expected == (ValueError if tick_s > 1.0 else FrameError, message)


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
    """The per-tick servo rule, on the oracle step that TestSettleOracle
    holds the simulator to."""

    def test_rate_limited_motion(self, arm):
        state = initial_state(arm)
        frame = ServoFrame(0, (18000, 13500, 4500, 13500, 9000, 4500), False)
        state = apply_frame(arm, state, frame)  # joint 0: 90 -> 180, gap 90
        state = naive_sim_step(arm, state, 0.1, SimConfig(rate_limit_deg_s=300.0))
        assert state.current_deg[0] == pytest.approx(120.0, abs=1e-12)
        assert state.elapsed_s == pytest.approx(0.1)

    def test_zero_dt_only_advances_time(self, arm):
        state = initial_state(arm)
        stepped = naive_sim_step(arm, state, 0.0, SimConfig())
        assert stepped == state

    def test_exact_arrival_without_overshoot(self, arm):
        state = initial_state(arm)
        frame = ServoFrame(0, (9100, 13500, 4500, 13500, 9000, 4500), False)
        state = apply_frame(arm, state, frame)  # gap 1 degree
        state = naive_sim_step(arm, state, 0.1, SimConfig(rate_limit_deg_s=300.0))
        assert state.current_deg[0] == 91.0

    def test_gap_never_grows(self, arm):
        rng = np.random.default_rng(167)
        state = initial_state(arm)
        q = random_config(rng, arm)
        traj = make_trajectory((q, GRIPPER_OPEN))
        state = apply_frame(arm, state, encode_servo_frames(traj)[0])
        gaps = np.abs(np.array(state.target_deg) - np.array(state.current_deg))
        for _ in range(200):
            state = naive_sim_step(arm, state, 0.01, SimConfig())
            new_gaps = np.abs(np.array(state.target_deg) - np.array(state.current_deg))
            assert np.all(new_gaps <= gaps + 1e-12)
            gaps = new_gaps
        assert state.current_deg == state.target_deg

    def test_negative_dt_rejected(self, arm):
        with pytest.raises(ValueError, match="dt"):
            naive_sim_step(arm, initial_state(arm), -0.01, SimConfig())

    def test_limits_always_hold(self, arm):
        rng = np.random.default_rng(173)
        state = initial_state(arm)
        lo, hi = arm.limits_deg
        for seq in range(20):
            q = random_config(rng, arm)
            traj = make_trajectory((q, GRIPPER_OPEN))
            frame = encode_servo_frames(traj)[0]
            frame = ServoFrame(seq, frame.centidegrees, frame.gripper_closed)
            state = apply_frame(arm, state, frame)
            for _ in range(int(rng.integers(1, 30))):
                state = naive_sim_step(arm, state, 0.01, SimConfig())
                assert np.all(np.array(state.current_deg) >= lo - 1e-12)
                assert np.all(np.array(state.current_deg) <= hi + 1e-12)


class TestSettle:
    def test_clock_overflow_raises(self, arm):
        # Every joint arrives in one 1e308-s tick; the second frame's tick
        # takes the clock past the float range.
        config = SimConfig(tick_s=1e308)
        away = ServoFrame(0, (0, 18000, 0, 9000, 18000, 0), False)
        back = ServoFrame(1, (9000, 13500, 4500, 13500, 9000, 4500), False)
        state = settle(arm, apply_frame(arm, initial_state(arm), away), config)
        assert state.elapsed_s == 1e308
        with pytest.raises(ValueError, match="tick_s 1e[+]308 overflows the simulated time at frame 1"):
            settle(arm, apply_frame(arm, state, back), config)

    def test_one_state_per_settle(self, wide_arm, monkeypatch):
        """A frame that keeps the gripper builds one state; the ticks run on
        plain floats, so a 40-tick settle of a carried object builds one state
        and runs no FK chain.  The first read of the object's pose runs it
        once; later reads return that pose."""
        import armkit.simulator

        start = wide_arm.mid_config()
        state = initial_state(wide_arm, object_pose=fk_pose(wide_arm, start))
        close = encode_servo_frames(make_trajectory((start, GRIPPER_CLOSED)))[0]
        # Joint 0 moves 179.5 -> 299.5 degrees at 3 degrees per tick.
        move = ServoFrame(1, (29950,) + close.centidegrees[1:], True)
        state = apply_frame(wide_arm, state, close)
        assert state.attached
        built, fk = [], []
        monkeypatch.setattr(armkit.simulator, "SimState", counting(SimState, built))
        monkeypatch.setattr(armkit.simulator, "_link_frames", counting(armkit.simulator._link_frames, fk))
        state = apply_frame(wide_arm, state, move)
        assert (len(built), len(fk)) == (1, 0)
        settled = settle(wide_arm, state)
        assert round((settled.elapsed_s - state.elapsed_s) / SimConfig().tick_s) == 40
        assert settled.current_deg == settled.target_deg
        assert (len(built), len(fk)) == (2, 0)
        pose = settled.object_pose
        assert len(fk) == 1
        assert settled.object_pose is pose
        assert len(fk) == 1

    def test_fk_runs_at_capture_and_release_only(self, wide_arm, monkeypatch):
        """A stream shaped like the benchmark's sim_replay, with the capture
        at frame n/4 and the release at 3n/4, fed frame by frame through
        apply_frame and settle, runs the FK chain twice: at the capture and
        at the release.  The carried poses in between are never read."""
        import armkit.simulator

        rng = np.random.default_rng(233)
        frames = 48
        capture, release = frames // 4, 3 * frames // 4
        q = np.rint(100.0 * np.array(wide_arm.mid_config().angles_deg)).astype(int)
        stream, closed = [], False
        for seq in range(frames):
            if seq in (capture, release):
                closed = seq == capture
            else:
                q = np.clip(q + rng.integers(-3000, 3001, 6), 1000, 34900)
            if seq == capture:
                obj = fk_pose(wide_arm, JointConfig(tuple(q / 100.0)))
            stream.append(ServoFrame(seq, tuple(int(v) for v in q), closed))
        state = initial_state(wide_arm, object_pose=obj)
        fk = []
        monkeypatch.setattr(armkit.simulator, "_link_frames", counting(armkit.simulator._link_frames, fk))
        carried = 0
        for frame in stream:
            state = settle(wide_arm, apply_frame(wide_arm, state, frame))
            carried += state.attached
        assert carried == release - capture
        assert not state.attached
        assert state.object_pose is not obj
        assert len(fk) == 2

    @pytest.mark.parametrize("field", ["current_deg", "target_deg"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_is_named(self, arm, field, bad):
        state = initial_state(arm)
        angles = list(getattr(state, field))
        angles[2] = bad
        state = replace(state, **{field: tuple(angles)})
        with pytest.raises(ValueError, match=f"{field} joint 2 is not finite: {bad}"):
            settle(arm, state)

    @pytest.mark.parametrize("field", ["current_deg", "target_deg"])
    @pytest.mark.parametrize("bad", [1e17, 720.0001, -720.0001])
    def test_huge_angle_is_named(self, arm, field, bad):
        """At 1e17 degrees a 3-degree step no longer changes the angle, so
        ticking would never end; settle refuses such a state up front."""
        state = initial_state(arm)
        angles = list(getattr(state, field))
        angles[0] = bad
        state = replace(state, **{field: tuple(angles)})
        with pytest.raises(ValueError, match=re.escape(f"{field} joint 0 has magnitude over 720.0 degrees: {bad}")):
            settle(arm, state)

    @pytest.mark.parametrize("angle", [MAX_SETTLE_ANGLE_DEG, -MAX_SETTLE_ANGLE_DEG, 45.0])
    def test_angles_within_the_bound_settle(self, arm, angle):
        state = initial_state(arm)
        state = replace(state, current_deg=(angle,) + state.current_deg[1:])
        assert settle(arm, state).current_deg == state.target_deg


class TestTickKernel:
    """_tick counts each joint's ticks on its own; naive_tick steps all six
    joints together, tick by tick.  Angles and clock must agree bit for bit,
    the sign of zero included."""

    @staticmethod
    def assert_matches(current, target, elapsed, config):
        got = _tick(tuple(current), tuple(target), elapsed, config, 7)
        want = naive_tick(tuple(current), tuple(target), elapsed, config, 7)
        assert [a.hex() for a in got[0]] == [a.hex() for a in want[0]]
        assert got[1].hex() == want[1].hex()

    def test_random_moves_within_limits(self, arm, wide_arm):
        rng = np.random.default_rng(227)
        for model in (arm, wide_arm):
            lo, hi = model.limits_deg
            for _ in range(300):
                current, target = rng.uniform(lo, hi), rng.uniform(lo, hi)
                target = np.where(rng.random(6) < 0.2, current, target)
                config = random_sim_config(rng) if rng.random() < 0.9 else SimConfig(rate_limit_deg_s=math.inf)
                self.assert_matches(current.tolist(), target.tolist(), float(rng.uniform(0.0, 50.0)), config)

    def test_signed_zeros(self, wide_arm):
        rng = np.random.default_rng(229)
        lo, hi = wide_arm.limits_deg
        zeros = (0.0, -0.0)
        for _ in range(300):
            current, target = rng.uniform(lo, hi).tolist(), rng.uniform(lo, hi).tolist()
            for joint in range(6):
                if rng.random() < 0.4:
                    current[joint] = zeros[int(rng.integers(2))]
                if rng.random() < 0.4:
                    target[joint] = zeros[int(rng.integers(2))]
            self.assert_matches(current, target, 0.0, random_sim_config(rng))

    def test_gaps_at_multiples_of_the_move_and_one_ulp_off(self, wide_arm):
        rng = np.random.default_rng(233)
        lo, hi = wide_arm.limits_deg
        for _ in range(300):
            config = random_sim_config(rng)
            max_move = config.rate_limit_deg_s * config.tick_s
            # Near the lower limit, the gap of a target a few steps up has a
            # smaller exponent than the target; elsewhere the same exponent.
            near_zero = rng.random(6) < 0.5
            current = np.where(near_zero, rng.uniform(0.0, 1.0, 6), rng.uniform(lo + 60.0, hi - 60.0)).tolist()
            target = []
            for cur, low in zip(current, near_zero):
                # Repeated steps land where the kernel's own steps land; the
                # product lands a rounding away from them or on them.
                steps = int(rng.integers(1, 4)) if low else int(rng.integers(-12, 13))
                tgt = cur + steps * max_move
                if rng.random() < 0.5:
                    tgt = cur
                    for _ in range(abs(steps)):
                        tgt += math.copysign(max_move, steps)
                target.append(float(np.nextafter(tgt, (-math.inf, tgt, math.inf)[int(rng.integers(3))])))
            self.assert_matches(current, target, float(rng.uniform(0.0, 5.0)), config)

    @pytest.mark.parametrize(
        "current, target, move", [(0.557, 1.9070000000000003, 1.35), (3.227, 1.107, 2.12)]
    )
    def test_gap_that_rounds_to_the_move(self, current, target, move):
        # The gap rounds to exactly one move, but a step from the current
        # angle would round to a neighbour of the target: one arrival tick.
        assert abs(target - current) == move and current + math.copysign(move, target - current) != target
        config = SimConfig(rate_limit_deg_s=move, tick_s=1.0)
        self.assert_matches((current,) * 6, (target,) * 6, 0.0, config)
        assert _tick((current,) * 6, (target,) * 6, 0.0, config, 0)[1] == 1.0

    def test_smallest_move_per_tick(self):
        config = SimConfig(rate_limit_deg_s=1.0, tick_s=0.001)
        assert config.rate_limit_deg_s * config.tick_s == MIN_MOVE_PER_TICK_DEG
        rng = np.random.default_rng(239)
        for _ in range(20):
            current = rng.uniform(100.0, 110.0, 6)
            self.assert_matches(current.tolist(), (current + rng.uniform(-0.5, 0.5, 6)).tolist(), 0.0, config)

    def test_full_range_at_the_smallest_move(self):
        # wide_arm's 0 -> 359 degrees at 0.001 degrees per tick: 359,000
        # steps, and an arrival tick for what the repeated additions fall
        # short.
        config = SimConfig(rate_limit_deg_s=1.0, tick_s=0.001)
        current = (0.0, 10.0, 359.0, 180.0, 0.0, 0.0)
        target = (359.0, 10.0, 0.0, 180.5, 0.0, -0.0)
        self.assert_matches(current, target, 0.0, config)
        assert round(_tick(current, target, 0.0, config, 0)[1] / config.tick_s) == 359_001

    def test_clock_overflow(self):
        config = SimConfig(tick_s=1e307)
        current, target = (90.0,) * 6, (91.0,) + (90.0,) * 5
        self.assert_matches(current, target, 1e308, SimConfig())
        for kernel in (_tick, naive_tick):
            with pytest.raises(ValueError, match="tick_s 1e[+]307 overflows the simulated time at frame 7"):
                kernel(current, target, 1.79e308, config, 7)

    @staticmethod
    def joint_ticks(cur, tgt, move):
        """_tick's count for one joint: with a 1-second tick the clock
        counts the ticks exactly."""
        angles, elapsed = _tick((cur,), (tgt,), 0.0, SimConfig(rate_limit_deg_s=move, tick_s=1.0), 0)
        assert angles == ((tgt,) if elapsed else (cur,))
        return elapsed

    @staticmethod
    def drift(cur, tgt, move):
        """The leading term of how far, in moves, the steps from ``cur`` to
        ``tgt`` can stray by rounding: one unit roundoff of the largest angle
        per step."""
        return abs(tgt - cur) / move * (max(abs(cur), abs(tgt)) + move) / move * 2.0**-53

    def test_counts_match_stepping_around_whole_multiples(self):
        """20,000 single-joint moves against the step-by-step count: a
        quarter anywhere, the rest placed around a whole number of moves at
        up to 1.5 times the steps' rounding drift, either side."""
        rng = np.random.default_rng(241)
        cases = 20_000
        moves = np.where(rng.random(cases) < 0.5, rng.uniform(1e-3, 8.0, cases), 1e-3 * rng.integers(1, 10, cases))
        counts = np.exp(rng.uniform(math.log(2.0), math.log(2000.0), cases)).astype(int)
        offsets = rng.uniform(-1.5, 1.5, cases)
        stepped_away = 0
        anywhere = rng.random(cases) < 0.25
        for move, count, offset, anywhere in zip(moves.tolist(), counts.tolist(), offsets.tolist(), anywhere):
            count = min(count, int(2.0 * MAX_SETTLE_ANGLE_DEG / move))
            cur = float(rng.uniform(-MAX_SETTLE_ANGLE_DEG, MAX_SETTLE_ANGLE_DEG - count * move))
            tgt = cur + count * move
            tgt += float(rng.uniform(-0.5, 0.5)) * move if anywhere else offset * self.drift(cur, tgt, move) * move
            if rng.random() < 0.5:
                cur, tgt = -cur, -tgt
            if rng.random() < 0.5:
                cur, tgt = tgt, cur
            want = naive_joint_ticks(cur, tgt, move)
            assert self.joint_ticks(cur, tgt, move) == want, (cur, tgt, move)
            stepped_away += want != math.ceil(abs(tgt - cur) / move)
        assert stepped_away > 100

    @pytest.mark.parametrize("count", [1_000, 3_600, 10_000, 36_000, 100_000, 360_000])
    def test_long_moves_on_and_beside_whole_multiples(self, count):
        """At MIN_MOVE_PER_TICK_DEG, the widest rounding bound: gaps of a
        whole number of moves, exactly and one ulp either side, up and down.
        Where the steps' rounding meets the target, the count is not
        ceil(gap / move)."""
        move = MIN_MOVE_PER_TICK_DEG
        rng = np.random.default_rng(count)
        stepped_away = 0
        currents, targets = [], []
        for direction in (1.0, -1.0):
            for nudge in (-math.inf, None, math.inf):
                cur = 0.0 if count == 360_000 else float(rng.uniform(-360.0, 360.0 - count * move))
                tgt = cur + count * move
                if nudge is not None:
                    tgt = float(np.nextafter(tgt, nudge))
                cur, tgt = direction * cur, direction * tgt
                want = naive_joint_ticks(cur, tgt, move)
                assert self.joint_ticks(cur, tgt, move) == want, (cur, tgt)
                stepped_away += want != math.ceil(abs(tgt - cur) / move)
                currents.append(cur)
                targets.append(tgt)
        assert stepped_away > 0
        if count <= 36_000:
            self.assert_matches(currents, targets, 0.0, SimConfig(rate_limit_deg_s=1.0, tick_s=move))

    def test_rounding_drift_just_inside_the_bound(self):
        """Steps of 0.001 degrees in [256, 512) all round down by 0.416 ulp,
        so their drift nears its bound.  Gaps 0.3 to 1.2 drifts beside a
        whole number of moves must count as the steps do; beyond half the
        drift, some of them do not count ceil(gap / move)."""
        move = MIN_MOVE_PER_TICK_DEG
        rng = np.random.default_rng(251)
        stepped_away = []
        for count in (1_000, 2_000, 5_000, 10_000, 20_000):
            for _ in range(4):
                cur = 256.0 + float(rng.uniform(0.0, 1.0))
                whole = cur + count * move
                for fraction in np.arange(0.3, 1.25, 0.05).tolist():
                    for side in (1.0, -1.0):
                        tgt = whole + side * fraction * self.drift(cur, whole, move) * move
                        want = naive_joint_ticks(cur, tgt, move)
                        assert self.joint_ticks(cur, tgt, move) == want, (cur, tgt)
                        if want != math.ceil((tgt - cur) / move):
                            stepped_away.append(fraction)
        assert max(stepped_away) > 0.6


class TestGrasping:
    def test_capture_attach_follow_release(self, arm):
        start = arm.mid_config()
        state = initial_state(arm, object_pose=fk_pose(arm, start))
        # close at the object: capture
        close = encode_servo_frames(make_trajectory((start, GRIPPER_CLOSED)))[0]
        state = apply_frame(arm, state, close)
        assert state.attached
        rel_before = state.grasp_rel
        # drive elsewhere and settle; the object must ride along
        target = JointConfig((80.0, 130.0, 40.0, 130.0, 85.0, 40.0))
        move = encode_servo_frames(make_trajectory((target, GRIPPER_CLOSED)))[0]
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
        close = encode_servo_frames(make_trajectory((start, GRIPPER_CLOSED)))[0]
        state = apply_frame(arm, state, close)
        rel0 = np.array(state.grasp_rel).reshape(4, 4)
        a = np.array(start.angles_deg)
        b = np.array((70.0, 120.0, 30.0, 120.0, 60.0, 30.0))
        for seq in range(1, 11):
            target = JointConfig(tuple(a + (b - a) * (seq / 10)))
            move = encode_servo_frames(make_trajectory((target, GRIPPER_CLOSED)))[0]
            state = settle(arm, apply_frame(arm, state, ServoFrame(seq, move.centidegrees, True)))
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
        close = encode_servo_frames(make_trajectory((start, GRIPPER_CLOSED)))[0]
        state = apply_frame(arm, state, close)
        assert not state.attached
        assert state.gripper == GRIPPER_CLOSED


class TestSettleOracle:
    """The simulator poses an attached object once per settle and once per
    stream; the oracle carries it on every tick.  Results must agree bit for
    bit."""

    def test_settle_matches_per_tick_oracle(self, arm, wide_arm):
        rng = np.random.default_rng(211)
        attached_moves = 0
        for model in (arm, wide_arm):
            lo, hi = model.limits_deg
            for _ in range(150):
                current = rng.uniform(lo, hi)
                target = np.clip(current + rng.uniform(-10.0, 10.0, 6), lo, hi)
                target = np.where(rng.random(6) < 0.3, current, target)
                if rng.random() < 0.1:
                    target = current  # no tick at all
                obj = fk_pose(model, random_config(rng, model))
                state = SimState(
                    current_deg=tuple(current), target_deg=tuple(target),
                    elapsed_s=float(rng.uniform(0.0, 5.0)), object_pose=obj,
                )
                if rng.random() < 0.5:
                    tool = forward_kinematics(model, JointConfig(state.current_deg))
                    rel = invert_transform(tool) @ pose_to_matrix(obj)
                    state = replace(
                        state, gripper=GRIPPER_CLOSED, grasp_rel=tuple(float(v) for v in rel.reshape(-1))
                    )
                config = random_sim_config(rng)
                settled = settle(model, state, config)
                assert float_bits(settled) == float_bits(naive_settle(model, state, config))
                attached_moves += state.attached and settled.object_pose != obj
        assert attached_moves > 100

    def test_zero_motion_capture_keeps_the_object_pose(self, arm):
        # Off the tool point, so that FK times its inverse would move the
        # pose's last bits.
        tool = fk_pose(arm, arm.mid_config())
        obj = Pose6D(tuple(np.add(tool.position, (0.003, -0.002, 0.001))), tool.quaternion)
        state = initial_state(arm, object_pose=obj)
        close = encode_servo_frames(make_trajectory((arm.mid_config(), GRIPPER_CLOSED)))[0]
        state = apply_frame(arm, state, close)
        assert state.attached
        assert float_bits(settle(arm, state)) == float_bits(state)
        final, count = _run_frames(arm, initial_state(arm, object_pose=obj), [close], SimConfig())
        assert count == 1
        assert float_bits(final) == float_bits(state)
        assert float_bits(final.object_pose) == float_bits(obj)

    def test_streams_match_per_tick_oracle(self, arm, wide_arm):
        rng = np.random.default_rng(223)
        regrasps = 0
        for model in (arm, wide_arm):
            obj = fk_pose(model, model.mid_config())
            for _ in range(25):
                text = grasp_stream(rng, model, int(rng.integers(1, 40)))
                config = random_sim_config(rng)
                frames = [parse_frame(line) for line in text.splitlines()]
                naive = per_settle = initial_state(model, object_pose=obj)
                captures = 0
                for frame in frames:
                    naive = naive_settle(model, apply_frame(model, naive, frame, config), config)
                    was_attached = per_settle.attached
                    per_settle = settle(model, apply_frame(model, per_settle, frame, config), config)
                    assert float_bits(per_settle) == float_bits(naive)
                    captures += per_settle.attached and not was_attached
                regrasps += captures > 1
                final, count = _run_frames(model, initial_state(model, object_pose=obj), frames, config)
                assert float_bits(final) == float_bits(naive)
                assert count == len(frames)
                replayed = replay_frames(model, "\n" + text + "\n", config)
                assert replayed.frames_sent == len(frames)
                assert replayed.sim_time_s.hex() == naive.elapsed_s.hex()
        assert regrasps > 5

    @pytest.mark.parametrize(
        "obj, place",
        [((0.12, 0.05, 0.02), (-0.05, 0.12, 0.02)), ((0.17, 0.0, 0.02), (0.0, -0.12, 0.02))],
    )
    def test_pick_cycle_matches_per_tick_oracle(self, wide_arm, obj, place):
        obj, place = top_down_pose(*obj), top_down_pose(*place)
        report = run_pick_cycle(wide_arm, obj, place)
        frames = encode_servo_frames(plan_to_trajectory(wide_arm, plan_pick_place(wide_arm, obj, place)))
        state = initial_state(wide_arm, object_pose=obj)
        for frame in frames:
            state = naive_settle(wide_arm, apply_frame(wide_arm, state, frame), SimConfig())
        assert report.success
        assert report.frames_sent == len(frames)
        assert float_bits(report.final_object_pose) == float_bits(state.object_pose)
        assert report.sim_time_s.hex() == state.elapsed_s.hex()


class TestLazyObjectPose:
    """settle leaves a carried object's pose to be computed when it is first
    read.  Such a state must read, compare, hash, print, copy and pickle as
    one whose pose was computed at once."""

    @staticmethod
    def carried(model):
        """A state carrying an object after a settle of 10 ticks, its pose
        not yet read, and the per-tick oracle's state for the same frames."""
        start = model.mid_config()
        close = encode_servo_frames(make_trajectory((start, GRIPPER_CLOSED)))[0]
        move = ServoFrame(1, (close.centidegrees[0] + 3000,) + close.centidegrees[1:], True)
        state = apply_frame(model, initial_state(model, object_pose=fk_pose(model, start)), close)
        state = apply_frame(model, state, move)
        return settle(model, state), naive_settle(model, state, SimConfig())

    def test_stream_states_read_once_twice_or_never_match_the_oracle(self, arm, wide_arm):
        """Every state after a settle, whether its pose is read at once (and
        read again), or first read when the stream is over, gives the per-tick
        oracle's bits."""
        rng = np.random.default_rng(229)
        unread = 0
        for model in (arm, wide_arm):
            obj = fk_pose(model, model.mid_config())
            for stream in range(20):
                text = grasp_stream(rng, model, int(rng.integers(1, 40)))
                config = random_sim_config(rng)
                naive = state = initial_state(model, object_pose=obj)
                states = []
                for line in text.splitlines():
                    frame = parse_frame(line)
                    naive = naive_settle(model, apply_frame(model, naive, frame, config), config)
                    state = settle(model, apply_frame(model, state, frame, config), config)
                    unread += type(vars(state)["object_pose"]) is _Held
                    if stream % 2:
                        pose = state.object_pose
                        assert state.object_pose is pose
                    states.append((state, naive))
                for state, naive in states:
                    assert float_bits(state) == float_bits(naive)
        assert unread > 100

    def test_dunder_methods_read_the_pose(self, wide_arm):
        lazy, eager = self.carried(wide_arm)
        assert type(vars(lazy)["object_pose"]) is _Held
        assert lazy == eager
        assert float_bits(lazy) == float_bits(eager)
        assert hash(self.carried(wide_arm)[0]) == hash(eager)
        assert repr(self.carried(wide_arm)[0]) == repr(eager)
        assert self.carried(wide_arm)[0] != replace(eager, object_pose=None)

    def test_replace_reads_the_pose_unless_it_is_given(self, wide_arm):
        lazy, eager = self.carried(wide_arm)
        assert replace(lazy, object_pose=None).object_pose is None
        assert type(vars(lazy)["object_pose"]) is _Held
        moved = replace(lazy, elapsed_s=1.0)
        assert type(vars(moved)["object_pose"]) is Pose6D
        assert float_bits(moved) == float_bits(replace(eager, elapsed_s=1.0))

    @pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s))])
    def test_copies_and_pickles_hold_the_pose(self, wide_arm, duplicate):
        lazy, eager = self.carried(wide_arm)
        twin = duplicate(lazy)
        assert type(vars(twin)["object_pose"]) is Pose6D
        assert float_bits(twin) == float_bits(eager)
        read = self.carried(wide_arm)[0]
        read.object_pose
        assert pickle.dumps(self.carried(wide_arm)[0]) == pickle.dumps(read)

    def test_fields_stay_frozen_and_default_to_no_object(self, wide_arm):
        lazy, _ = self.carried(wide_arm)
        for state in (lazy, initial_state(wide_arm)):
            with pytest.raises(FrozenInstanceError):
                state.object_pose = None
        assert type(vars(lazy)["object_pose"]) is _Held
        mid = wide_arm.mid_config().angles_deg
        assert SimState(mid, mid).object_pose is None
        assert {f.name: f.default for f in fields(SimState)}["object_pose"] is None


class TestSimStateConstructor:
    """SimState writes its own constructor; it must take the dataclass
    fields in order, with their defaults, and store each in its field."""

    def test_parameters_are_the_fields(self):
        params = list(inspect.signature(SimState.__init__).parameters.values())[1:]
        Parameter = inspect.Parameter
        assert [(p.name, p.kind, p.default) for p in params] == [
            (f.name, Parameter.POSITIONAL_OR_KEYWORD, Parameter.empty if f.default is MISSING else f.default)
            for f in fields(SimState)
        ]

    def test_each_argument_lands_in_its_field(self):
        names = [f.name for f in fields(SimState)]
        values = [object() for _ in names]
        for state in (SimState(*values), SimState(**dict(zip(names, values)))):
            assert list(vars(state)) == names
            assert all(getattr(state, name) is value for name, value in zip(names, values))
        state = SimState(values[0], values[1])
        assert [getattr(state, name) for name in names[2:]] == [f.default for f in fields(SimState)[2:]]


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

    @pytest.mark.parametrize("clearance, solves", [(0.05, 5), (0.0, 3)])
    def test_each_distinct_pose_is_solved_once(self, wide_arm, monkeypatch, clearance, solves):
        """lift and retreat repeat pre_grasp's and pre_place's poses; at zero
        clearance pre_grasp and pre_place repeat grasp and place as well."""
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
        assert run_pick_cycle(wide_arm, obj, place, clearance=clearance).success
        assert calls == [0] * solves

    def test_cycle_builds_no_servo_frames(self, wide_arm, monkeypatch):
        """run_pick_cycle feeds the frame loop centidegree rows: it builds no
        ServoFrame."""
        import armkit.simulator

        built = []

        def counting_frame(*args, **kwargs):
            built.append(kwargs)
            return ServoFrame(*args, **kwargs)

        monkeypatch.setattr(armkit.simulator, "ServoFrame", counting_frame)
        obj = top_down_pose(0.12, 0.05, 0.02)
        place = top_down_pose(-0.05, 0.12, 0.02)
        report = run_pick_cycle(wide_arm, obj, place)
        assert report.success
        assert report.frames_sent > 100
        assert built == []
        encode_servo_frames(plan_to_trajectory(wide_arm, plan_pick_place(wide_arm, obj, place)))
        assert len(built) == report.frames_sent

    def test_forward_kinematics_runs_at_capture_and_release_only(self, wide_arm, monkeypatch):
        """The simulator runs the FK chain (_link_frames) once to capture the
        object and once to release it."""
        import armkit.simulator

        calls = []
        monkeypatch.setattr(armkit.simulator, "_link_frames", counting(armkit.simulator._link_frames, calls))
        obj = top_down_pose(0.12, 0.05, 0.02)
        place = top_down_pose(-0.05, 0.12, 0.02)
        assert run_pick_cycle(wide_arm, obj, place).success
        assert len(calls) == 2

    def test_states_built_per_cycle(self, wide_arm, monkeypatch):
        """The frame loop runs on plain floats: a cycle builds its initial
        and final state and 2 states per gripper change (the one
        handed to the capture or release, and its result)."""
        import armkit.simulator

        obj = top_down_pose(0.12, 0.05, 0.02)
        place = top_down_pose(-0.05, 0.12, 0.02)
        frames = encode_servo_frames(plan_to_trajectory(wide_arm, plan_pick_place(wide_arm, obj, place)))
        closed = [False] + [frame.gripper_closed for frame in frames]
        changes = sum(a != b for a, b in zip(closed, closed[1:]))
        assert changes == 2

        built = []
        monkeypatch.setattr(armkit.simulator, "SimState", counting(SimState, built))
        report = run_pick_cycle(wide_arm, obj, place)
        assert report.success
        assert report.frames_sent == len(frames) > 100
        assert len(built) == 2 * changes + 2

    def test_knots_build_no_joint_configs(self, wide_arm, monkeypatch):
        """The cycle of test_states_built_per_cycle keeps its knots in one
        array from interpolation to frames: plan_to_trajectory and
        encode_servo_frames build no JointConfig."""
        obj = top_down_pose(0.12, 0.05, 0.02)
        place = top_down_pose(-0.05, 0.12, 0.02)
        plan = plan_pick_place(wide_arm, obj, place)
        built = []
        check = JointConfig.__post_init__

        def counting(self):
            built.append(self)
            check(self)

        monkeypatch.setattr(JointConfig, "__post_init__", counting)
        frames = encode_servo_frames(plan_to_trajectory(wide_arm, plan))
        assert len(frames) > 100
        assert len(built) == 0

    def test_dls_steps_per_cycle_are_pinned(self, wide_arm, monkeypatch):
        """The planner's IK takes 27 damped-least-squares steps on this cycle
        (lift and retreat reuse solved configurations); a faster solver must
        do the same steps, each of them cheaper."""
        import armkit.ik_solver

        calls = []
        step = armkit.ik_solver._dls_step

        def counting_step(*args, **kwargs):
            calls.append(args)
            return step(*args, **kwargs)

        monkeypatch.setattr(armkit.ik_solver, "_dls_step", counting_step)
        obj = top_down_pose(0.12, 0.05, 0.02)
        place = top_down_pose(-0.05, 0.12, 0.02)
        assert run_pick_cycle(wide_arm, obj, place).success
        assert len(calls) == 27

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

    AWAY = "F 0 0 18000 0 9000 18000 0 G 0"
    BACK = "F 1 9000 13500 4500 13500 9000 4500 G 0"

    @pytest.mark.parametrize(
        "separator",
        ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029", "\r"],
        ids=["vt", "ff", "fs", "gs", "rs", "nel", "line_sep", "paragraph_sep", "lone_cr"],
    )
    def test_only_a_newline_ends_a_frame(self, arm, separator):
        """str.splitlines would break at each of these; the wire does not."""
        assert replay_frames(arm, f"{self.AWAY}\n{self.BACK}\n").frames_sent == 2
        with pytest.raises(FrameError, match="malformed servo frame"):
            replay_frames(arm, f"{self.AWAY}{separator}{self.BACK}\n")

    def test_crlf_lines_replay(self, arm):
        expected = replay_frames(arm, f"{self.AWAY}\n{self.BACK}\n")
        report = replay_frames(arm, f"{self.AWAY}\r\n\r\n{self.BACK}\r\n")
        assert (report.frames_sent, report.sim_time_s.hex()) == (2, expected.sim_time_s.hex())
        with pytest.raises(FrameError, match="malformed servo frame"):
            replay_frames(arm, f"{self.AWAY}\r\r\n")
