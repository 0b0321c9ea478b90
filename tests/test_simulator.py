import copy
import hashlib
import inspect
import io
import json
import math
import pickle
import re
import sys
import time
from dataclasses import MISSING, FrozenInstanceError, fields, replace
from operator import sub

import numpy as np
import pytest

from armkit import (
    GRIPPER_CLOSED,
    ArmModel,
    GRIPPER_OPEN,
    FrameError,
    JointConfig,
    JointLimit,
    NoConvergenceError,
    Pose6D,
    ServoFrame,
    SimConfig,
    SimState,
    Trajectory,
    UnreachableError,
    apply_frame,
    dump_arm_config,
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
    top_down_pose,
)
from armkit.cli import main
from armkit.kinematics import _norm, euler_zyx_to_matrix, invert_transform, pose_to_matrix
from armkit.simulator import (
    CAPTURE_RADIUS_M,
    MAX_SETTLE_ANGLE_DEG,
    MIN_MOVE_PER_TICK_DEG,
    PLACE_TOLERANCE_M,
    _Held,
    _frame_rows,
    _next_state,
    _run_frames,
    _run_trajectory,
    _tick,
)

from conftest import QUICK, feasible_pair, fk_pose, float_bits, make_trajectory, mutate, random_config
from naive_oracle import loop_frame_target, naive_joint_ticks, naive_settle, naive_sim_step, naive_tick


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

    @pytest.mark.parametrize("angles", [(9000,) * 5, (9000,) * 7], ids=["five", "seven"])
    def test_frame_needs_six_angles(self, arm, angles):
        with pytest.raises(FrameError, match=r"^frame 3: expected 6 angles$"):
            apply_frame(arm, initial_state(arm), ServoFrame(3, angles, False))

    def test_out_of_limit_target_rejected(self, arm):
        frame = ServoFrame(0, (0, 13500, 4500, 13500, 9000, 9100), False)
        with pytest.raises(FrameError, match="joint 5"):
            apply_frame(arm, initial_state(arm), frame)


def points_at_distance(center, distance, count):
    """``count`` points whose offsets from ``center`` have a _norm of
    exactly ``distance``, each found by walking x one ulp at a time from
    where the exact offset would put it."""
    cx, cy, cz = center
    points = []
    for k in range(1, 400):
        dy, dz = distance * k / 400.0, distance * (k % 7) / 10.0
        x = cx + math.sqrt(max(distance * distance - dy * dy - dz * dz, 0.0))
        y, z = cy + dy, cz - dz
        for _ in range(64):
            n = _norm((x - cx, y - cy, z - cz))
            if n == distance:
                points.append((x, y, z))
                break
            x = math.nextafter(x, math.inf if n < distance else -math.inf)
        if len(points) == count:
            return points
    raise AssertionError(f"found {len(points)} of {count} points")


def every_joint(values, short_joint):
    """(value, field, joint) cases for each value, field and joint.  Their
    ids end in the joint, except at ``short_joint``, whose cases keep the
    shorter ids that already name them."""
    return [
        pytest.param(bad, field, joint, id=f"{bad}-{field}" + ("" if joint == short_joint else f"-joint{joint}"))
        for joint in range(6)
        for field in ("current_deg", "target_deg")
        for bad in values
    ]


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


class TestWireMutationSweep:
    """Seeded mutants of valid wire frames: huge integers, -0, flipped
    signs, out-of-order sequence numbers, angles past the joint limits,
    truncation, extra spaces, and five or seven angles.  Each mutated stream
    goes through parse_frame and apply_frame, where every frame's targets
    or FrameError message must equal loop_frame_target's, and through
    ``armkit sim``, which must exit 0 with the frame-by-frame report, or 2
    with that run's message, naming the frame."""

    MUTANTS = 400
    # Each of _frame_target's and parse_frame's refusals, as its message reads.
    REFUSALS = ("malformed servo frame: '", "too many digits", "not greater than", "beyond float range", "outside [")

    @staticmethod
    def mutate_frame(rng, model, line, last_seq):
        """One mutation of the frame ``line`` that follows frame ``last_seq``."""
        tokens = line.split(" ")
        kind = int(rng.integers(8))
        at = int(rng.integers(1, 8))  # the sequence number or an angle
        if kind == 0:
            digits = int(rng.choice([15, 19, 20, 308, 309, 310, 311, 400, 5000]))
            tokens[at] = str(rng.choice(["", "-"])) + "9" * digits
        elif kind == 1:
            tokens[at] = "-0"
        elif kind == 2:
            tokens[at] = tokens[at][1:] if tokens[at].startswith("-") else "-" + tokens[at]
        elif kind == 3:
            tokens[1] = str(last_seq - int(rng.integers(0, 3)))
        elif kind == 4:
            joint = at - 2 if at > 1 else 0
            lim = model.limits[joint]
            edge = [lim.min_deg, lim.max_deg][int(rng.integers(2))]
            tokens[joint + 2] = str(round(edge * 100) + int(rng.integers(-1, 2)))
        elif kind == 5:
            return line[: int(rng.integers(len(line)))]
        elif kind == 6:
            cut = int(rng.integers(len(line) + 1))
            return line[:cut] + " " * int(rng.integers(1, 3)) + line[cut:]
        elif int(rng.integers(2)):
            del tokens[int(rng.integers(2, 8))]
        else:
            tokens.insert(int(rng.integers(2, 9)), str(int(rng.integers(0, 18000))))
        return " ".join(tokens)

    @staticmethod
    def frame_by_frame(model, lines):
        """The in-process run: ("ok", frames, clock), or ("error", message,
        the line that failed).  Every frame that parses must get the same
        targets, or the same FrameError message, from apply_frame as from
        loop_frame_target."""
        state = initial_state(model)
        lines = [line for line in lines if line.strip()]  # as replay_frames skips blank lines
        for line in lines:
            try:
                frame = parse_frame(line)
                want = outcome(loop_frame_target, model, state.last_seq, frame.seq, frame.centidegrees)
                try:
                    state = apply_frame(model, state, frame)
                except FrameError as exc:
                    assert want == (FrameError, str(exc)), line
                    raise
                assert float_bits(want) == float_bits(state.target_deg), line
                state = settle(model, state)
            except FrameError as exc:
                return "error", str(exc), line
        return "ok", len(lines), state.elapsed_s

    @staticmethod
    def names_the_frame(message, line):
        """Whether ``message`` names the frame ``line``: by its sequence
        number, or, for a line that does not parse, by its text."""
        seq = line.split(" ")[1] if line.count(" ") else None
        return (
            f"frame {seq}:" in message
            or f"frame sequence {seq} " in message
            or repr(line[:40])[:-1] in message
        )

    def test_mutants_match_the_loop_and_the_cli(self, arm, tmp_path, monkeypatch, capsys):
        config_path = tmp_path / "arm.json"
        config_path.write_text(dump_arm_config(arm))
        rng = np.random.default_rng(6373)
        lo, hi = (np.rint(100.0 * arm.limits_deg)).astype(int)
        kinds = {"ok": 0, "error": 0}
        refusals = dict.fromkeys(self.REFUSALS, 0)
        started = time.perf_counter()
        for _ in range(self.MUTANTS):
            lines = [
                f"F {seq} {' '.join(str(v) for v in rng.integers(lo, hi + 1))} G {int(rng.integers(2))}"
                for seq in range(3)
            ]
            k = int(rng.integers(len(lines)))
            lines[k] = self.mutate_frame(rng, arm, lines[k], k - 1)
            want = self.frame_by_frame(arm, lines)
            kinds[want[0]] += 1
            monkeypatch.setattr(sys, "stdin", io.StringIO("\n".join(lines) + "\n"))
            code = main(["sim", "--config", str(config_path), "--frames", "-"])
            out, err = capsys.readouterr()
            if want[0] == "ok":
                assert code == 0, err
                report = json.loads(out)
                assert (report["frames_sent"], report["sim_time_s"]) == want[1:]
            else:
                assert code == 2, lines
                assert err == f"error: {want[1]}\n"
                assert self.names_the_frame(want[1], want[2]), want
                refusals.update({r: refusals[r] + 1 for r in self.REFUSALS if r in want[1]})
        assert min(kinds.values()) > self.MUTANTS // 10, kinds
        assert min(refusals.values()) > 0, refusals
        assert time.perf_counter() - started < 10.0

    @pytest.mark.parametrize("count", [5, 7])
    def test_rows_of_five_or_seven_angles_match_the_loop(self, arm, count):
        """Rows that the wire cannot carry reach _frame_target through
        apply_frame: the wrong number of angles, alone and with a bad
        sequence number or an angle beyond float range, is refused with
        loop_frame_target's message."""
        angles = (9000, 13500, 4500, 13500, 9000, 4500, 9000)[:count]
        for seq, last_seq, row in [
            (1, 0, angles),
            (0, 0, angles),
            (3, 0, (10**400,) + angles[1:]),
            (0, 2, (-(10**400),) + angles[1:]),
        ]:
            state = replace(initial_state(arm), last_seq=last_seq)
            want = outcome(loop_frame_target, arm, last_seq, seq, row)
            assert outcome(apply_frame, arm, state, ServoFrame(seq, row, False)) == want
            assert want[0] is FrameError


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
        monkeypatch.setattr(armkit.simulator, "forward_kinematics", counting(armkit.simulator.forward_kinematics, fk))
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

    def test_one_state_per_capture_or_release_frame(self, wide_arm, monkeypatch):
        """A frame that changes the gripper builds one state, the capture's or
        the release's, as a frame that keeps it does."""
        import armkit.simulator

        start = wide_arm.mid_config()
        state = initial_state(wide_arm, object_pose=fk_pose(wide_arm, start))
        close = encode_servo_frames(make_trajectory((start, GRIPPER_CLOSED)))[0]
        release = ServoFrame(1, close.centidegrees, False)
        built = []
        monkeypatch.setattr(armkit.simulator, "SimState", counting(SimState, built))
        state = apply_frame(wide_arm, state, close)
        assert state.attached
        assert len(built) == 1
        state = apply_frame(wide_arm, state, release)
        assert not state.attached
        assert len(built) == 2

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
        monkeypatch.setattr(armkit.simulator, "forward_kinematics", counting(armkit.simulator.forward_kinematics, fk))
        carried = 0
        for frame in stream:
            state = settle(wide_arm, apply_frame(wide_arm, state, frame))
            carried += state.attached
        assert carried == release - capture
        assert not state.attached
        assert state.object_pose is not obj
        assert len(fk) == 2

    @pytest.mark.parametrize("bad, field, joint", every_joint([math.nan, math.inf, -math.inf], 2))
    def test_non_finite_angle_is_named(self, arm, field, bad, joint):
        state = initial_state(arm)
        angles = list(getattr(state, field))
        angles[joint] = bad
        state = replace(state, **{field: tuple(angles)})
        with pytest.raises(ValueError, match=f"{field} joint {joint} is not finite: {bad}"):
            settle(arm, state)

    @pytest.mark.parametrize("bad, field, joint", every_joint([1e17, 720.0001, -720.0001], 0))
    def test_huge_angle_is_named(self, arm, field, bad, joint):
        """At 1e17 degrees a 3-degree step no longer changes the angle, so
        ticking would never end; settle refuses such a state up front."""
        state = initial_state(arm)
        angles = list(getattr(state, field))
        angles[joint] = bad
        state = replace(state, **{field: tuple(angles)})
        with pytest.raises(
            ValueError, match=re.escape(f"{field} joint {joint} has magnitude over 720.0 degrees: {bad}")
        ):
            settle(arm, state)

    @pytest.mark.parametrize(
        "bad, message",
        [
            ({"target_deg": {0: math.nan}, "current_deg": {5: 1e17}}, "current_deg joint 5 has magnitude"),
            ({"current_deg": {4: math.nan, 1: -math.inf}}, "current_deg joint 1 is not finite: -inf"),
            ({"current_deg": {3: math.nan, 4: 800.0}}, "current_deg joint 3 is not finite: nan"),
            ({"target_deg": {5: math.nan, 2: 1e17}}, "target_deg joint 2 has magnitude"),
            ({"target_deg": {1: math.nan, 5: math.nan}}, "target_deg joint 1 is not finite: nan"),
            ({"current_deg": {5: math.nan}, "target_deg": {0: math.nan}}, "current_deg joint 5 is not finite: nan"),
        ],
    )
    def test_first_bad_angle_is_named(self, arm, bad, message):
        """With two bad angles, the message names current_deg before
        target_deg, and the lower joint first; a NaN after a finite angle
        is caught as at the front."""
        state = initial_state(arm)
        for field, joints in bad.items():
            angles = list(getattr(state, field))
            for joint, value in joints.items():
                angles[joint] = value
            state = replace(state, **{field: tuple(angles)})
        with pytest.raises(ValueError, match=re.escape(message)):
            settle(arm, state)

    @pytest.mark.parametrize("field", ["current_deg", "target_deg"])
    @pytest.mark.parametrize("count", [0, 5, 7])
    def test_wrong_angle_count_is_named(self, arm, field, count):
        state = replace(initial_state(arm), **{field: (90.0,) * count})
        with pytest.raises(ValueError, match=f"^{field} must hold 6 angles, got {count}$"):
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

    def test_largest_gap_at_the_move_and_one_ulp_either_side(self):
        """3,000 six-joint frames at the one-tick test's boundary: one joint's
        gap exactly ``max_move`` where its target can make it so, or its
        target one ulp either side, moving up or down; each other joint
        moves less, ties it, sits on signed zeros or rests; one frame in ten
        rests on every joint, some on zeros of opposite sign."""
        rng = np.random.default_rng(263)
        exact, by_ticks = 0, [0, 0, 0]
        zeros = (0.0, -0.0)
        for f in range(3000):
            if f % 2:
                config = random_sim_config(rng)
            else:  # with a 1-second tick the clock counts the ticks exactly
                config = SimConfig(rate_limit_deg_s=float(rng.uniform(0.1, 4.0)), tick_s=1.0)
            max_move = config.rate_limit_deg_s * config.tick_s
            # Near zero the target's ulp is finer, so the exact gap is there more often.
            cur = float(rng.uniform(0.0, 1.0) if rng.random() < 0.5 else rng.uniform(-700.0, 700.0 - 2.0 * max_move))
            tgt = cur + max_move
            for _ in range(4):
                if tgt - cur == max_move:
                    break
                tgt = math.nextafter(tgt, math.inf if tgt - cur < max_move else -math.inf)
            exact += tgt - cur == max_move
            tgt = (math.nextafter(tgt, -math.inf), tgt, math.nextafter(tgt, math.inf))[int(rng.integers(3))]
            pairs = [(cur, tgt)]
            for _ in range(5):
                kind = rng.random()
                if kind < 0.3:
                    other = float(rng.uniform(-700.0, 700.0))
                    pairs.append((other, other + float(rng.uniform(-1.0, 1.0)) * max_move))
                elif kind < 0.5:
                    pairs.append(pairs[0])
                elif kind < 0.8:
                    pairs.append((zeros[int(rng.integers(2))], zeros[int(rng.integers(2))]))
                else:
                    rest = float(rng.uniform(-700.0, 700.0))
                    pairs.append((rest, rest))
            if f % 10 == 0:
                pairs = [(c, c) if rng.random() < 0.5 else (zeros[int(rng.integers(2))],) * 2 for c, _ in pairs]
                pairs[0] = (0.0, -0.0)
            flipped = []
            for c, t in pairs:
                if rng.random() < 0.5:
                    c, t = -c, -t
                if rng.random() < 0.5:
                    c, t = t, c
                flipped.append((c, t))
            current, target = zip(*[flipped[j] for j in rng.permutation(6).tolist()])
            got = _tick(current, target, 0.0, config, 0)
            want = naive_tick(current, target, 0.0, config, 0)
            assert float_bits(got) == float_bits(want), (current, target, config)
            by_ticks[min(round(want[1] / config.tick_s), 2)] += 1
        # Measured: 1,133 exact gaps; 300, 1,731 and 969 frames of 0, 1 and 2 ticks.
        assert exact > 500 and min(by_ticks) > 200

    @staticmethod
    def joint_ticks(cur, tgt, move):
        """_tick's count for one joint, the other five at rest on 0.0: with a
        1-second tick the clock counts the ticks exactly."""
        rest = (0.0,) * 5
        angles, elapsed = _tick((cur, *rest), (tgt, *rest), 0.0, SimConfig(rate_limit_deg_s=move, tick_s=1.0), 0)
        assert angles == ((tgt, *rest) if elapsed else (cur, *rest))
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

    def test_frames_match_stepping_around_whole_multiples(self):
        """20,000 six-joint frames against naive_tick.  In each, one joint's
        gap and up to three others', tied to the same whole number of moves
        or to one fewer, sit up to 1.5 of their rounding drifts either side
        of it; each of the rest moves less, repeats the first joint's move,
        or sits on signed zeros."""
        rng = np.random.default_rng(257)
        frames = 20_000
        moves = np.where(rng.random(frames) < 0.5, rng.uniform(1e-3, 0.05, frames), 1e-3 * rng.integers(1, 10, frames))
        counts = rng.integers(2, 16, frames)
        ties = rng.integers(1, 5, frames)
        wholes = counts[:, None] - (rng.random((frames, 6)) < 0.3) * (np.arange(6) > 0)
        starts = rng.uniform(-MAX_SETTLE_ANGLE_DEG, MAX_SETTLE_ANGLE_DEG - counts * moves, (6, frames)).T
        offsets = rng.uniform(-1.5, 1.5, (frames, 6))
        shorter = rng.uniform(0.0, counts[:, None] - 1, (frames, 6))
        kinds = rng.random((frames, 6))
        zeros = np.where(rng.random((frames, 6, 2)) < 0.5, 0.0, -0.0)
        flips = rng.random((frames, 6, 2)) < 0.5
        orders = rng.permuted(np.tile(np.arange(6), (frames, 1)), axis=1)
        stepped_away = 0
        for f, (move, count) in enumerate(zip(moves.tolist(), counts.tolist())):
            pairs = []
            for joint in range(6):
                cur = float(starts[f, joint])
                if joint < ties[f]:
                    tgt = cur + int(wholes[f, joint]) * move
                    tgt += float(offsets[f, joint]) * self.drift(cur, tgt, move) * move
                elif kinds[f, joint] < 0.4:
                    tgt = cur + float(shorter[f, joint]) * move
                elif kinds[f, joint] < 0.6:
                    cur, tgt = pairs[0]
                else:
                    cur, tgt = float(zeros[f, joint, 0]), float(zeros[f, joint, 1])
                if flips[f, joint, 0]:
                    cur, tgt = -cur, -tgt
                if flips[f, joint, 1]:
                    cur, tgt = tgt, cur
                pairs.append((cur, tgt))
            current, target = zip(*[pairs[j] for j in orders[f].tolist()])
            # With a 1-second tick the clock counts the ticks exactly.
            config = SimConfig(rate_limit_deg_s=move, tick_s=1.0)
            got = _tick(current, target, 0.0, config, 0)
            want = naive_tick(current, target, 0.0, config, 0)
            assert float_bits(got) == float_bits(want), (current, target, move)
            stepped_away += want[1] != math.ceil(max(abs(t - c) for c, t in zip(current, target)) / move)
        assert stepped_away > 100

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


    def test_capture_radius_is_inclusive_by_norm(self, arm):
        """An object whose offset from the tool has a _norm of exactly
        CAPTURE_RADIUS_M is captured; one whose offset is one ulp longer is
        not."""
        start = arm.mid_config()
        tool = fk_pose(arm, start)
        close = encode_servo_frames(make_trajectory((start, GRIPPER_CLOSED)))[0]
        past = math.nextafter(CAPTURE_RADIUS_M, math.inf)
        cases = [(p, True) for p in points_at_distance(tool.position, CAPTURE_RADIUS_M, 60)]
        cases += [(p, False) for p in points_at_distance(tool.position, past, 60)]
        for position, attached in cases:
            state = apply_frame(arm, initial_state(arm, object_pose=Pose6D(position, tool.quaternion)), close)
            assert state.attached is attached, position


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

    def test_place_tolerance_is_inclusive_by_norm(self, wide_arm, monkeypatch):
        """The cycle places its object at one final position; a requested
        place whose _norm distance from it is exactly PLACE_TOLERANCE_M
        succeeds, and one a rounding past it fails."""
        import armkit.simulator

        obj, planned = top_down_pose(0.12, 0.05, 0.02), top_down_pose(-0.05, 0.12, 0.02)
        final = run_pick_cycle(wide_arm, obj, planned).final_object_pose.position
        plan = armkit.simulator.plan_pick_place
        monkeypatch.setattr(
            armkit.simulator, "plan_pick_place", lambda model, o, p, **kw: plan(model, o, planned, **kw)
        )
        past = math.nextafter(PLACE_TOLERANCE_M, math.inf)
        cases = [(p, True) for p in points_at_distance(final, PLACE_TOLERANCE_M, 20)]
        cases += [(p, False) for p in points_at_distance(final, past, 20)]
        for place, success in cases:
            report = run_pick_cycle(wide_arm, obj, Pose6D(place, planned.quaternion))
            assert report.final_object_pose.position == final
            assert report.success is success, place

    def test_turning_the_scene_about_the_base_turns_the_cycle(self, wide_arm, monkeypatch):
        """Turning the object, the place point and q1's seed by phi about
        base z turns the whole cycle: the plan's angles agree to rounding,
        the same frames are sent and the object is placed within tolerance.
        q1's seed turns through joint 1's theta offset, so mid_config() and
        the home pose turn with the scene.  The limits do not turn: a pair
        whose q1 meets one is skipped and counted."""
        import armkit.simulator

        plans = []
        plan = armkit.simulator.plan_pick_place
        monkeypatch.setattr(
            armkit.simulator, "plan_pick_place", lambda *args, **kw: plans.append(plan(*args, **kw)) or plans[-1]
        )
        rng = np.random.default_rng(2609)
        lo, hi = wide_arm.limits_deg
        pairs = skipped = failed = 0
        for _ in range(32):
            phi = float(rng.uniform(-180.0, 180.0))
            turn = np.eye(4)
            turn[:3, :3] = euler_zyx_to_matrix(phi, 0.0, 0.0)
            turned_arm = ArmModel(
                (replace(wide_arm.rows[0], theta_offset_deg=phi),) + wide_arm.rows[1:], wide_arm.limits
            )
            r = np.sqrt(rng.uniform(0.06**2, 0.19**2, 2))
            a = rng.uniform(-math.pi, math.pi, 2)
            obj = top_down_pose(r[0] * math.cos(a[0]), r[0] * math.sin(a[0]), 0.02)
            place = top_down_pose(r[1] * math.cos(a[1]), r[1] * math.sin(a[1]), 0.02)
            turned = [matrix_to_pose(turn @ pose_to_matrix(p)) for p in (obj, place)]
            plans.clear()
            try:
                plain = run_pick_cycle(wide_arm, obj, place)
            except NoConvergenceError:
                with pytest.raises(NoConvergenceError):
                    run_pick_cycle(turned_arm, *turned)
                failed += 1
                continue
            report = run_pick_cycle(turned_arm, *turned)
            q1s = [wp.config.angles_deg[0] for p in plans for wp in p.waypoints]
            if any(min(q1 - lo[0], hi[0] - q1) <= 1e-9 for q1 in q1s):
                skipped += 1
                continue
            pairs += 1
            for a_wp, b_wp in zip(*(p.waypoints for p in plans)):
                assert np.allclose(a_wp.config.angles_deg, b_wp.config.angles_deg, rtol=0.0, atol=1e-6)
            assert plain.success and report.success
            assert report.frames_sent == plain.frames_sent
        assert pairs >= 24
        assert skipped + failed <= 8

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
        """The simulator runs forward_kinematics once to capture the
        object and once to release it."""
        import armkit.simulator

        calls = []
        monkeypatch.setattr(armkit.simulator, "forward_kinematics", counting(armkit.simulator.forward_kinematics, calls))
        obj = top_down_pose(0.12, 0.05, 0.02)
        place = top_down_pose(-0.05, 0.12, 0.02)
        assert run_pick_cycle(wide_arm, obj, place).success
        assert len(calls) == 2

    def test_states_built_per_cycle(self, wide_arm, monkeypatch):
        """The frame loop runs on plain floats: a cycle builds its initial
        and final state and one state per gripper change, the capture's or
        the release's."""
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
        assert len(built) == changes + 2

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

    @staticmethod
    def dls_steps(model, monkeypatch):
        """The damped-least-squares steps that planning and running the
        cycle of test_states_built_per_cycle take on ``model``."""
        import armkit.ik_solver

        calls = []
        step = armkit.ik_solver._dls_step

        def counting_step(*args, **kwargs):
            calls.append(args)
            return step(*args, **kwargs)

        monkeypatch.setattr(armkit.ik_solver, "_dls_step", counting_step)
        obj = top_down_pose(0.12, 0.05, 0.02)
        place = top_down_pose(-0.05, 0.12, 0.02)
        assert run_pick_cycle(model, obj, place).success
        monkeypatch.undo()
        return len(calls)

    def test_dls_steps_per_cycle_are_pinned(self, wide_arm, monkeypatch):
        """Every solve of this cycle starts from an exact closed-form
        solution, which the solver's first check accepts: no
        damped-least-squares step (27 when each solve started from the
        previous waypoint's configuration)."""
        assert self.dls_steps(wide_arm, monkeypatch) == 0

    def test_chain_evaluations_per_cycle_are_pinned(self, wide_arm, monkeypatch):
        """The kinematic chains the cycle of test_dls_steps_per_cycle_are_pinned
        evaluates: one per solve in the solver, whose first iterate converges
        with an exact degree round trip, so the converged check reuses its
        chain; and three through forward_kinematics, for the home pose, the
        capture and the release.  A forward_kinematics of each returned
        configuration took five more (5 and 8)."""
        import armkit.ik_solver
        import armkit.kinematics

        calls = {"ik_solver": 0, "kinematics": 0}
        chain = armkit.kinematics._chain

        def counting(module):
            def counted(*args):
                calls[module] += 1
                return chain(*args)

            return counted

        monkeypatch.setattr(armkit.ik_solver, "_chain", counting("ik_solver"))
        monkeypatch.setattr(armkit.kinematics, "_chain", counting("kinematics"))
        assert run_pick_cycle(wide_arm, top_down_pose(0.12, 0.05, 0.02), top_down_pose(-0.05, 0.12, 0.02)).success
        assert calls == {"ik_solver": 5, "kinematics": 3}

    def test_arm_without_closed_form_plans_as_before(self, wide_arm, monkeypatch):
        """Joint 5 offset 2 mm along its axis takes the wide arm out of the
        wrist-partitioned family.  Its solves start from the previous
        configuration: the same 27 steps, and every plan angle pinned from
        before closed-form starts existed."""
        rows = list(wide_arm.rows)
        rows[4] = replace(rows[4], d_m=0.002)
        model = ArmModel(tuple(rows), wide_arm.limits)
        assert model.wrist_links is None
        assert self.dls_steps(model, monkeypatch) == 27
        plan = plan_pick_place(model, top_down_pose(0.12, 0.05, 0.02), top_down_pose(-0.05, 0.12, 0.02))
        angles = tuple(a.hex() for wp in plan.waypoints for a in wp.config.angles_deg)
        assert hashlib.sha256(repr(angles).encode()).hexdigest() == (
            "fa95251c23fc7afc328fefa79db7e95a52ab6c4dc5a49e043882fed814a2f0bc"
        )

    @staticmethod
    def count_row_loop_calls(monkeypatch):
        """Counters, filled as the calls happen, of the row loop's
        functions: _run_frames and, per frame, _frame_target and _tick."""
        import armkit.simulator

        calls = {name: [] for name in ("_run_frames", "_frame_target", "_tick")}
        for name, made in calls.items():
            monkeypatch.setattr(armkit.simulator, name, counting(getattr(armkit.simulator, name), made))
        return calls

    def test_cycle_runs_no_row_loop(self, wide_arm, monkeypatch):
        """The cycle of test_states_built_per_cycle runs its 151 frames as
        one array pass: no _run_frames, _frame_target or _tick call (1, 151
        and 148 when each frame went through the row loop)."""
        calls = self.count_row_loop_calls(monkeypatch)
        report = run_pick_cycle(wide_arm, top_down_pose(0.12, 0.05, 0.02), top_down_pose(-0.05, 0.12, 0.02))
        assert report.success
        assert report.frames_sent == 151
        assert {name: len(made) for name, made in calls.items()} == {"_run_frames": 0, "_frame_target": 0, "_tick": 0}

    def test_multi_tick_frames_run_the_row_loop(self, wide_arm, monkeypatch):
        """At a sixth of the default rate the same cycle's moving frames take
        several ticks each: _run_trajectory hands all 151 frames to the row
        loop, which ticks the 148 that move, with the row loop's bits."""
        obj = top_down_pose(0.12, 0.05, 0.02)
        trajectory = plan_to_trajectory(wide_arm, plan_pick_place(wide_arm, obj, top_down_pose(-0.05, 0.12, 0.02)))
        slow = SimConfig(rate_limit_deg_s=50.0)
        want = _run_frames(wide_arm, initial_state(wide_arm, object_pose=obj), _frame_rows(trajectory), slow)
        calls = self.count_row_loop_calls(monkeypatch)
        got = _run_trajectory(wide_arm, initial_state(wide_arm, object_pose=obj), trajectory, slow)
        assert float_bits(got) == float_bits(want)
        assert got[1] == 151
        assert {name: len(made) for name, made in calls.items()} == {
            "_run_frames": 1, "_frame_target": 151, "_tick": 148
        }

    def test_report_serializes_to_json(self, arm):
        rng = np.random.default_rng(193)
        obj, place = feasible_pair(arm, rng)
        report = run_pick_cycle(arm, obj, place, clearance=0.02)
        doc = json.loads(report.to_json())
        assert doc["success"] is True
        assert doc["frames_sent"] == report.frames_sent
        assert len(doc["final_object_pose"]["position_m"]) == 3


class TestTrajectoryPass:
    """_run_trajectory against the row loop it stands for, _run_frames over
    _frame_rows, on seeded trajectories: the same final state bit for bit
    and frame count, or the same error type and message.  The trajectories
    mix one-tick moves with moves a hair over a tick, pauses, gripper
    changes at and away from the object, knots at the joint limits, and
    starts the pass must hand to the row loop: frames out of sequence,
    multi-tick configs and a clock that overflows."""

    CASES = 2400

    @staticmethod
    def odd_arm(wide_arm):
        """The wide arm with limits that are not whole centidegrees: a knot
        on the low limit rounds 0.4 centidegrees under it, one on the high
        limit 0.4 over it."""
        limits = [JointLimit(lo + 0.004, hi - 0.006) for lo, hi in ((0.0, 120.0), (40.0, 359.0), (0.0, 90.0))] * 2
        return ArmModel(wide_arm.rows, tuple(limits), name="odd-limits")

    @staticmethod
    def start(rng, model):
        """Whole-centidegree joint angles within the limits: mid-range, or
        for some joints up to 3 degrees in from a limit, some on it."""
        lo, hi = np.ceil(100.0 * model.limits_deg) / 100.0, np.floor(100.0 * model.limits_deg) / 100.0
        lo, hi = lo[0], hi[1]
        mid = np.floor(50.0 * (lo + hi) + 0.5) / 100.0
        offset = rng.integers(0, 300, 6) / 100.0 * (rng.random(6) < 0.7)
        edge = np.where(rng.random(6) < 0.5, lo + offset, hi - offset)
        return np.where(rng.random(6) < 0.3, edge, mid)

    @staticmethod
    def trajectory(rng, model, start, step):
        """Knots from ``start``: moves of up to ``step`` degrees per joint,
        clipped to the limits, pauses, gripper changes on zero-motion
        knots, and walks back along the path to ``start``."""
        lo, hi = model.limits_deg
        q, path = start, []
        knots, grippers, closed = [], [], False
        for _ in range(int(rng.integers(1, 30))):
            r = rng.random()
            if r < 0.15:
                closed = not closed
            elif r < 0.25 and path:
                for back in reversed(path[:-1]):
                    knots.append(back)
                    grippers.append(GRIPPER_CLOSED if closed else GRIPPER_OPEN)
                q, path = start, []
            elif r >= 0.35:  # else a pause: the knot repeats the angles
                q = np.clip(q + rng.uniform(-step, step, 6), lo, hi)
                path.append(q)
            knots.append(q)
            grippers.append(GRIPPER_CLOSED if closed else GRIPPER_OPEN)
        return Trajectory(np.array(knots), tuple(grippers))

    @staticmethod
    def start_state(rng, model, obj, start):
        """initial_state with the object at the tool, parked at ``start``;
        now and then a last frame applied, a random sign on each joint at
        zero, a clock near the float maximum, the joints as a list, or the
        gripper closed or at a value of neither state."""
        state = replace(initial_state(model, object_pose=obj), current_deg=tuple(start.tolist()))
        r = rng.random()
        if r < 0.1:
            state = replace(state, last_seq=int(rng.integers(0, 3)))
        elif r < 0.4:
            signs = rng.choice([-1.0, 1.0], 6)
            state = replace(state, current_deg=tuple(a or math.copysign(0.0, s) for a, s in zip(start.tolist(), signs)))
        elif r < 0.5:
            state = replace(state, elapsed_s=sys.float_info.max - float(rng.integers(0, 40)) * 1e306)
        elif r < 0.55:
            state = replace(state, current_deg=list(state.current_deg))  # never equal to a frame's tuple
        elif r < 0.65:
            state = replace(state, gripper=(GRIPPER_CLOSED, "ajar")[int(rng.integers(2))])
        return state

    def test_pass_matches_the_row_loop(self, arm, wide_arm, monkeypatch):
        import armkit.simulator

        handed = []
        monkeypatch.setattr(armkit.simulator, "_run_frames", counting(_run_frames, handed))
        events = []

        def watched_next_state(model, state, current, target, elapsed, last_seq, gripper, moved):
            built = _next_state(model, state, current, target, elapsed, last_seq, gripper, moved)
            events.append((gripper != state.gripper, gripper, state.attached, built.attached))
            return built

        monkeypatch.setattr(armkit.simulator, "_next_state", watched_next_state)
        rng = np.random.default_rng(2828)
        models = [arm, wide_arm, self.odd_arm(wide_arm)]
        tallies = dict.fromkeys(
            ("capture", "missed", "release", "regrasp", "no change", "outside [", "overflows", "signed zeros"), 0
        )
        for case in range(self.CASES):
            model = models[case % 3]
            start = self.start(rng, model)
            obj = fk_pose(model, JointConfig(tuple(start.tolist())))
            trajectory = self.trajectory(rng, model, start, float(rng.choice([1.0, 2.0, 3.0, 3.0, 3.01, 5.0])))
            state = self.start_state(rng, model, obj, start)
            config = SimConfig()
            r = rng.random()
            if state.elapsed_s > 1e308:
                config = SimConfig(rate_limit_deg_s=3e-306, tick_s=1e306)
            elif r < 0.15:
                config = SimConfig(rate_limit_deg_s=50.0)
            elif r < 0.3:
                config = random_sim_config(rng)
            events.clear()
            want = outcome(_run_frames, model, state, _frame_rows(trajectory), config)
            seen = list(events)
            fallbacks = len(handed)
            got = outcome(_run_trajectory, model, state, trajectory, config)
            assert float_bits(got) == float_bits(want), case
            if len(handed) > fallbacks:  # the errors, and the starts the pass hands on
                if type(want[0]) is type:
                    for kind in ("outside [", "overflows"):
                        tallies[kind] += kind in want[1]
                continue
            captures = sum(changed and gripper == GRIPPER_CLOSED and after for changed, gripper, _, after in seen)
            tallies["capture"] += captures > 0
            tallies["regrasp"] += captures > 1
            tallies["missed"] += any(c and g == GRIPPER_CLOSED and not after for c, g, _, after in seen)
            tallies["release"] += any(c and g == GRIPPER_OPEN and before for c, g, before, _ in seen)
            tallies["no change"] += not any(c for c, *_ in seen)
            tallies["signed zeros"] += any(math.copysign(1.0, a) < 0.0 for a in state.current_deg)
        passes = self.CASES - len(handed)
        assert passes >= 200 and len(handed) >= 200, (passes, len(handed))
        assert min(tallies.values()) >= 20, tallies


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
