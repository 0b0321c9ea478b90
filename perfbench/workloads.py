"""The benchmark's workloads: inputs made from a seed, the op that calls the
program, and the check of every op's output.

Each workload is one caller in one thread, in a closed loop: the next op
starts when the previous one has returned.  A workload has ``inputs``
distinct inputs, which a run cycles through in passes.  ``prepare(k)`` makes
input k from the seed alone, so it is the same in every pass of a run and in
every run of that seed.  ``execute`` is the timed part.  ``verify`` checks
the output against the generated ground truth and returns the op's
deterministic record, which every repeat of the input must reproduce.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import armkit.dh_model as dh_model
import armkit.ik_solver as ik_solver
import armkit.kinematics as kinematics
import armkit.planner as planner
import armkit.simulator as simulator
import armkit.vision as vision

DATA = Path(__file__).resolve().parent / "data"
ARM_CONFIG = DATA / "wide_arm.json"
CALIBRATION = DATA / "calibration.json"
# Full-pose restart indexes of the acceptance suite's criterion-2 batch
# (seed 2025), -1 where the solve fails; written by acceptance_ref.py.
ROUNDTRIP_REFERENCE = DATA / "roundtrip_2025.json"

# Errors the program documents for inputs it cannot serve; an op that raises
# one has failed, but its output is not wrong.
PLANNING_ERRORS = (ik_solver.UnreachableError, ik_solver.NoConvergenceError)


@dataclass(frozen=True)
class Outcome:
    success: bool
    wrong: str | None
    record: tuple


class Env:
    """What every run sets up before its workload: the wide-limit arm from
    its configuration document and the camera calibration.  run.py times
    exactly these steps, in fresh interpreters, as setup_s."""

    def __init__(self) -> None:
        self.arm = dh_model.load_arm_config(ARM_CONFIG.read_text(encoding="utf-8"))
        pixel_pts, world_pts = vision.load_calibration(CALIBRATION.read_text(encoding="utf-8"))
        self.homography = vision.estimate_homography(pixel_pts, world_pts)
        self.pixel_pts, self.world_pts = pixel_pts, world_pts


def reference_homography(pixel_pts: np.ndarray, world_pts: np.ndarray) -> np.ndarray:
    """Exact pixel -> world map through the first four calibration points.

    The calibration file was generated from this map, so it is the ground
    truth the program's least-squares fit is checked against."""
    rows, rhs = [], []
    for (x, y), (u, v) in zip(pixel_pts[:4], world_pts[:4]):
        rows.append([x, y, 1.0, 0.0, 0.0, 0.0, -u * x, -u * y])
        rows.append([0.0, 0.0, 0.0, x, y, 1.0, -v * x, -v * y])
        rhs += [u, v]
    return np.append(np.linalg.solve(np.array(rows), np.array(rhs)), 1.0).reshape(3, 3)


def _apply(H: np.ndarray, x: float, y: float) -> tuple[float, float]:
    v = H @ np.array([x, y, 1.0])
    return float(v[0] / v[2]), float(v[1] / v[2])


class PickTable:
    """``armkit pick`` in process: parse_pgm -> detect_object ->
    top_down_pose -> run_pick_cycle on a 640x480 frame.

    The object and place points are a fixed table layout: candidate pairs
    drawn with objects uniform over the annulus that the wide arm reaches
    top-down, place points on that annulus within ``PLACE_TURN_DEG`` of the
    object's azimuth and object sizes uniform over ``DIAMETER_PX``, of which
    ``data/pick_layout.json`` keeps the first ``inputs`` whose cycle stays
    on the IK seed path (``make_layout.py``).  A cycle that restarts costs
    some twenty times one that does not, and its numpy-heavy solves slow by
    a quarter whenever the machine does, which left throughput and tail
    spreading by 0.25-0.31 between runs; the restart path is measured by
    ik_cold instead.  The seed draws the background texture and the
    speckle."""

    name = "pick_table"
    default_seed = 8088
    tail_percentile = 85.0
    warmup_ops = 2
    inputs = 64
    LAYOUT_SEED = 8088
    LAYOUT = DATA / "pick_layout.json"
    R_MIN_M, R_MAX_M = 0.06, 0.19
    PLACE_TURN_DEG = 135.0
    WIDTH, HEIGHT = 640, 480
    DIAMETER_PX = (30.0, 120.0)
    SPECKLES = 150
    THRESHOLD = 40.0
    MIN_AREA = 100
    CONTRAST = 70
    TABLE_Z_M = 0.02

    def __init__(self, env: Env, seed: int, layout: list[tuple] | None = None) -> None:
        self.arm = env.arm
        self.homography = env.homography
        self.seed = seed
        self.to_world = reference_homography(env.pixel_pts, env.world_pts)
        self.to_pixel = np.linalg.inv(self.to_world)
        if layout is None:
            chosen = json.loads(self.LAYOUT.read_text(encoding="utf-8"))
            candidates = self.candidates(chosen["candidates"])
            if len(chosen["kept"]) < self.inputs:
                raise ValueError(f"{self.LAYOUT.name} keeps {len(chosen['kept'])} pairs, fewer than {self.inputs}")
            layout = [candidates[k] for k in chosen["kept"][: self.inputs]]
        self.layout = layout
        rng = np.random.default_rng([seed, 0])
        rows = np.linspace(0.0, 1.0, self.HEIGHT)[:, None]
        cols = np.linspace(0.0, 1.0, self.WIDTH)[None, :]
        shade = 90.0 + 50.0 * rows + 30.0 * cols + rng.integers(-12, 13, (self.HEIGHT, self.WIDTH))
        self.background_px = np.clip(shade, 0, 255).astype(np.uint8)
        self.background = vision.parse_pgm(self._pgm(self.background_px))

    @classmethod
    def candidates(cls, count: int) -> list[tuple]:
        """``count`` candidate (object xy, place xyz, diameter px) triples."""
        rng = np.random.default_rng(cls.LAYOUT_SEED)
        r = np.sqrt(rng.uniform(cls.R_MIN_M**2, cls.R_MAX_M**2, (count, 2)))
        a = rng.uniform(-math.pi, math.pi, count)
        b = a + np.radians(rng.uniform(-cls.PLACE_TURN_DEG, cls.PLACE_TURN_DEG, count))
        diameters = rng.uniform(*cls.DIAMETER_PX, count)
        return [
            ((r[k, 0] * math.cos(a[k]), r[k, 0] * math.sin(a[k])),
             (r[k, 1] * math.cos(b[k]), r[k, 1] * math.sin(b[k]), cls.TABLE_Z_M),
             float(diameters[k]))
            for k in range(count)
        ]

    def _pgm(self, px: np.ndarray) -> bytes:
        return f"P5\n{self.WIDTH} {self.HEIGHT}\n255\n".encode("ascii") + px.tobytes()

    def _mark(self, px: np.ndarray, rows, cols) -> None:
        bg = self.background_px[rows, cols].astype(np.int16)
        px[rows, cols] = np.where(bg < 128, bg + self.CONTRAST, bg - self.CONTRAST)

    def prepare(self, k: int):
        (ox, oy), place, diameter = self.layout[k]
        rng = np.random.default_rng([self.seed, 1, k])
        # A disc centred on a whole pixel has its centroid exactly there, so
        # the detected point, and with it the planning input, does not move
        # with the drawn size: a sub-millimetre shift changes how long the
        # solver's restarts take.
        cx, cy = (float(round(v)) for v in _apply(self.to_pixel, ox, oy))
        fit = min(cx, self.WIDTH - 1 - cx, cy, self.HEIGHT - 1 - cy) - 1.0
        radius = min(diameter / 2.0, fit)
        r0, r1 = math.ceil(cy - radius), math.floor(cy + radius)
        c0, c1 = math.ceil(cx - radius), math.floor(cx + radius)
        rr, cc = np.mgrid[r0 : r1 + 1, c0 : c1 + 1]
        inside = (cc - cx) ** 2 + (rr - cy) ** 2 <= radius**2
        rows, cols = rr[inside], cc[inside]
        px = self.background_px.copy()
        self._mark(px, rows, cols)
        sr = rng.integers(0, self.HEIGHT, self.SPECKLES)
        sc = rng.integers(0, self.WIDTH, self.SPECKLES)
        # Speckle stays clear of the object so it cannot join its component.
        clear = (sc - cx) ** 2 + (sr - cy) ** 2 > (radius + 3.0) ** 2
        self._mark(px, sr[clear], sc[clear])
        area = int(rows.size)
        centroid = (int(cols.sum()) / area, int(rows.sum()) / area)
        return self._pgm(px), place, area, centroid

    def execute(self, inp):
        pgm, place, _, _ = inp
        frame = vision.parse_pgm(pgm)
        detection = vision.detect_object(
            self.background,
            frame,
            self.homography,
            threshold=self.THRESHOLD,
            min_area=self.MIN_AREA,
            table_height=self.TABLE_Z_M,
        )
        if detection is None:
            return None
        report = simulator.run_pick_cycle(
            self.arm, planner.top_down_pose(*detection.world_point), planner.top_down_pose(*place)
        )
        return detection, report

    def verify(self, inp, result) -> Outcome:
        _, place, area, centroid = inp
        if isinstance(result, PLANNING_ERRORS):
            return Outcome(False, None, ("planning-error", type(result).__name__))
        if isinstance(result, Exception):
            return Outcome(False, f"raised {result!r}", ("error",))
        if result is None:
            return Outcome(False, "no detection", ("none",))
        detection, report = result
        record = (
            detection.area,
            detection.pixel_centroid,
            report.frames_sent,
            report.sim_time_s,
            None if report.final_object_pose is None else report.final_object_pose.position,
        )
        if detection.area != area or max(
            abs(a - b) for a, b in zip(detection.pixel_centroid, centroid)
        ) > 1e-9:
            return Outcome(False, f"detected {detection.pixel_centroid}/{detection.area}, drawn {centroid}/{area}", record)
        wx, wy = _apply(self.to_world, *centroid)
        if math.hypot(detection.world_point[0] - wx, detection.world_point[1] - wy) > 1e-6:
            return Outcome(False, f"world point {detection.world_point} off ({wx}, {wy})", record)
        final = report.final_object_pose
        placed = final is not None and math.dist(final.position, place) <= simulator.PLACE_TOLERANCE_M
        if placed != report.success:
            return Outcome(False, f"report success={report.success} but placed={placed}", record)
        return Outcome(placed, None, record)


class SimReplay:
    """Recorded wire streams through parse_frame -> apply_frame -> settle,
    with an object captured at one knot and released at a later one.  Every
    second stream is also run through replay_frames, which is ``armkit sim``.

    The streams are made here from the seed, not by the planner, so a planner
    change cannot alter this workload's input.  Each frame's largest joint
    move is drawn so that it takes 1 to 40 ticks at the stream's rate and
    tick.  Stream lengths are evenly spaced over a factor of three and dealt
    out by the seed: the costs of streams with and without the replay
    overlap, so the median is not the edge of one of two clusters, and every
    seed gets the same mix of lengths."""

    name = "sim_replay"
    default_seed = 8088
    tail_percentile = 86.0
    warmup_ops = 4
    inputs = 70
    FRAMES = (24, 72)
    TICKS_PER_FRAME = (1, 40)
    RATE_DEG_S = (30.0, 120.0)
    TICK_S = (0.0005, 0.002)
    ANGLE_RANGE_CENTIDEG = (1000, 34900)

    def __init__(self, env: Env, seed: int) -> None:
        self.arm = env.arm
        self.seed = seed
        lengths = np.rint(np.linspace(*self.FRAMES, self.inputs)).astype(int)
        self.lengths = np.random.default_rng([seed, 0]).permutation(lengths)

    def prepare(self, k: int):
        rng = np.random.default_rng([self.seed, 2, k])
        config = simulator.SimConfig(
            rate_limit_deg_s=float(rng.uniform(*self.RATE_DEG_S)), tick_s=float(rng.uniform(*self.TICK_S))
        )
        max_move_centideg = 100.0 * config.rate_limit_deg_s * config.tick_s
        lo, hi = self.ANGLE_RANGE_CENTIDEG
        q = np.array([round(a * 100) for a in self.arm.mid_config().angles_deg], dtype=np.int64)
        frames = int(self.lengths[k])
        capture, release = frames // 4, 3 * frames // 4
        lines, knots = [], []
        closed = False
        for k in range(frames):
            if k in (capture, release):
                closed = k == capture
            else:
                ticks = int(rng.integers(self.TICKS_PER_FRAME[0], self.TICKS_PER_FRAME[1] + 1))
                step = rng.uniform(-1.0, 1.0, 6)
                step *= (ticks - 0.5) * max_move_centideg / np.max(np.abs(step))
                move = np.rint(step).astype(np.int64)
                move[(q + move < lo) | (q + move > hi)] *= -1
                q = q + move
            knots.append(tuple(int(v) for v in q))
            lines.append(f"F {k} {' '.join(str(int(v)) for v in q)} G {1 if closed else 0}\n")
        grasp_T = kinematics.forward_kinematics(self.arm, dh_model.JointConfig(tuple(c / 100.0 for c in knots[capture])))
        release_T = kinematics.forward_kinematics(self.arm, dh_model.JointConfig(tuple(c / 100.0 for c in knots[release])))
        obj = kinematics.matrix_to_pose(grasp_T)
        expected = release_T @ np.linalg.inv(grasp_T) @ kinematics.pose_to_matrix(obj)
        return "".join(lines), frames, config, obj, expected, k % 2 == 1

    def execute(self, inp):
        text, _, config, obj, _, replay = inp
        state = simulator.initial_state(self.arm, object_pose=obj)
        for line in text.splitlines():
            state = simulator.apply_frame(self.arm, state, simulator.parse_frame(line), config)
            state = simulator.settle(self.arm, state, config)
        report = simulator.replay_frames(self.arm, text, config) if replay else None
        return state, report

    def verify(self, inp, result) -> Outcome:
        _, frames, config, _, expected, replay = inp
        if isinstance(result, Exception):
            return Outcome(False, f"raised {result!r}", ("error",))
        state, report = result
        ticks = round(state.elapsed_s / config.tick_s)
        final = kinematics.pose_to_matrix(state.object_pose)
        record = (ticks, state.elapsed_s, state.object_pose.position, None if report is None else report.sim_time_s)
        if state.attached or state.last_seq != frames - 1:
            return Outcome(False, f"stream ended attached={state.attached} seq={state.last_seq}", record)
        if np.max(np.abs(final - expected)) > 1e-9:
            return Outcome(False, f"object ended {final[:3, 3]}, FK at release gives {expected[:3, 3]}", record)
        if replay and (report.frames_sent != frames or report.sim_time_s != state.elapsed_s):
            return Outcome(False, f"replay_frames gave {report.frames_sent} frames / {report.sim_time_s} s", record)
        return Outcome(True, None, record)


class IkCold:
    """The acceptance criterion-2 distribution: FK of configurations drawn
    uniformly within the stock limits of default_arm(), each solved from
    mid_config() as a full pose (even inputs) and as a position (odd
    inputs): the first 300 targets of the seed's stream.

    Not listed in BENCHMARK.json: about 1.3% of its solves leave the seed path
    and take some 60% of its time, so its throughput differs by ~14% (IQR
    over median) between seeds at any run length the benchmark can afford.
    It is the only workload that exercises the solver's failure path; run it
    by name for IK work."""

    name = "ik_cold"
    default_seed = 2025
    tail_percentile = 98.4
    warmup_ops = 20
    inputs = 600
    POSITION_TOLERANCE = ik_solver.IkSettings().position_tolerance
    ORIENTATION_TOLERANCE = ik_solver.IkSettings().orientation_tolerance

    def __init__(self, env: Env, seed: int) -> None:
        self.arm = dh_model.default_arm()
        self.start = self.arm.mid_config()
        self.lo, self.hi = self.arm.limits_deg
        self._rng = np.random.default_rng(seed)
        self._targets: list = []
        self.reference = json.loads(ROUNDTRIP_REFERENCE.read_text()) if seed == 2025 else []

    def configs(self, count: int) -> list:
        """The first ``count`` target configurations, drawn in the order the
        acceptance suite draws them."""
        while len(self._targets) < count:
            q = dh_model.JointConfig(tuple(self._rng.uniform(self.lo, self.hi)))
            self._targets.append((q, kinematics.matrix_to_pose(kinematics.forward_kinematics(self.arm, q))))
        return [q for q, _ in self._targets[:count]]

    def prepare(self, k: int):
        self.configs(k // 2 + 1)
        return k // 2, k % 2 == 1, self._targets[k // 2][1]

    def execute(self, inp):
        _, position_only, pose = inp
        if position_only:
            return ik_solver.solve_ik_position_only(self.arm, pose.position, self.start)
        return ik_solver.solve_ik(self.arm, pose, self.start)

    def verify(self, inp, result) -> Outcome:
        index, position_only, pose = inp
        if isinstance(result, ik_solver.NoConvergenceError):
            record = (position_only, -1, 0)
        elif isinstance(result, Exception):
            return Outcome(False, f"raised {result!r}", ("error",))
        else:
            record = (position_only, result.restart_index, result.iterations)
        if not position_only and index < len(self.reference) and record[1] != self.reference[index]:
            return Outcome(False, f"target {index}: restart index {record[1]}, acceptance batch has {self.reference[index]}", record)
        if record[1] < 0:
            return Outcome(False, None, record)
        q = result.solution
        if dh_model.check_limits(self.arm, q):
            return Outcome(False, f"target {index}: solution outside the limits", record)
        T = kinematics.forward_kinematics(self.arm, q)
        target = kinematics.pose_to_matrix(pose)
        pos_err = float(np.linalg.norm(T[:3, 3] - target[:3, 3]))
        cos_angle = (np.trace(T[:3, :3] @ target[:3, :3].T) - 1.0) / 2.0
        ori_err = 0.0 if position_only else math.acos(min(1.0, max(-1.0, cos_angle)))
        if pos_err > self.POSITION_TOLERANCE or ori_err > self.ORIENTATION_TOLERANCE + 1e-7:
            return Outcome(False, f"target {index}: residual {pos_err:.3g} m / {ori_err:.3g} rad", record)
        if abs(pos_err - result.final_position_error) > 1e-12:
            return Outcome(False, f"target {index}: reported {result.final_position_error}, FK gives {pos_err}", record)
        return Outcome(True, None, record)


# Default seeds are the acceptance suite's: criterion 2 (IK round trip, 2025)
# and criterion 8 (pick cycles, 8088).
WORKLOADS = {w.name: w for w in (PickTable, SimReplay, IkCold)}
