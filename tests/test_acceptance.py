"""Acceptance suite: one test per release criterion, each printing a PASS line
with its measured runtime.  Run with ``pytest tests/test_acceptance.py -v -s``.

Criteria 2 and 8 share their batch runners with criterion 9, which re-executes
them on identical inputs and demands bit-identical outputs.
"""
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from armkit import (
    GrayImage,
    IkSettings,
    JointConfig,
    NoConvergenceError,
    Pose6D,
    UnreachableError,
    apply_frame,
    check_limits,
    clamp_to_limits,
    default_arm,
    dh_transform,
    encode_servo_frames,
    estimate_homography,
    forward_kinematics,
    geometric_jacobian,
    initial_state,
    largest_blob,
    matrix_to_pose,
    parse_frame,
    parse_pgm,
    pgm_bytes,
    pixel_to_world,
    plan_pick_place,
    pose_to_matrix,
    run_pick_cycle,
    solve_ik,
    subtract_images,
)
from armkit.kinematics import quat_to_matrix
from armkit.planner import GRIPPER_CLOSED, GRIPPER_OPEN

from conftest import make_arm, make_trajectory, random_arm, random_config
from naive_oracle import naive_fk, numeric_jacobian

DEFAULT_ARM = default_arm()
ROUNDTRIP_TRIALS = 1000
PICK_PAIRS = 50
PICK_CLEARANCE = 0.02
PAIR_FILTER_SETTINGS = IkSettings(restarts=2, max_iterations=120)
# The benchmark's copy of criterion 2's full-pose restart indexes, -1 where
# the solve fails; perfbench/acceptance_ref.py writes it from _roundtrip_batch.
ROUNDTRIP_REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "roundtrip_2025.json"

_memo: dict = {}


def _report(number: int, text: str, elapsed: float) -> None:
    print(f"ACCEPTANCE {number} PASS - {text} ({elapsed:.1f}s)")


def _roundtrip_batch():
    """Criterion 2 workload: solve 1000 FK-generated targets from the mid seed."""
    rng = np.random.default_rng(2025)
    seed = DEFAULT_ARM.mid_config()
    lo, hi = DEFAULT_ARM.limits_deg
    outcomes = []
    for _ in range(ROUNDTRIP_TRIALS):
        q_true = JointConfig(tuple(rng.uniform(lo, hi)))
        target = matrix_to_pose(forward_kinematics(DEFAULT_ARM, q_true))
        try:
            result = solve_ik(DEFAULT_ARM, target, seed)
        except NoConvergenceError as exc:
            outcomes.append(("fail", exc.best_position_error, exc.best_orientation_error))
            continue
        outcomes.append(
            (
                "ok",
                result.solution.angles_deg,
                result.iterations,
                result.final_position_error,
                result.final_orientation_error,
                result.restart_index,
            )
        )
    return outcomes


def _pick_pairs():
    """Deterministic reachable object/place pairs on the default arm, found by
    rejection sampling FK poses against plan feasibility."""
    rng = np.random.default_rng(8088)
    lo, hi = DEFAULT_ARM.limits_deg
    pairs = []
    while len(pairs) < PICK_PAIRS:
        obj = matrix_to_pose(forward_kinematics(DEFAULT_ARM, JointConfig(tuple(rng.uniform(lo, hi)))))
        place = matrix_to_pose(forward_kinematics(DEFAULT_ARM, JointConfig(tuple(rng.uniform(lo, hi)))))
        try:
            plan_pick_place(
                DEFAULT_ARM, obj, place, clearance=PICK_CLEARANCE, ik_settings=PAIR_FILTER_SETTINGS
            )
        except (UnreachableError, NoConvergenceError):
            continue
        pairs.append((obj, place))
    return pairs


def _pick_batch(pairs):
    """Criterion 8 workload: execute one simulated cycle per pair."""
    results = []
    for obj, place in pairs:
        try:
            report = run_pick_cycle(DEFAULT_ARM, obj, place, clearance=PICK_CLEARANCE)
            results.append(("report", report))
        except (UnreachableError, NoConvergenceError) as exc:
            results.append(("planner-error", str(exc)))
    return results


def test_criterion_1_fk_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    checked = 0
    for _ in range(10):
        model = random_arm(rng)
        dh_rows = [(r.theta_offset_deg, r.alpha_deg, r.a_m, r.d_m) for r in model.rows]
        for _ in range(100):
            q = random_config(rng, model)
            T = forward_kinematics(model, q)
            expected = np.array(naive_fk(dh_rows, q.angles_deg))
            assert np.max(np.abs(T - expected)) <= 1e-12
            checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 1000
    assert elapsed < 5.0
    _report(1, "forward kinematics matches the independent naive-product oracle on 1000 configs x 10 geometries at 1e-12", elapsed)


def test_criterion_2_fk_ik_round_trip():
    start = time.perf_counter()
    outcomes = _roundtrip_batch()
    elapsed = time.perf_counter() - start
    _memo["roundtrip"] = outcomes
    successes = [o for o in outcomes if o[0] == "ok"]
    rate = len(successes) / len(outcomes)
    assert rate >= 0.99, f"solve rate {rate:.3f} below 0.99"
    for o in successes:
        assert o[3] <= 1e-4
        assert o[4] <= 1e-3
    assert elapsed < 30.0
    _report(2, f"IK recovered {len(successes)}/{len(outcomes)} FK targets within 1e-4 m / 1e-3 rad", elapsed)


def test_criterion_2_restart_indexes_match_the_benchmark_reference():
    """The ik_cold workload checks each solve against this file, so a solver
    change that moves any of the 1000 restart indexes must rewrite it."""
    outcomes = _memo.get("roundtrip") or _roundtrip_batch()
    indexes = [o[5] if o[0] == "ok" else -1 for o in outcomes]
    assert indexes == json.loads(ROUNDTRIP_REFERENCE.read_text())


def test_criterion_3_jacobian_cross_check():
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    for _ in range(100):
        q = random_config(rng, DEFAULT_ARM)
        Jn = numeric_jacobian(DEFAULT_ARM, q)
        Jg = geometric_jacobian(DEFAULT_ARM, q)
        assert np.linalg.norm(Jn - Jg) / np.linalg.norm(Jg) <= 1e-5
    elapsed = time.perf_counter() - start
    _report(3, "finite-difference Jacobian matches the analytic geometric Jacobian within 1e-5 on 100 configs", elapsed)


def test_criterion_4_limit_clamping():
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    for _ in range(10_000):
        q = JointConfig(tuple(rng.uniform(-720.0, 1080.0, 6)))
        clamped = clamp_to_limits(DEFAULT_ARM, q)
        assert check_limits(DEFAULT_ARM, clamped) == []
        assert clamp_to_limits(DEFAULT_ARM, clamped) == clamped
    mins = JointConfig(tuple(l.min_deg for l in DEFAULT_ARM.limits))
    maxs = JointConfig(tuple(l.max_deg for l in DEFAULT_ARM.limits))
    assert mins.angles_deg == (0.0, 90.0, 0.0, 90.0, 0.0, 0.0)
    assert maxs.angles_deg == (180.0, 180.0, 90.0, 180.0, 180.0, 90.0)
    assert check_limits(DEFAULT_ARM, mins) == []
    assert check_limits(DEFAULT_ARM, maxs) == []
    assert clamp_to_limits(DEFAULT_ARM, mins) == mins
    assert clamp_to_limits(DEFAULT_ARM, maxs) == maxs
    elapsed = time.perf_counter() - start
    _report(4, "clamping of 10000 random configs is valid and idempotent; stock boundaries are inclusive", elapsed)


def test_criterion_5_rotation_hygiene():
    start = time.perf_counter()
    rng = np.random.default_rng(505)

    def check(T):
        R = T[:3, :3]
        assert np.max(np.abs(R.T @ R - np.eye(3))) <= 1e-9
        assert 1.0 - 1e-9 <= float(np.linalg.det(R)) <= 1.0 + 1e-9
        assert np.array_equal(T[3], np.array([0.0, 0.0, 0.0, 1.0]))

    for _ in range(200):
        model = random_arm(rng)
        check(forward_kinematics(model, random_config(rng, model)))
        for row in model.rows:
            check(dh_transform(row, float(rng.uniform(-2 * math.pi, 2 * math.pi))))
        q = rng.normal(size=4)
        pose = Pose6D(tuple(rng.uniform(-1, 1, 3)), tuple(q / np.linalg.norm(q)))
        check(pose_to_matrix(pose))
    elapsed = time.perf_counter() - start
    _report(5, "every produced transform keeps an orthonormal, det=+1 rotation block within 1e-9", elapsed)


def test_criterion_6_vision_fixtures():
    start = time.perf_counter()
    rng = np.random.default_rng(606)
    for _ in range(50):
        height = int(rng.integers(24, 96))
        width = int(rng.integers(24, 96))
        r0 = int(rng.integers(0, height - 12))
        c0 = int(rng.integers(0, width - 12))
        rh = int(rng.integers(2, 12))
        cw = int(rng.integers(2, 12))
        px = np.zeros((height, width), dtype=np.uint8)
        px[r0 : r0 + rh, c0 : c0 + cw] = 200
        # travel through the PGM encoding, as real fixtures do
        frame = parse_pgm(pgm_bytes(GrayImage.from_array(px)))
        background = parse_pgm(pgm_bytes(GrayImage.from_array(np.zeros_like(px))))
        mask = subtract_images(background, frame, 50)
        assert mask.count() == rh * cw
        blob = largest_blob(mask, 1)
        expected_centroid = (c0 + (cw - 1) / 2.0, r0 + (rh - 1) / 2.0)
        assert abs(blob.pixel_centroid[0] - expected_centroid[0]) <= 1e-9
        assert abs(blob.pixel_centroid[1] - expected_centroid[1]) <= 1e-9
        assert blob.area == rh * cw
    for _ in range(50):
        H_true = np.eye(3) + rng.uniform(-0.25, 0.25, (3, 3))
        H_true[2, 2] = 1.0
        if abs(np.linalg.det(H_true)) < 1e-3:
            continue
        pixel_pts = rng.uniform(0.0, 640.0, (8, 2))
        hom = (H_true @ np.column_stack([pixel_pts, np.ones(8)]).T).T
        world_pts = hom[:, :2] / hom[:, 2:3]
        h = estimate_homography(pixel_pts, world_pts)
        for p, w in zip(pixel_pts, world_pts):
            assert np.linalg.norm(pixel_to_world(h, p, 0.0)[:2] - w) <= 1e-6
    elapsed = time.perf_counter() - start
    _report(6, "PGM blob centroids exact to 1e-9 px, mask counts exact, calibration reprojects within 1e-6 m", elapsed)


def test_criterion_7_wire_grammar_round_trip():
    start = time.perf_counter()
    rng = np.random.default_rng(707)
    lo, hi = DEFAULT_ARM.limits_deg
    for _ in range(1000):
        knots = [
            (
                JointConfig(tuple(rng.uniform(lo, hi))),
                GRIPPER_CLOSED if rng.integers(0, 2) else GRIPPER_OPEN,
            )
            for _ in range(int(rng.integers(1, 5)))
        ]
        frames = encode_servo_frames(make_trajectory(*knots))
        state = initial_state(DEFAULT_ARM)
        for frame, (config, _) in zip(frames, knots):
            decoded = parse_frame(frame.encode())
            assert decoded == frame
            state = apply_frame(DEFAULT_ARM, state, decoded)
            expected = tuple(c / 100.0 for c in frame.centidegrees)
            assert state.target_deg == expected
            for target, angle in zip(state.target_deg, config.angles_deg):
                assert target == math.floor(angle * 100.0 + 0.5) / 100.0
    elapsed = time.perf_counter() - start
    _report(7, "encode -> parse -> apply recovered 1000 random trajectories bit-exactly at centidegree resolution", elapsed)


def test_criterion_8_end_to_end_pick_cycles():
    start = time.perf_counter()
    pairs = _pick_pairs()
    _memo["pairs"] = pairs
    results = _pick_batch(pairs)
    elapsed = time.perf_counter() - start
    _memo["pick"] = results
    successes = 0
    for (obj, place), (kind, payload) in zip(pairs, results):
        if kind == "planner-error":
            continue  # a reported failure, acceptable below the 95% line
        report = payload
        if report.success:
            successes += 1
            err = np.linalg.norm(
                np.array(report.final_object_pose.position) - np.array(place.position)
            )
            assert err <= 0.002, "a cycle reported success outside the 2 mm tolerance"
    assert successes >= math.ceil(0.95 * PICK_PAIRS), f"only {successes}/{PICK_PAIRS} cycles succeeded"
    assert elapsed < 60.0
    _report(8, f"{successes}/{PICK_PAIRS} simulated cycles placed the object within 2 mm", elapsed)


def test_criterion_9_determinism():
    start = time.perf_counter()
    first_roundtrip = _memo.get("roundtrip") or _roundtrip_batch()
    second_roundtrip = _roundtrip_batch()
    assert second_roundtrip == first_roundtrip
    pairs = _memo.get("pairs") or _pick_pairs()
    first_pick = _memo.get("pick") or _pick_batch(pairs)
    second_pick = _pick_batch(pairs)
    assert second_pick == first_pick
    elapsed = time.perf_counter() - start
    _report(9, "criteria 2 and 8 reruns are bit-identical", elapsed)
