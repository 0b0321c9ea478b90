import hashlib
import math

import numpy as np
import pytest

from armkit import (
    IkResult,
    IkSettings,
    JointConfig,
    NoConvergenceError,
    UnreachableError,
    check_limits,
    forward_kinematics,
    matrix_to_pose,
    pose_error,
    pose_to_matrix,
    solve_ik,
    solve_ik_position_only,
)
from armkit.ik_solver import _dls_step
from armkit.kinematics import euler_zyx_to_matrix

from conftest import random_config


def fk_pose(model, q):
    return matrix_to_pose(forward_kinematics(model, q))


class TestPoseError:
    def test_identical_transforms_give_zero(self):
        T = np.eye(4)
        assert np.array_equal(pose_error(T, T), np.zeros(6))

    def test_pure_translation(self):
        T = np.eye(4)
        T2 = np.eye(4)
        T2[:3, 3] = [0.1, 0.0, 0.0]
        assert np.allclose(pose_error(T, T2), [0.1, 0, 0, 0, 0, 0], atol=1e-15)

    def test_pure_z_quarter_turn(self):
        T2 = np.eye(4)
        T2[:3, :3] = euler_zyx_to_matrix(90.0, 0.0, 0.0)
        e = pose_error(np.eye(4), T2)
        assert np.allclose(e, [0, 0, 0, 0, 0, math.pi / 2], atol=1e-12)


class TestSettings:
    def test_defaults_are_valid(self):
        s = IkSettings()
        assert s.position_tolerance == 1e-4
        assert s.orientation_tolerance == 1e-3
        assert s.max_iterations == 200
        assert s.restarts == 8

    # Explicit ids keep each case's name stable; kwargs4/5/8/9 were the
    # damping and step_limit cases, removed with those fields.
    @pytest.mark.parametrize(
        "kwargs",
        [
            pytest.param({"position_tolerance": 0.0}, id="kwargs0"),
            pytest.param({"orientation_tolerance": -1.0}, id="kwargs1"),
            pytest.param({"max_iterations": 0}, id="kwargs2"),
            pytest.param({"restarts": 0}, id="kwargs3"),
            pytest.param({"position_tolerance": math.nan}, id="kwargs6"),
            pytest.param({"orientation_tolerance": math.nan}, id="kwargs7"),
        ],
    )
    def test_invalid_settings_rejected(self, kwargs):
        with pytest.raises(ValueError):
            IkSettings(**kwargs)


class TestSolve:
    def test_seed_that_already_solves(self, arm):
        seed = JointConfig((100.0, 140.0, 40.0, 130.0, 80.0, 50.0))
        result = solve_ik(arm, fk_pose(arm, seed), seed)
        assert result.restart_index == 0
        assert result.final_position_error <= 1e-4
        assert result.final_orientation_error <= 1e-3
        distance = np.linalg.norm(result.solution.radians - seed.radians)
        assert distance <= 1e-3

    def test_round_trip_on_random_targets(self, arm):
        rng = np.random.default_rng(73)
        seed = arm.mid_config()
        solved = 0
        trials = 100
        for _ in range(trials):
            target = fk_pose(arm, random_config(rng, arm))
            try:
                result = solve_ik(arm, target, seed)
            except NoConvergenceError:
                continue
            solved += 1
            assert result.final_position_error <= 1e-4
            assert result.final_orientation_error <= 1e-3
        assert solved / trials >= 0.99

    def test_solution_always_respects_limits(self, arm):
        rng = np.random.default_rng(79)
        for _ in range(30):
            target = fk_pose(arm, random_config(rng, arm))
            result = solve_ik(arm, target, arm.mid_config())
            assert check_limits(arm, result.solution) == []

    def test_reported_residuals_are_recomputable(self, arm):
        rng = np.random.default_rng(83)
        target = fk_pose(arm, random_config(rng, arm))
        result = solve_ik(arm, target, arm.mid_config())
        e = pose_error(forward_kinematics(arm, result.solution), pose_to_matrix(target))
        assert abs(np.linalg.norm(e[:3]) - result.final_position_error) <= 1e-12
        assert abs(np.linalg.norm(e[3:]) - result.final_orientation_error) <= 1e-12

    def test_unreachable_target_reported_without_iterating(self, arm):
        bound = arm.workspace_bound()
        target = matrix_to_pose(np.eye(4))
        far = target.__class__((2.0 * bound, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0))
        with pytest.raises(UnreachableError) as info:
            solve_ik(arm, far, arm.mid_config())
        assert info.value.bound == pytest.approx(bound)
        assert info.value.distance == pytest.approx(2.0 * bound)

    def test_no_convergence_reports_best_residual(self, arm):
        rng = np.random.default_rng(89)
        target = fk_pose(arm, random_config(rng, arm))
        starved = IkSettings(max_iterations=1, restarts=1)
        with pytest.raises(NoConvergenceError) as info:
            solve_ik(arm, target, JointConfig((0.0, 90.0, 0.0, 90.0, 0.0, 0.0)), starved)
        assert math.isfinite(info.value.best_position_error)
        assert info.value.attempts == 2

    def test_determinism(self, arm):
        rng = np.random.default_rng(97)
        target = fk_pose(arm, random_config(rng, arm))
        seed = arm.mid_config()
        assert solve_ik(arm, target, seed) == solve_ik(arm, target, seed)

    def test_restart_recovers_from_bad_seed(self, arm):
        # a seed glued to the limit corner usually fails; restarts should save it
        rng = np.random.default_rng(101)
        corner = JointConfig(tuple(l.min_deg for l in arm.limits))
        successes = 0
        for _ in range(20):
            target = fk_pose(arm, random_config(rng, arm))
            try:
                result = solve_ik(arm, target, corner)
            except NoConvergenceError:
                continue
            successes += 1
            assert result.final_position_error <= 1e-4
        assert successes >= 18


class TestPositionOnly:
    def test_seed_position_is_immediate_success(self, arm):
        seed = JointConfig((95.0, 130.0, 50.0, 120.0, 70.0, 40.0))
        target = forward_kinematics(arm, seed)[:3, 3]
        result = solve_ik_position_only(arm, target, seed)
        assert result.iterations == 0
        assert result.final_position_error <= 1e-4
        assert result.final_orientation_error == 0.0

    def test_random_reachable_positions(self, arm):
        rng = np.random.default_rng(103)
        seed = arm.mid_config()
        solved = 0
        trials = 100
        for _ in range(trials):
            target = forward_kinematics(arm, random_config(rng, arm))[:3, 3]
            try:
                result = solve_ik_position_only(arm, target, seed)
            except NoConvergenceError:
                continue
            solved += 1
            assert result.final_position_error <= 1e-4
            assert check_limits(arm, result.solution) == []
        assert solved / trials >= 0.99

    def test_unreachable_position(self, arm):
        with pytest.raises(UnreachableError):
            solve_ik_position_only(arm, (1.0, 1.0, 1.0), arm.mid_config())


class TestStep:
    def test_step_reduces_residual_near_solution(self, arm):
        rng = np.random.default_rng(107)
        for _ in range(20):
            q_star = random_config(rng, arm)
            target_T = forward_kinematics(arm, q_star)
            q = q_star.radians + rng.uniform(-1e-3, 1e-3, 6)
            e = pose_error(forward_kinematics(arm, JointConfig.from_radians(q)), target_T)
            dq = _dls_step(arm, q, e)
            e2 = pose_error(forward_kinematics(arm, JointConfig.from_radians(q + dq)), target_T)
            assert np.linalg.norm(e2) < np.linalg.norm(e)


def _criterion_2_target(arm, index):
    """The index-th target of the acceptance round trip: FK of the index-th
    configuration drawn uniformly within the limits from seed 2025."""
    rng = np.random.default_rng(2025)
    lo, hi = arm.limits_deg
    configs = [JointConfig(tuple(rng.uniform(lo, hi))) for _ in range(index + 1)]
    return fk_pose(arm, configs[index])


def _sha256(fields) -> str:
    return hashlib.sha256(repr(fields).encode()).hexdigest()


class TestPinnedBits:
    """Hashes of every output bit of fixed solves; any change to an angle, an
    iteration count, a residual or the winning restart fails these."""

    @pytest.mark.parametrize(
        "index, position_only, restart_index, sha256",
        [
            (0, False, 0, "2f25196b5517867518cfe76588088d8770fecce5a59e75754e9e59a554780cd7"),
            (0, True, 0, "62d2b3ba630951e7f5d02f8cd40bb219bcaeb3821c31dccac76f4fb7fd19fcdb"),
            (12, False, 7, "93565cd318236be142ee779659017d3adba210efcb417bdd37a1a262db1a749c"),
            (12, True, 0, "fa2ee90aef5d8741d3e9fca646772481695d27365f8a9f421bc9ad3b0c6c74b1"),
            (126, False, 2, "3a0179d3dc70ad22bde12984f5f62b4185aa255d77b24b0e0306f854c65caae5"),
            (126, True, 0, "006f576285a239fab0c4e8dc65b62b6f5abb1abe2f39b303f67190f8b86fa594"),
            (127, False, 4, "bc283e95855d6953f1f6cb466de4b611cfc5a0d49262dacd16a7995c6a085ffd"),
            (127, True, 2, "df195af7875c90e7cf19b7302d3dbe0b4e1aea88fe8729c97181e9e89ee98ecd"),
        ],
    )
    def test_result_bits(self, arm, index, position_only, restart_index, sha256):
        target = _criterion_2_target(arm, index)
        if position_only:
            result = solve_ik_position_only(arm, target.position, arm.mid_config())
        else:
            result = solve_ik(arm, target, arm.mid_config())
        assert result.restart_index == restart_index
        fields = (
            tuple(a.hex() for a in result.solution.angles_deg),
            result.iterations,
            result.final_position_error.hex(),
            result.final_orientation_error.hex(),
            result.restart_index,
        )
        assert _sha256(fields) == sha256

    def test_best_residual_bits(self, arm):
        starved = IkSettings(max_iterations=5, restarts=2)
        with pytest.raises(NoConvergenceError) as info:
            solve_ik(arm, _criterion_2_target(arm, 12), arm.mid_config(), starved)
        exc = info.value
        fields = (exc.best_position_error.hex(), exc.best_orientation_error.hex(), exc.attempts)
        assert _sha256(fields) == "fc7680ac4dd0f811b66dba20262738b0fa1ed770d61033bdccef0df6dc253619"
