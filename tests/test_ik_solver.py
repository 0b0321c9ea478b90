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
        assert s.damping == 1e-2
        assert s.restarts == 8
        assert s.step_limit == 0.3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"position_tolerance": 0.0},
            {"orientation_tolerance": -1.0},
            {"max_iterations": 0},
            {"restarts": 0},
            {"damping": -0.1},
            {"step_limit": 0.0},
            {"position_tolerance": math.nan},
            {"orientation_tolerance": math.nan},
            {"damping": math.nan},
            {"step_limit": math.nan},
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
    def test_undamped_step_reduces_residual_near_solution(self, arm):
        rng = np.random.default_rng(107)
        settings = IkSettings(damping=0.0)
        for _ in range(20):
            q_star = random_config(rng, arm)
            target_T = forward_kinematics(arm, q_star)
            q = q_star.radians + rng.uniform(-1e-3, 1e-3, 6)
            e = pose_error(forward_kinematics(arm, JointConfig.from_radians(q)), target_T)
            dq = _dls_step(arm, q, e, settings, position_only=False)
            if dq is None:
                continue  # exactly singular configuration; nothing to assert
            e2 = pose_error(forward_kinematics(arm, JointConfig.from_radians(q + dq)), target_T)
            assert np.linalg.norm(e2) < np.linalg.norm(e)
