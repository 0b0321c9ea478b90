import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import armkit.ik_solver
import armkit.planner

from armkit import (
    IkResult,
    IkSettings,
    JointConfig,
    NoConvergenceError,
    UnreachableError,
    check_limits,
    forward_kinematics,
    load_arm_config,
    matrix_to_pose,
    plan_pick_place,
    pose_error,
    pose_to_matrix,
    solve_ik,
    solve_ik_position_only,
    top_down_pose,
)
from armkit.dh_model import MAX_LINK_M, ArmModel, JointLimit
from armkit.ik_solver import STEP_LIMIT_RAD, _closed_form, _dls_step, _norm
from armkit.planner import _closed_form_start
from armkit.kinematics import _chain, _jacobian, euler_zyx_to_matrix

from conftest import (
    PERFBENCH,
    fk_pose,
    make_arm,
    perfbench_run,
    pick_output_sha256,
    random_arm,
    random_config,
    warm_up_digest,
)
from naive_oracle import loop_closed_form_start, loop_dls_step, naive_dls_step, naive_jacobian


def _solve_pose(model, target, seed, position_only):
    """solve_ik, or solve_ik_position_only on the target's position."""
    if position_only:
        return solve_ik_position_only(model, target.position, seed)
    return solve_ik(model, target, seed)


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
            pytest.param({"max_iterations": math.nan}, id="max_iterations_nan"),
            pytest.param({"max_iterations": 2.5}, id="max_iterations_float"),
            pytest.param({"max_iterations": True}, id="max_iterations_bool"),
            pytest.param({"restarts": math.nan}, id="restarts_nan"),
            pytest.param({"restarts": 2.5}, id="restarts_float"),
            pytest.param({"restarts": True}, id="restarts_bool"),
        ],
    )
    def test_invalid_settings_rejected(self, kwargs):
        # Each message names its field in full.
        with pytest.raises(ValueError, match=next(iter(kwargs))):
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

    @pytest.mark.parametrize("position_only", [False, True])
    def test_nan_target_rejected_before_iterating(self, arm, position_only):
        with pytest.raises(ValueError, match="NaN"):
            _solve_pose(arm, top_down_pose(math.nan, 0.0, 0.1), arm.mid_config(), position_only)

    @pytest.mark.parametrize("position_only", [False, True])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_seed_rejected_before_iterating(self, arm, position_only, bad):
        seed = JointConfig((bad,) + arm.mid_config().angles_deg[1:])
        with pytest.raises(ValueError, match="seed"):
            _solve_pose(arm, fk_pose(arm, arm.mid_config()), seed, position_only)

    @pytest.mark.parametrize("position_only", [False, True])
    def test_infinite_target_is_unreachable(self, arm, position_only):
        with pytest.raises(UnreachableError):
            _solve_pose(arm, top_down_pose(math.inf, 0.0, 0.1), arm.mid_config(), position_only)

    def test_no_convergence_reports_best_residual(self, arm):
        rng = np.random.default_rng(89)
        target = fk_pose(arm, random_config(rng, arm))
        starved = IkSettings(max_iterations=1, restarts=1)
        with pytest.raises(NoConvergenceError) as info:
            solve_ik(arm, target, JointConfig((0.0, 90.0, 0.0, 90.0, 0.0, 0.0)), starved)
        assert math.isfinite(info.value.best_position_error)
        assert info.value.attempts == 2

    def test_solves_at_the_link_bound_stay_regular(self):
        """Links at MAX_LINK_M keep the damped J Jᵀ well above its rounding:
        no solve raises LinAlgError or a numpy RuntimeWarning, whether it
        converges or not."""
        rng = np.random.default_rng(1000)
        settings = IkSettings(restarts=1, max_iterations=40)
        outcomes = set()
        for k in range(24):
            base = random_arm(rng)
            a = np.array([r.a_m for r in base.rows])
            d = np.array([r.d_m for r in base.rows])
            if k % 3 == 0:
                a[:] = MAX_LINK_M
                d = rng.choice([-MAX_LINK_M, MAX_LINK_M], 6)
            elif k % 3 == 1:
                a[rng.integers(6)] = MAX_LINK_M
            else:
                d[rng.integers(6)] = rng.choice([-MAX_LINK_M, MAX_LINK_M])
            model = make_arm(
                a=a,
                d=d,
                alpha_deg=[r.alpha_deg for r in base.rows],
                theta_offset_deg=[r.theta_offset_deg for r in base.rows],
                limits=base.limits,
            )
            target = fk_pose(model, random_config(rng, model))
            seed = random_config(rng, model)
            for position_only in (False, True):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    try:
                        if position_only:
                            result = solve_ik_position_only(model, target.position, seed, settings)
                        else:
                            result = solve_ik(model, target, seed, settings)
                        outcomes.add("solved")
                        assert np.isfinite(result.solution.angles_deg).all()
                    except NoConvergenceError as exc:
                        outcomes.add("not converged")
                        assert math.isfinite(exc.best_position_error)
        assert outcomes == {"solved", "not converged"}

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


class TestBaseYawEquivariance:
    """Joint 1 turns about base z, so turning the target by Rz(phi) and the
    seed's q1 by phi turns the whole solve: the same iterations, q1 + phi
    and the same q2..q6, with no pinned bits."""

    def test_rotated_target_and_seed_rotate_the_solution(self, arm):
        rng = np.random.default_rng(2089)
        lo, hi = arm.limits_deg
        mid = np.array(arm.mid_config().angles_deg)
        starts = []
        step = armkit.ik_solver._dls_step

        def recording_step(*args):
            starts.append(float(args[1][0]))
            return step(*args)

        def solve(target, seed):
            starts.clear()
            # Only seed-path pairs are compared, and attempt 0 does not depend
            # on the restart budget: one restart is enough to tell them apart.
            result = solve_ik(arm, target, JointConfig(tuple(seed)), IkSettings(restarts=1))
            return result, any(q1 in (math.radians(lo[0]), math.radians(hi[0])) for q1 in starts)

        pairs = clamped = 0
        worst = 0.0
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(armkit.ik_solver, "_dls_step", recording_step)
            for _ in range(300):
                phi = float(rng.uniform(-30.0, 30.0))
                q = rng.uniform(lo, hi)
                q[0] = rng.uniform(max(lo[0], lo[0] - phi), min(hi[0], hi[0] - phi))
                T = forward_kinematics(arm, JointConfig(tuple(q)))
                turn = np.eye(4)
                turn[:3, :3] = euler_zyx_to_matrix(phi, 0.0, 0.0)
                seed = mid + rng.uniform(-20.0, 20.0, 6)
                turned_seed = seed.copy()
                turned_seed[0] += phi
                try:
                    plain, plain_clamped = solve(matrix_to_pose(T), seed)
                    turned, turned_clamped = solve(matrix_to_pose(turn @ T), turned_seed)
                except NoConvergenceError:
                    continue
                if plain.restart_index or turned.restart_index:
                    continue
                pairs += 1
                assert turned.iterations == plain.iterations
                if plain_clamped or turned_clamped:
                    # The limits do not turn with phi: a q1 iterate clamped
                    # in one solve and not the other takes another path.
                    clamped += 1
                    continue
                gap = np.array(turned.solution.angles_deg) - np.array(plain.solution.angles_deg)
                gap[0] -= phi
                worst = max(worst, float(np.abs(gap).max()))
        # Measured on the numpy kernel: 292 seed-path pairs, 3 of them with a
        # q1 iterate clamped at a limit, and 1.1e-12 degrees at worst on the
        # other 289; on the scalar kernel the same counts and 3.8e-12.
        assert pairs >= 280
        assert clamped <= 10
        assert worst <= 1e-11


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


# Both signed zeros, where sine and cosine are exact, and the quarter and half
# turns, where one of them is a zero or an ulp-sized residue of one.
SPECIAL_DEG = (0.0, -0.0, 90.0, -90.0, 180.0, -180.0)


class TestClosedForm:
    """_closed_form against forward kinematics: every candidate reaches its
    pose, and the configuration the pose came from is among them."""

    @staticmethod
    def offset_arms(model, rng, count):
        """``model`` and ``count`` copies of it with random theta offsets."""
        arms = [model]
        for _ in range(count):
            offsets = rng.uniform(-179.0, 180.0, 6)
            rows = tuple(replace(r, theta_offset_deg=float(o)) for r, o in zip(model.rows, offsets))
            arms.append(ArmModel(rows, model.limits, model.name))
        return arms

    def test_every_candidate_reaches_its_pose(self, arm, wide_arm):
        rng = np.random.default_rng(2617)
        worst = 0.0
        for model in self.offset_arms(arm, rng, 4) + self.offset_arms(wide_arm, rng, 4):
            assert model.wrist_links is not None
            for _ in range(60):
                q = random_config(rng, model)
                T = forward_kinematics(model, q)
                candidates = _closed_form(model, matrix_to_pose(T))
                assert 1 <= len(candidates) <= 8
                for candidate in candidates:
                    gap = float(np.abs(forward_kinematics(model, JointConfig.from_radians(candidate)) - T).max())
                    worst = max(worst, gap)
                turns = np.array(candidates) - np.radians(q.angles_deg)
                assert np.abs(np.angle(np.exp(1j * turns))).max(axis=1).min() <= 1e-9
        # Measured: 5.6e-15 at worst over these 600 poses.
        assert worst <= 1e-9

    def test_other_arms_have_no_closed_form(self, arm):
        rng = np.random.default_rng(2621)
        pose = fk_pose(arm, arm.mid_config())
        for _ in range(20):
            model = random_arm(rng)
            assert model.wrist_links is None
            assert _closed_form(model, pose) == []
        # One wrist link off the family's pattern is enough.
        rows = list(arm.rows)
        rows[4] = replace(rows[4], d_m=0.001)
        assert ArmModel(tuple(rows), arm.limits).wrist_links is None

    def test_start_is_within_limits_and_solves_at_once(self, arm):
        """On the stock limits, the planner's start for a pose drawn within
        them lies within them, no farther from the previous configuration
        than the drawn one, and solve_ik accepts it without a step."""
        rng = np.random.default_rng(2633)
        previous = arm.mid_config()
        lo, hi = arm.limits_deg
        for _ in range(100):
            q = random_config(rng, arm)
            pose = fk_pose(arm, q)
            start = _closed_form_start(arm, pose, previous)
            assert not check_limits(arm, start)
            assert np.sum((np.array(start.angles_deg) - previous.angles_deg) ** 2) <= (
                np.sum((np.array(q.angles_deg) - previous.angles_deg) ** 2) + 1e-9
            )
            result = solve_ik(arm, pose, start)
            assert (result.restart_index, result.iterations) == (0, 0)
            previous = result.solution


    def test_start_matches_the_loop_form(self, arm, wide_arm):
        """The planner's written-out start against loop_closed_form_start,
        bit for bit, on 2,400 seeded pose/previous pairs: the stock and wide
        arms, copies of each with narrowed limits that keep some candidates
        out (and for some poses every one), and an arm with no closed form,
        whose start is ``previous`` itself."""
        rng = np.random.default_rng(2647)
        narrowed = []
        for model in (arm, wide_arm):
            for _ in range(2):
                lo = rng.uniform(0.0, 150.0, 6)
                hi = lo + rng.uniform(120.0, 200.0, 6)
                narrowed.append(ArmModel(model.rows, tuple(JointLimit(*pair) for pair in zip(lo.tolist(), hi.tolist()))))
        rows = list(wide_arm.rows)
        rows[4] = replace(rows[4], d_m=0.002)
        no_closed_form = ArmModel(tuple(rows), wide_arm.limits)
        assert no_closed_form.wrist_links is None
        excluded = unplaced = 0
        for model in (arm, wide_arm, *narrowed, no_closed_form):
            lo, hi = model.limits_deg
            for k in range(300):
                # Half the poses come from anywhere on the wide limits, so on
                # a narrowed copy no candidate may fit.
                pose = fk_pose(model, random_config(rng, wide_arm if k % 2 else model))
                previous = random_config(rng, model)
                got = _closed_form_start(model, pose, previous)
                want = loop_closed_form_start(model, pose, previous)
                assert [a.hex() for a in got.angles_deg] == [a.hex() for a in want.angles_deg]
                assert (got is previous) == (want is previous)
                if model is no_closed_form:
                    assert got is previous
                    continue
                unplaced += got is previous
                candidates = np.degrees(np.array(_closed_form(model, pose)).reshape(-1, 6))
                excluded += int(((lo + (candidates - lo) % 360.0) > hi).any(axis=1).sum())
        # Measured: 11,117 candidates kept out, 718 poses with none in limits.
        assert excluded > 5000 and unplaced > 300

    def test_first_of_equally_near_candidates_is_kept(self, wide_arm, monkeypatch):
        """Two candidates 10 degrees either side of ``previous`` on joint 0,
        the same elsewhere: the first one returned wins, in either order."""

        def exact_radians(deg):
            """A radian angle that math.degrees turns into exactly ``deg``."""
            q = math.radians(deg)
            for _ in range(8):
                if math.degrees(q) == deg:
                    return q
                q = math.nextafter(q, math.inf if math.degrees(q) < deg else -math.inf)
            raise AssertionError(f"no radian angle gives exactly {deg} degrees")

        previous = JointConfig((180.0,) * 6)
        rest = [exact_radians(180.0)] * 5
        up, down = [exact_radians(190.0), *rest], [exact_radians(170.0), *rest]
        for candidates, first in (([up, down], 190.0), ([down, up], 170.0)):
            monkeypatch.setattr(armkit.planner, "_closed_form", lambda model, pose: candidates)
            start = _closed_form_start(wide_arm, fk_pose(wide_arm, previous), previous)
            assert start.angles_deg == (first,) + (180.0,) * 5


class TestConvergedCheck:
    """The converged check takes the iterate in degrees, clamped, as the
    caller's configuration.  It reuses the iterate's residual when that
    configuration's radians equal the iterate, and otherwise evaluates the
    configuration's own chain; either way the reported errors are the
    residuals of the returned configuration."""

    @staticmethod
    def fk_residual(model, target, solution):
        """The position and orientation residual of ``solution`` through
        forward_kinematics, as hex."""
        e = pose_error(forward_kinematics(model, solution), pose_to_matrix(target)).tolist()
        return _norm(e[:3]).hex(), _norm(e[3:]).hex()

    def test_reported_errors_are_the_residuals_of_the_solution(self, arm, pick_table, monkeypatch):
        """Every solve of pick_table's 64 layouts and of the criterion-2
        batch.  A seed-path solve evaluates one chain per iteration, plus one
        when the round trip is not exact: both happen at least 20 times."""
        chains = []
        chain = armkit.ik_solver._chain

        def counting_chain(*args):
            chains.append(None)
            return chain(*args)

        solves = []

        def recording_solve(model, target, seed, settings=IkSettings()):
            before = len(chains)
            result = solve_ik(model, target, seed, settings)
            solves.append((model, target, result, len(chains) - before))
            return result

        monkeypatch.setattr(armkit.ik_solver, "_chain", counting_chain)
        monkeypatch.setattr(armkit.planner, "solve_ik", recording_solve)
        wide, pairs = pick_table
        for obj, place in pairs[:64]:  # the workload's inputs
            plan_pick_place(wide, obj, place)
        assert len(solves) == 5 * 64
        rng = np.random.default_rng(2025)
        lo, hi = arm.limits_deg
        for _ in range(1000):
            target = fk_pose(arm, JointConfig(tuple(rng.uniform(lo, hi))))
            try:
                recording_solve(arm, target, arm.mid_config())
            except NoConvergenceError:
                pass
        assert len(solves) > 1300
        extra_chains = []
        for model, target, result, calls in solves:
            reported = (result.final_position_error.hex(), result.final_orientation_error.hex())
            assert reported == self.fk_residual(model, target, result.solution)
            if result.restart_index == 0:
                extra_chains.append(calls - result.iterations - 1)
        assert min(extra_chains) >= 0
        exact = extra_chains.count(0)
        assert exact >= 20 and len(extra_chains) - exact >= 20


def _kernel_configs(rng, model, count):
    """``count`` radian configurations within the model's limits, in which
    about half of the joints sit on a SPECIAL_DEG angle instead."""
    lo, hi = model.limits_deg
    deg = rng.uniform(lo, hi, (count, 6))
    special = rng.random((count, 6)) < 0.5
    deg[special] = rng.choice(SPECIAL_DEG, int(special.sum()))
    return np.radians(deg)


# Float64 tolerances of the kernel against the oracles, fixed before the
# kernel's arithmetic order changed: Jacobian entries within 1e-12 (the FK
# contract of PAPER.md), a step within 1e-9 of its infinity norm (at least 1),
# and a norm within 4 ulp of np.linalg.norm.
JACOBIAN_TOL = 1e-12
STEP_TOL = 1e-9
NORM_ULPS = 4


def assert_step_close(got, want):
    scale = max(1.0, float(np.abs(want).max()))
    assert float(np.abs(np.asarray(got) - want).max()) <= STEP_TOL * scale


class TestKernelOracle:
    """The solver's Jacobian, step and norm against numpy's general routines
    on the oracle's own frames, within float64 tolerances: the kernel's
    arithmetic order is its own."""

    def test_jacobian_and_steps_match_oracle_bytes(self, arm, wide_arm):
        # 1,200 configurations on each shipped arm, 100 on each random one.
        rng = np.random.default_rng(211)
        models = [arm, wide_arm] + [random_arm(rng) for _ in range(4)]
        for model in models:
            count = 1200 if model in (arm, wide_arm) else 100
            for q in _kernel_configs(rng, model, count).tolist():
                chain = _chain(model.dh, q)
                J = naive_jacobian(model, q)
                assert np.abs(np.array(_jacobian(chain)).T - J).max() <= JACOBIAN_TOL
                # Small errors take the plain step, large ones the limited one.
                err = rng.normal(0.0, 10.0 ** rng.uniform(-6.0, 1.0), 6)
                for e in (err, err[:3].copy()):
                    want = naive_dls_step(J, e)
                    assert_step_close(_dls_step(model, q, e.tolist(), chain), want)
                    assert_step_close(_dls_step(model, q, e.tolist()), want)

    def test_zero_error_steps_match_oracle_bytes(self, arm):
        q = np.radians(np.array(SPECIAL_DEG)).tolist()
        J = naive_jacobian(arm, q)
        for e in (np.zeros(6), np.zeros(3), -np.zeros(6)):
            assert np.array_equal(_dls_step(arm, q, e.tolist()), naive_dls_step(J, e))

    def test_norm_matches_numpy_norm_bytes(self):
        rng = np.random.default_rng(223)
        # Scales up to 1e300 overflow the sum of squares to inf in both.
        with np.errstate(over="ignore", under="ignore"):
            for _ in range(3000):
                v = rng.normal(0.0, 10.0 ** rng.uniform(-300.0, 300.0), 3)
                v[rng.random(v.size) < 0.2] = rng.choice(SPECIAL_DEG[:2])
                got, want = _norm(v.tolist()), float(np.linalg.norm(v))
                assert got == want or abs(got - want) <= NORM_ULPS * math.ulp(want)

    def test_norm_rescales_only_past_overflow(self):
        """Below overflow _norm is the root of the squares summed in order,
        bit for bit; past it, a finite vector still has a finite length,
        within a few ulps of math.hypot's, and an infinite one has length
        inf."""
        rng = np.random.default_rng(2611)
        overflowed = 0
        for _ in range(3000):
            v = (rng.normal(0.0, 10.0 ** rng.uniform(100.0, 307.5), 3) * (rng.random(3) < 0.8)).tolist()
            x, y, z = v
            squares = x * x + y * y + z * z
            if squares < math.inf:
                assert _norm(v) == math.sqrt(squares)
                continue
            overflowed += 1
            want = math.hypot(*v)
            assert _norm(v) == want if want == math.inf else abs(_norm(v) - want) <= 2 * math.ulp(want)
        assert overflowed >= 1000
        assert _norm((math.inf, 1.0, 0.0)) == math.inf
        assert _norm((-1e308, 1e308, 1e308)) == math.hypot(1e308, 1e308, 1e308)
        assert math.isnan(_norm((math.nan, 1e200, 0.0)))


class TestWrittenOutStep:
    """``_dls_step`` against ``loop_dls_step``, the row-by-row Cholesky it is
    written out from: the same sums in the same order, so every step must
    equal the loop's bit for bit, sign of zero included."""

    def test_steps_match_the_loop_bit_for_bit(self, arm, wide_arm):
        rng = np.random.default_rng(431)
        models = [arm, wide_arm] + [random_arm(rng) for _ in range(3)]
        cases, want, got, got_unchained = [], [], [], []
        singular = 0
        for model in models:
            configs = _kernel_configs(rng, model, 1000)
            if model in (arm, wide_arm):
                # On the default geometry q3 at 0 or 180 degrees stretches or
                # folds the arm and q5 there aligns the wrist axes: J J^T is
                # singular and the damping alone keeps it definite.
                folds = np.radians(rng.choice([0.0, 180.0, -180.0], (500, 2)))
                configs[::2, 2], configs[::2, 4] = folds[:, 0], folds[:, 1]
            # Error scales from 1e-9 to 1e1, so the step limit both fires and
            # does not; every tenth error is made of signed zeros.
            errors = rng.normal(0.0, 1.0, (len(configs), 6)) * 10.0 ** rng.uniform(-9.0, 1.0, (len(configs), 1))
            errors[::10] = rng.choice([0.0, -0.0], (len(errors[::10]), 6))
            for k, (q, e) in enumerate(zip(configs.tolist(), errors.tolist())):
                chain = _chain(model.dh, q)
                columns = _jacobian(chain)
                if model in (arm, wide_arm) and k % 2 == 0:
                    assert np.linalg.svd(np.array(columns), compute_uv=False)[-1] <= 1e-12
                    singular += 1
                for err in (tuple(e), tuple(e[:3])):
                    cases.append((model.name, q, err))
                    want.append(loop_dls_step(columns, err))
                    got.append(_dls_step(model, q, err, chain))
                    got_unchained.append(_dls_step(model, q, err))
        assert len(cases) == 2 * 5 * 1000
        assert singular == 2 * 500
        # Bit patterns, so -0.0 and 0.0 differ.
        want_bits = np.array(want).view(np.uint64)
        for steps in (got, got_unchained):
            mismatched = np.flatnonzero((np.array(steps).view(np.uint64) != want_bits).any(axis=1))
            if mismatched.size:
                i = mismatched[0]
                pytest.fail(f"{cases[i]}: {[v.hex() for v in steps[i]]} != {[v.hex() for v in want[i]]}")
        # Neither branch of the step limit is a rare case.
        limited = np.isclose(np.abs(want).max(axis=1), STEP_LIMIT_RAD, rtol=1e-12, atol=0.0).sum()
        assert 0.1 * len(cases) <= limited <= 0.9 * len(cases)


def _criterion_2_target(arm, index):
    """The index-th target of the acceptance round trip: FK of the index-th
    configuration drawn uniformly within the limits from seed 2025."""
    rng = np.random.default_rng(2025)
    lo, hi = arm.limits_deg
    configs = [JointConfig(tuple(rng.uniform(lo, hi))) for _ in range(index + 1)]
    return fk_pose(arm, configs[index])


def _sha256(fields) -> str:
    return hashlib.sha256(repr(fields).encode()).hexdigest()


def _pick_table():
    """The benchmark's wide-limit arm and its pick_table layout, as
    perfbench/workloads.py builds them: a list of (object, place) top-down
    poses in layout order.  perfbench/ is only read."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # dataclass() looks its module up in sys.modules while the class is built.
    sys.modules[spec.name] = workloads
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    table = workloads.PickTable
    arm = load_arm_config((PERFBENCH / "data" / "wide_arm.json").read_text(encoding="utf-8"))
    layout = json.loads(table.LAYOUT.read_text(encoding="utf-8"))
    candidates = table.candidates(layout["candidates"])
    pairs = []
    for k in layout["kept"]:
        (ox, oy), place, _ = candidates[k]
        pairs.append((top_down_pose(ox, oy, table.TABLE_Z_M), top_down_pose(*place)))
    return arm, pairs


# (criterion-2 index, position only, restart index, sha256 of every output
# field) of fixed solves from mid_config(); the sha256 of a starved solve's
# best residual; and (pick_table pair, sha256 of its waypoint angles).
RESULT_PINS = [
    (0, False, 0, "3d306bedf3e730b74ea6f942fb050fbd0d635ac20cba6955113fd67cb108494d"),
    (0, True, 0, "d7a3afce18db5675b3db1e47a04e25896f17e81c12a4a6ae62a9f217b281fc86"),
    (12, False, 7, "b8c8a0cd2c739a2cda3c165dd77812b671bd8788826bf3d918bde4c8ccd4b60a"),
    (12, True, 0, "c5855d7c4c7f659c76da551d759099cf966b2b8d569da629d717b9b68a895a81"),
    (126, False, 2, "437222e7a55b8b03b6da7526967da3e238fb442644106216f2d29df53fffe5e1"),
    (126, True, 0, "fbcfc594753c7bcb7520d612c454dc81367f53cb105694349dad9e078c50ad9d"),
    (127, False, 4, "c8a4a652e17a9480df659213322d6420f8ff740a614e2db55eac47e47b014cb2"),
    (127, True, 2, "d1d88b5692b26ff8fe6f0cf10553f91ab85ee74767517d5f470556c28d92741c"),
]
BEST_RESIDUAL_PIN = "589e18150ca60af050dae367f75b42e03d0882bd9a3de1a14a5c2c21f3ff7f73"
PICK_PATH_PINS = [
    (0, "4c0a57285f919a399f72580bc43e68647b5eb6200dfa76a5dc32f9dacb588536"),
    (1, "0d6a3737281726836652c33031d71790865d604f4e9243cd7edc17d4313556df"),
    (2, "d270c768df9f3675de93cd564767afcd14103422d9aef9fbdb452bcc5741eff6"),
    (3, "f46568beb9c59b9bde4d694df9888e4688ec5d65d1052c2375d0c0d9f2015098"),
]


def result_bits(arm, index, position_only):
    """(restart index, sha256 of every output field) of the index-th
    criterion-2 solve from mid_config()."""
    result = _solve_pose(arm, _criterion_2_target(arm, index), arm.mid_config(), position_only)
    fields = (
        tuple(a.hex() for a in result.solution.angles_deg),
        result.iterations,
        result.final_position_error.hex(),
        result.final_orientation_error.hex(),
        result.restart_index,
    )
    return result.restart_index, _sha256(fields)


def best_residual_bits(arm):
    """sha256 of the best residual of a starved solve of target 12."""
    starved = IkSettings(max_iterations=5, restarts=2)
    with pytest.raises(NoConvergenceError) as info:
        solve_ik(arm, _criterion_2_target(arm, 12), arm.mid_config(), starved)
    exc = info.value
    return _sha256((exc.best_position_error.hex(), exc.best_orientation_error.hex(), exc.attempts))


def pick_path_bits(pick_table, pair):
    """sha256 of every angle of the seven waypoint configurations that
    plan_pick_place returns for a pick_table pair on the wide arm (five
    solved, lift and retreat reused)."""
    arm, pairs = pick_table
    plan = plan_pick_place(arm, *pairs[pair])
    return _sha256(tuple(a.hex() for wp in plan.waypoints for a in wp.config.angles_deg))


def pinned_bits(arm, pick_table):
    """The values of all 13 TestPinnedBits cases, in the order of the pins;
    then the warm-up digests that tests/test_benchmark_records.py pins for
    sim_replay and pick_table (the latter also traced), and the sha256 of
    the pinned ``armkit pick`` output."""
    run = perfbench_run()
    return (
        [list(result_bits(arm, index, position_only)) for index, position_only, _, _ in RESULT_PINS]
        + [best_residual_bits(arm)]
        + [pick_path_bits(pick_table, pair) for pair, _ in PICK_PATH_PINS]
        + [warm_up_digest(run, "sim_replay"), warm_up_digest(run, "pick_table")]
        + [warm_up_digest(run, "pick_table", traced=True), pick_output_sha256()]
    )


class TestPinnedBits:
    """Hashes of every output bit of fixed solves; any change to an angle, an
    iteration count, a residual or the winning restart fails these.  The ids
    leave the hashes out, so a re-capture keeps each test's name."""

    @pytest.mark.parametrize(
        "index, position_only, restart_index, sha256",
        [pytest.param(*pin, id=f"{pin[0]}-{pin[1]}-{pin[2]}") for pin in RESULT_PINS],
    )
    def test_result_bits(self, arm, index, position_only, restart_index, sha256):
        assert result_bits(arm, index, position_only) == (restart_index, sha256)

    def test_best_residual_bits(self, arm):
        assert best_residual_bits(arm) == BEST_RESIDUAL_PIN

    @pytest.mark.parametrize("pair, sha256", [pytest.param(*pin, id=str(pin[0])) for pin in PICK_PATH_PINS])
    def test_pick_path_waypoint_bits(self, pick_table, pair, sha256):
        assert pick_path_bits(pick_table, pair) == sha256


# The child imports this module and prints the pins' values as JSON.
_PINS_CHILD = """
import json
import test_ik_solver as t
from armkit import default_arm
print(json.dumps(t.pinned_bits(default_arm(), t._pick_table())))
"""


def _openblas_is_dynamic_arch():
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


@pytest.mark.skipif(not _openblas_is_dynamic_arch(), reason="numpy's OpenBLAS picks no kernel at run time")
def test_pins_hold_on_every_openblas_core(arm, pick_table):
    """The pinned solves, the servo bus and the calibration fit run no BLAS
    or LAPACK kernel: a child process per OpenBLAS core, with
    OPENBLAS_CORETYPE set in its environment only, gives the same 13 values,
    benchmark digests and pick output as this process."""
    path = os.pathsep.join([str(Path(__file__).parent), str(Path(armkit.__file__).parents[1])])
    children = {
        core: subprocess.Popen(
            [sys.executable, "-c", _PINS_CHILD],
            env={**os.environ, "OPENBLAS_CORETYPE": core, "PYTHONPATH": path},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for core in ("Haswell", "Sandybridge", "Nehalem")
    }
    here = pinned_bits(arm, pick_table)
    for core, child in children.items():
        try:
            out, err = child.communicate(timeout=60)
        finally:
            child.kill()
        assert child.returncode == 0, err
        assert json.loads(out) == here, core


@pytest.fixture(scope="module")
def pick_table():
    return _pick_table()
