import hashlib
import importlib.util
import json
import math
import sys
import warnings

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
    load_arm_config,
    matrix_to_pose,
    plan_pick_place,
    pose_error,
    pose_to_matrix,
    solve_ik,
    solve_ik_position_only,
    top_down_pose,
)
from armkit.dh_model import MAX_LINK_M
from armkit.ik_solver import _dls_step, _norm
from armkit.kinematics import _geometric_jacobian_rad, _link_frames, euler_zyx_to_matrix

from conftest import PERFBENCH, fk_pose, make_arm, random_arm, random_config
from naive_oracle import naive_dls_step, naive_jacobian


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


def _kernel_configs(rng, model, count):
    """``count`` radian configurations within the model's limits, in which
    about half of the joints sit on a SPECIAL_DEG angle instead."""
    lo, hi = model.limits_deg
    deg = rng.uniform(lo, hi, (count, 6))
    special = rng.random((count, 6)) < 0.5
    deg[special] = rng.choice(SPECIAL_DEG, int(special.sum()))
    return np.radians(deg)


class TestKernelOracle:
    """The solver's Jacobian, step and norm against numpy's general routines,
    byte for byte: the kernel may only drop call overhead, never change a
    float operation or its order."""

    def test_jacobian_and_steps_match_oracle_bytes(self, arm, wide_arm):
        # 1,200 configurations on each shipped arm, 100 on each random one.
        rng = np.random.default_rng(211)
        models = [arm, wide_arm] + [random_arm(rng) for _ in range(4)]
        for model in models:
            count = 1200 if model in (arm, wide_arm) else 100
            for q in _kernel_configs(rng, model, count):
                frames = _link_frames(model, q)
                J = naive_jacobian(model, q)
                assert _geometric_jacobian_rad(model, q).tobytes() == J.tobytes()
                assert _geometric_jacobian_rad(model, q, frames).tobytes() == J.tobytes()
                # Small errors take the plain step, large ones the limited one.
                err = rng.normal(0.0, 10.0 ** rng.uniform(-6.0, 1.0), 6)
                for e in (err, err[:3].copy()):
                    assert _dls_step(model, q, e, frames).tobytes() == naive_dls_step(model, q, e).tobytes()

    def test_zero_error_steps_match_oracle_bytes(self, arm):
        q = np.radians(np.array(SPECIAL_DEG))
        for e in (np.zeros(6), np.zeros(3), -np.zeros(6)):
            assert _dls_step(arm, q, e).tobytes() == naive_dls_step(arm, q, e).tobytes()

    def test_norm_matches_numpy_norm_bytes(self):
        rng = np.random.default_rng(223)
        # Scales up to 1e300 overflow the sum of squares to inf in both.
        with np.errstate(over="ignore", under="ignore"):
            for _ in range(3000):
                v = rng.normal(0.0, 10.0 ** rng.uniform(-300.0, 300.0), int(rng.choice((3, 6))))
                v[rng.random(v.size) < 0.2] = rng.choice(SPECIAL_DEG[:2])
                assert _norm(v).hex() == float(np.linalg.norm(v)).hex()
                assert _norm(v[:3]).hex() == float(np.linalg.norm(v[:3])).hex()


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
        result = _solve_pose(arm, _criterion_2_target(arm, index), arm.mid_config(), position_only)
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

    @pytest.mark.parametrize(
        "pair, sha256",
        [
            (0, "2bd9a4f70088b51c54c254eac253a9f98d1a8e49ef243ee2ec46d53af2bb2f8e"),
            (1, "4a7f79e53f36a9dded9b714feaa04d01451a450cbbf76f4b82e0439738ecb288"),
            (2, "b8daa82c85632c31c1bbd181752bda80f84aff71fa4e06056e82e156868f0dfa"),
            (3, "4df2232c0824fe8d3094db00b6922e8502ba1a94dabe18bdbd0a2a14c04b634d"),
        ],
    )
    def test_pick_path_waypoint_bits(self, pick_table, pair, sha256):
        """Every angle of the seven waypoint configurations that
        plan_pick_place returns for a pick_table pair on the wide arm (five
        solved, lift and retreat reused)."""
        arm, pairs = pick_table
        plan = plan_pick_place(arm, *pairs[pair])
        fields = tuple(a.hex() for wp in plan.waypoints for a in wp.config.angles_deg)
        assert _sha256(fields) == sha256


@pytest.fixture(scope="module")
def pick_table():
    return _pick_table()
