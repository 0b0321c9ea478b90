"""Numerical inverse kinematics: damped least squares with joint-limit
projection, deterministic restarts, and a nearest-to-seed tie-break."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dh_model import ArmModel, JointConfig, clamp_to_limits
from .kinematics import (
    Pose6D,
    _geometric_jacobian_rad,
    _link_frames,
    forward_kinematics,
    pose_to_matrix,
    rotation_log,
)

# Restart seeds are drawn from a per-call generator with this fixed seed, so
# identical solve inputs always produce bit-identical results.
RESTART_RNG_SEED = 0xA5C0FFEE


@dataclass(frozen=True)
class IkSettings:
    """Solver knobs.  Defaults are an order of magnitude tighter than typical
    hobby-arm sensing error, so the solver never dominates the error budget."""

    position_tolerance: float = 1e-4
    orientation_tolerance: float = 1e-3
    max_iterations: int = 200
    damping: float = 1e-2
    restarts: int = 8
    step_limit: float = 0.3

    def __post_init__(self) -> None:
        # Written as negated comparisons so NaN fails them too.
        if not (self.position_tolerance > 0.0 and self.orientation_tolerance > 0.0):
            raise ValueError("tolerances must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if not (self.damping >= 0.0):
            raise ValueError("damping must be >= 0")
        if not (self.step_limit > 0.0):
            raise ValueError("step_limit must be positive")


@dataclass(frozen=True)
class IkResult:
    """A converged solve.  The reported errors are the true forward-kinematics
    residuals of ``solution`` and can be recomputed exactly by the caller.
    ``restart_index`` is 0 when the caller's seed converged, k for the k-th
    deterministic restart."""

    solution: JointConfig
    iterations: int
    final_position_error: float
    final_orientation_error: float
    restart_index: int


class UnreachableError(Exception):
    """Target position lies outside the arm's conservative reach bound."""

    def __init__(self, distance: float, bound: float, waypoint: str | None = None):
        prefix = f"waypoint '{waypoint}': " if waypoint else ""
        super().__init__(
            f"{prefix}target at {distance:.6g} m from the base exceeds the reach bound {bound:.6g} m"
        )
        self.distance = distance
        self.bound = bound
        self.waypoint = waypoint


class NoConvergenceError(Exception):
    """Seed and every restart ran out of iterations; carries the best residual
    pair (smallest position + orientation sum) seen across attempts."""

    def __init__(
        self,
        best_position_error: float,
        best_orientation_error: float,
        attempts: int,
        waypoint: str | None = None,
    ):
        prefix = f"waypoint '{waypoint}': " if waypoint else ""
        super().__init__(
            f"{prefix}no convergence after {attempts} attempts "
            f"(best residual {best_position_error:.3g} m / {best_orientation_error:.3g} rad)"
        )
        self.best_position_error = best_position_error
        self.best_orientation_error = best_orientation_error
        self.attempts = attempts
        self.waypoint = waypoint


def pose_error(current: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Six-vector residual between two transforms: translation difference
    (meters) stacked on the axis-angle of the relative rotation (radians)."""
    current = np.asarray(current, dtype=float)
    target = np.asarray(target, dtype=float)
    e = np.empty(6)
    e[:3] = target[:3, 3] - current[:3, 3]
    e[3:] = rotation_log(target[:3, :3] @ current[:3, :3].T)
    return e


def solve_ik(
    model: ArmModel,
    target: Pose6D,
    seed: JointConfig,
    settings: IkSettings = IkSettings(),
) -> IkResult:
    """Find a limit-respecting configuration whose forward kinematics match
    ``target`` in position and orientation.

    Damped least squares: dq = J^T (J J^T + damping^2 I)^-1 e, with each step
    clamped to ``step_limit`` (infinity norm) and angles projected onto their
    limits after every update.  If the seed fails, ``restarts`` deterministic
    pseudo-random seeds are tried and the successful solution closest to the
    original seed (joint-space L2, radians) is returned.

    Raises UnreachableError without iterating when the target position lies
    beyond the reach bound, NoConvergenceError when every attempt fails.
    """
    return _solve(model, pose_to_matrix(target), np.asarray(target.position, float), seed, settings, False)


def solve_ik_position_only(
    model: ArmModel,
    target_position,
    seed: JointConfig,
    settings: IkSettings = IkSettings(),
) -> IkResult:
    """As solve_ik, but only the position rows constrain the solve; the
    orientation is left free and the reported orientation error is 0."""
    p = np.asarray(target_position, dtype=float).reshape(3)
    return _solve(model, None, p, seed, settings, True)


def _residual(
    T: np.ndarray, target_T: np.ndarray | None, target_p: np.ndarray, position_only: bool
) -> tuple[np.ndarray, float, float]:
    if position_only:
        e = target_p - T[:3, 3]
        return e, float(np.linalg.norm(e)), 0.0
    e = pose_error(T, target_T)
    return e, float(np.linalg.norm(e[:3])), float(np.linalg.norm(e[3:]))


def _converged(pos_err: float, ori_err: float, settings: IkSettings) -> bool:
    return pos_err <= settings.position_tolerance and ori_err <= settings.orientation_tolerance


def _dls_step(
    model: ArmModel,
    q_rad: np.ndarray,
    err: np.ndarray,
    settings: IkSettings,
    position_only: bool,
    frames: np.ndarray | None = None,
) -> np.ndarray | None:
    """One damped-least-squares update, step-limited; None if the normal
    equations are singular (possible only with zero damping)."""
    J = _geometric_jacobian_rad(model, q_rad, frames)
    if position_only:
        J = J[:3]
    JJt = J @ J.T
    JJt[np.diag_indices_from(JJt)] += settings.damping**2
    try:
        dq = J.T @ np.linalg.solve(JJt, err)
    except np.linalg.LinAlgError:
        return None
    m = float(np.max(np.abs(dq)))
    if m > settings.step_limit:
        dq *= settings.step_limit / m
    return dq


def _finalize(
    model: ArmModel,
    q_rad: np.ndarray,
    target_T: np.ndarray | None,
    target_p: np.ndarray,
    settings: IkSettings,
    position_only: bool,
    iterations: int,
) -> tuple[JointConfig, float, float, int] | None:
    """Convert to degrees, clamp exactly onto the limits, and re-verify the
    tolerances on the value the caller will see."""
    config = clamp_to_limits(model, JointConfig.from_radians(q_rad))
    T = forward_kinematics(model, config)
    _, pos_err, ori_err = _residual(T, target_T, target_p, position_only)
    if not _converged(pos_err, ori_err, settings):
        return None
    return config, pos_err, ori_err, iterations


def _attempt(
    model: ArmModel,
    target_T: np.ndarray | None,
    target_p: np.ndarray,
    q0_rad: np.ndarray,
    lo_rad: np.ndarray,
    hi_rad: np.ndarray,
    settings: IkSettings,
    position_only: bool,
) -> tuple[tuple[JointConfig, float, float, int] | None, tuple[float, float]]:
    """Iterate from one start; returns (result-or-None, best residual pair)."""
    q = np.clip(q0_rad, lo_rad, hi_rad)
    best = (math.inf, math.inf)
    for it in range(settings.max_iterations + 1):
        frames = _link_frames(model, q)
        e, pos_err, ori_err = _residual(frames[-1], target_T, target_p, position_only)
        if pos_err + ori_err < best[0] + best[1]:
            best = (pos_err, ori_err)
        if _converged(pos_err, ori_err, settings):
            result = _finalize(model, q, target_T, target_p, settings, position_only, it)
            if result is not None:
                return result, best
        if it == settings.max_iterations:
            break
        dq = _dls_step(model, q, e, settings, position_only, frames)
        if dq is None:
            break
        q = np.clip(q + dq, lo_rad, hi_rad)
    return None, best


def _solve(
    model: ArmModel,
    target_T: np.ndarray | None,
    target_p: np.ndarray,
    seed: JointConfig,
    settings: IkSettings,
    position_only: bool,
) -> IkResult:
    bound = model.workspace_bound()
    distance = float(np.linalg.norm(target_p))
    if distance > bound:
        raise UnreachableError(distance, bound)

    lo_rad = np.radians(model.limits_deg[0])
    hi_rad = np.radians(model.limits_deg[1])
    seed_rad = seed.radians

    result, best = _attempt(model, target_T, target_p, seed_rad, lo_rad, hi_rad, settings, position_only)
    if result is not None:
        config, pos_err, ori_err, iters = result
        return IkResult(config, iters, pos_err, ori_err, restart_index=0)

    best_pos, best_ori = best
    rng = np.random.default_rng(RESTART_RNG_SEED)
    candidates: list[tuple[float, int, JointConfig, float, float, int]] = []
    for k in range(1, settings.restarts + 1):
        q0 = rng.uniform(lo_rad, hi_rad)
        result, attempt_best = _attempt(
            model, target_T, target_p, q0, lo_rad, hi_rad, settings, position_only
        )
        if attempt_best[0] + attempt_best[1] < best_pos + best_ori:
            best_pos, best_ori = attempt_best
        if result is not None:
            config, pos_err, ori_err, iters = result
            distance_to_seed = float(np.linalg.norm(config.radians - seed_rad))
            candidates.append((distance_to_seed, k, config, pos_err, ori_err, iters))
    if candidates:
        candidates.sort(key=lambda c: (c[0], c[1]))
        _, k, config, pos_err, ori_err, iters = candidates[0]
        return IkResult(config, iters, pos_err, ori_err, restart_index=k)
    raise NoConvergenceError(best_pos, best_ori, settings.restarts + 1)
