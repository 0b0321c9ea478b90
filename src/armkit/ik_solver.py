"""Numerical inverse kinematics: damped least squares with joint-limit
projection, deterministic restarts, and a nearest-to-seed tie-break."""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

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

# Step damping; positive, so J J^T + damping^2 I is invertible everywhere.
DLS_DAMPING = 1e-2
# Largest joint change of one step (infinity norm), radians.
STEP_LIMIT_RAD = 0.3

# Maps an end-effector transform to (error vector, position error, orientation
# error); the error vector's length picks the Jacobian rows a step uses.
Residual = Callable[[np.ndarray], tuple[np.ndarray, float, float]]


@dataclass(frozen=True)
class IkSettings:
    """Convergence tolerances and the attempt budget.  The tolerances are an
    order of magnitude tighter than typical hobby-arm sensing error, so the
    solver never dominates the error budget."""

    position_tolerance: float = 1e-4
    orientation_tolerance: float = 1e-3
    max_iterations: int = 200
    restarts: int = 8

    def __post_init__(self) -> None:
        # Written as negated comparisons so NaN fails them too.
        for name in ("position_tolerance", "orientation_tolerance"):
            value = getattr(self, name)
            if not (value > 0.0):
                raise ValueError(f"{name} must be positive, got {value!r}")
        for name in ("max_iterations", "restarts"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise ValueError(f"{name} must be >= 1")


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
    return _pose_error(current, target[:3, 3], target[:3, :3])


def _pose_error(current: np.ndarray, target_p: np.ndarray, target_R: np.ndarray) -> np.ndarray:
    """pose_error against a target given as its translation and rotation."""
    e = np.empty(6)
    e[:3] = target_p - current[:3, 3]
    e[3:] = rotation_log(target_R @ current[:3, :3].T)
    return e


def _norm(v: np.ndarray) -> float:
    """Euclidean length of a 1-D float array, computed as np.linalg.norm
    computes it, without its argument handling."""
    return math.sqrt(v.dot(v))


def solve_ik(
    model: ArmModel,
    target: Pose6D,
    seed: JointConfig,
    settings: IkSettings = IkSettings(),
) -> IkResult:
    """Find a limit-respecting configuration whose forward kinematics match
    ``target`` in position and orientation.

    Damped least squares: dq = J^T (J J^T + DLS_DAMPING^2 I)^-1 e, with each
    step clamped to STEP_LIMIT_RAD (infinity norm) and angles projected onto
    their limits after every update.  If the seed fails, ``restarts``
    deterministic pseudo-random seeds are tried and the successful solution
    closest to the original seed (joint-space L2, radians) is returned.

    Raises ValueError without iterating when the target position holds a NaN
    or the seed a non-finite angle, UnreachableError when the target position
    lies beyond the reach bound, NoConvergenceError when every attempt fails.
    """
    target_T = pose_to_matrix(target)
    target_p, target_R = target_T[:3, 3], target_T[:3, :3]

    def residual(T: np.ndarray) -> tuple[np.ndarray, float, float]:
        e = _pose_error(T, target_p, target_R)
        return e, _norm(e[:3]), _norm(e[3:])

    return _solve(model, residual, np.asarray(target.position, float), seed, settings)


def solve_ik_position_only(
    model: ArmModel,
    target_position,
    seed: JointConfig,
    settings: IkSettings = IkSettings(),
) -> IkResult:
    """As solve_ik, but only the position rows constrain the solve; the
    orientation is left free and the reported orientation error is 0."""
    p = np.asarray(target_position, dtype=float).reshape(3)

    def residual(T: np.ndarray) -> tuple[np.ndarray, float, float]:
        e = p - T[:3, 3]
        return e, _norm(e), 0.0

    return _solve(model, residual, p, seed, settings)


def _converged(pos_err: float, ori_err: float, settings: IkSettings) -> bool:
    return pos_err <= settings.position_tolerance and ori_err <= settings.orientation_tolerance


def _dls_step(
    model: ArmModel, q_rad: np.ndarray, err: np.ndarray, frames: np.ndarray | None = None
) -> np.ndarray:
    """One damped-least-squares update, step-limited.  Uses the first
    ``len(err)`` Jacobian rows: 3 for position only, 6 for a pose."""
    J = _geometric_jacobian_rad(model, q_rad, frames)[: len(err)]
    JJt = J @ J.T
    JJt.flat[:: len(err) + 1] += DLS_DAMPING**2
    dq = J.T @ np.linalg.solve(JJt, err)
    m = float(np.abs(dq).max())
    if m > STEP_LIMIT_RAD:
        dq *= STEP_LIMIT_RAD / m
    return dq


def _attempt(
    model: ArmModel,
    residual: Residual,
    q0_rad: np.ndarray,
    lo_rad: np.ndarray,
    hi_rad: np.ndarray,
    settings: IkSettings,
    restart_index: int,
) -> tuple[IkResult | None, tuple[float, float]]:
    """Iterate from one start; returns (result-or-None, best residual pair).
    A converged iterate counts only if its clamped degree configuration, the
    value the caller sees, passes the tolerances again through FK."""
    q = np.clip(q0_rad, lo_rad, hi_rad)
    best = (math.inf, math.inf)
    for it in range(settings.max_iterations + 1):
        frames = _link_frames(model, q)
        e, pos_err, ori_err = residual(frames[-1])
        if pos_err + ori_err < best[0] + best[1]:
            best = (pos_err, ori_err)
        if _converged(pos_err, ori_err, settings):
            config = clamp_to_limits(model, JointConfig.from_radians(q))
            _, final_pos, final_ori = residual(forward_kinematics(model, config))
            if _converged(final_pos, final_ori, settings):
                return IkResult(config, it, final_pos, final_ori, restart_index), best
        if it == settings.max_iterations:
            break
        q = np.clip(q + _dls_step(model, q, e, frames), lo_rad, hi_rad)
    return None, best


def _starts(seed_rad: np.ndarray, lo_rad: np.ndarray, hi_rad: np.ndarray, restarts: int):
    """Attempt 0 is the caller's seed; the restart generator is built and
    drawn from only once the seed has failed."""
    yield seed_rad
    rng = np.random.default_rng(RESTART_RNG_SEED)
    for _ in range(restarts):
        yield rng.uniform(lo_rad, hi_rad)


def _solve(
    model: ArmModel,
    residual: Residual,
    target_p: np.ndarray,
    seed: JointConfig,
    settings: IkSettings,
) -> IkResult:
    # A NaN fails every comparison, so no attempt could converge or even
    # record a best residual; each would spin to its iteration limit.
    if np.isnan(target_p).any():
        raise ValueError(f"target position must not be NaN, got {tuple(target_p.tolist())}")
    seed_rad = seed.radians
    if not np.isfinite(seed_rad).all():
        raise ValueError(f"seed angles must be finite, got {seed.angles_deg}")
    bound = model.workspace_bound()
    distance = float(np.linalg.norm(target_p))
    if distance > bound:
        raise UnreachableError(distance, bound)

    lo_rad = np.radians(model.limits_deg[0])
    hi_rad = np.radians(model.limits_deg[1])
    best = (math.inf, math.inf)
    solved: list[IkResult] = []
    for k, q0 in enumerate(_starts(seed_rad, lo_rad, hi_rad, settings.restarts)):
        result, attempt_best = _attempt(model, residual, q0, lo_rad, hi_rad, settings, k)
        if attempt_best[0] + attempt_best[1] < best[0] + best[1]:
            best = attempt_best
        if result is not None:
            if k == 0:
                return result
            solved.append(result)
    if solved:
        # min keeps the first of equally near solutions: the lowest restart index.
        return min(solved, key=lambda r: float(np.linalg.norm(r.solution.radians - seed_rad)))
    raise NoConvergenceError(*best, settings.restarts + 1)
