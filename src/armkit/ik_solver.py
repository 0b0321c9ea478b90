"""Numerical inverse kinematics: damped least squares with joint-limit
projection, deterministic restarts, and a nearest-to-seed tie-break."""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .dh_model import ArmModel, JointConfig, clamp_to_limits
from .kinematics import (
    Chain,
    Pose6D,
    _chain,
    _end,
    _jacobian,
    _norm,
    _radians,
    _rotation_log,
    forward_kinematics,
    pose_to_matrix,
)

# Restart seeds are drawn from a per-call generator with this fixed seed, so
# identical solve inputs always produce bit-identical results.
RESTART_RNG_SEED = 0xA5C0FFEE

# Step damping; positive, so J J^T + damping^2 I is invertible everywhere.
DLS_DAMPING = 1e-2
# Largest joint change of one step (infinity norm), radians.
STEP_LIMIT_RAD = 0.3

# Maps a chain's end frame to (error vector, position error, orientation
# error); the error vector's length picks the Jacobian rows a step uses.
Residual = Callable[[Sequence[float]], tuple[Sequence[float], float, float]]


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
    return np.array(_pose_error(_end(current), *_translation_and_rotation(target)))


def _translation_and_rotation(T: np.ndarray) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """A rigid transform's translation and its rotation's rows, as Python floats."""
    block = _end(T)
    return block[3::4], block[0:3] + block[4:7] + block[8:11]


def _pose_error(end: Sequence[float], target_p: Sequence[float], target_R: Sequence[float]) -> tuple[float, ...]:
    """pose_error of a chain's end frame against a target given as its
    translation and its rotation's rows, on Python floats."""
    c00, c01, c02, cx, c10, c11, c12, cy, c20, c21, c22, cz = end
    t00, t01, t02, t10, t11, t12, t20, t21, t22 = target_R
    # The relative rotation target_R @ current_R.T, entry by entry.
    return (
        target_p[0] - cx,
        target_p[1] - cy,
        target_p[2] - cz,
        *_rotation_log((
            t00 * c00 + t01 * c01 + t02 * c02, t00 * c10 + t01 * c11 + t02 * c12, t00 * c20 + t01 * c21 + t02 * c22,
            t10 * c00 + t11 * c01 + t12 * c02, t10 * c10 + t11 * c11 + t12 * c12, t10 * c20 + t11 * c21 + t12 * c22,
            t20 * c00 + t21 * c01 + t22 * c02, t20 * c10 + t21 * c11 + t22 * c12, t20 * c20 + t21 * c21 + t22 * c22,
        )),
    )


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
    target_p, target_R = _translation_and_rotation(pose_to_matrix(target))

    def residual(end: Sequence[float]) -> tuple[tuple[float, ...], float, float]:
        e = _pose_error(end, target_p, target_R)
        return e, _norm(e[:3]), _norm(e[3:])

    return _solve(model, residual, target_p, seed, settings)


def solve_ik_position_only(
    model: ArmModel,
    target_position,
    seed: JointConfig,
    settings: IkSettings = IkSettings(),
) -> IkResult:
    """As solve_ik, but only the position rows constrain the solve; the
    orientation is left free and the reported orientation error is 0."""
    px, py, pz = np.asarray(target_position, dtype=float).reshape(3).tolist()

    def residual(end: Sequence[float]) -> tuple[tuple[float, ...], float, float]:
        e = (px - end[3], py - end[7], pz - end[11])
        return e, _norm(e), 0.0

    return _solve(model, residual, (px, py, pz), seed, settings)


def _converged(pos_err: float, ori_err: float, settings: IkSettings) -> bool:
    return pos_err <= settings.position_tolerance and ori_err <= settings.orientation_tolerance


def _dls_step(model: ArmModel, q_rad: Sequence[float], err: Sequence[float], chain: Chain | None = None) -> list[float]:
    """One damped-least-squares update, step-limited.  Uses the first
    ``len(err)`` Jacobian rows: 3 for position only, 6 for a pose.

    The step is J^T x with (J J^T + DLS_DAMPING^2 I) x = err.  That matrix is
    symmetric positive definite, so x comes through its Cholesky factor L,
    with every sum taken in index order on Python floats."""
    columns = _jacobian(chain if chain is not None else _chain(model.dh, q_rad))
    J = list(zip(*columns))[: len(err)]
    damping2 = DLS_DAMPING**2
    # L L^T = J J^T + damping2 I, one row of L at a time.
    L: list[list[float]] = []
    for i, (a0, a1, a2, a3, a4, a5) in enumerate(J):
        L_i: list[float] = []
        for j in range(i):
            b0, b1, b2, b3, b4, b5 = J[j]
            s = a0 * b0 + a1 * b1 + a2 * b2 + a3 * b3 + a4 * b4 + a5 * b5
            for v, w in zip(L_i, L[j]):
                s -= v * w
            L_i.append(s / L[j][j])
        s = a0 * a0 + a1 * a1 + a2 * a2 + a3 * a3 + a4 * a4 + a5 * a5 + damping2
        for v in L_i:
            s -= v * v
        L_i.append(math.sqrt(s))
        L.append(L_i)
    # L y = err, then L^T x = y.
    y: list[float] = []
    for L_i, e in zip(L, err):
        s = e
        for v, w in zip(L_i, y):
            s -= v * w
        y.append(s / L_i[-1])
    x = [0.0] * len(err)
    for i in reversed(range(len(err))):
        s = y[i]
        for k in range(i + 1, len(err)):
            s -= L[k][i] * x[k]
        x[i] = s / L[i][i]
    dq = []
    for column in columns:
        s = 0.0
        for a, b in zip(column, x):
            s += a * b
        dq.append(s)
    largest = max(map(abs, dq))
    if largest > STEP_LIMIT_RAD:
        scale = STEP_LIMIT_RAD / largest
        dq = [v * scale for v in dq]
    return dq


def _clamp(q: Sequence[float], lo: Sequence[float], hi: Sequence[float]) -> list[float]:
    """Each angle projected onto its limits, as np.clip projects it."""
    return [h if v > h else l if v < l else v for v, l, h in zip(q, lo, hi)]


def _attempt(
    model: ArmModel,
    residual: Residual,
    q0_rad: Sequence[float],
    lo_rad: list[float],
    hi_rad: list[float],
    settings: IkSettings,
    restart_index: int,
) -> tuple[IkResult | None, tuple[float, float]]:
    """Iterate from one start; returns (result-or-None, best residual pair).
    A converged iterate counts only if its clamped degree configuration, the
    value the caller sees, passes the tolerances again through FK."""
    q = _clamp(q0_rad, lo_rad, hi_rad)
    best = (math.inf, math.inf)
    for it in range(settings.max_iterations + 1):
        chain = _chain(model.dh, q)
        e, pos_err, ori_err = residual(chain[1])
        if pos_err + ori_err < best[0] + best[1]:
            best = (pos_err, ori_err)
        if _converged(pos_err, ori_err, settings):
            config = clamp_to_limits(model, JointConfig.from_radians(q))
            _, final_pos, final_ori = residual(_end(forward_kinematics(model, config)))
            if _converged(final_pos, final_ori, settings):
                return IkResult(config, it, final_pos, final_ori, restart_index), best
        if it == settings.max_iterations:
            break
        q = _clamp([a + b for a, b in zip(q, _dls_step(model, q, e, chain))], lo_rad, hi_rad)
    return None, best


def _starts(seed_rad: list[float], lo_rad: list[float], hi_rad: list[float], restarts: int):
    """Attempt 0 is the caller's seed; the restart generator is built and
    drawn from only once the seed has failed."""
    yield seed_rad
    rng = np.random.default_rng(RESTART_RNG_SEED)
    for _ in range(restarts):
        yield rng.uniform(lo_rad, hi_rad).tolist()


def _solve(
    model: ArmModel,
    residual: Residual,
    target_p: tuple[float, float, float],
    seed: JointConfig,
    settings: IkSettings,
) -> IkResult:
    # A NaN fails every comparison, so no attempt could converge or even
    # record a best residual; each would spin to its iteration limit.
    if any(map(math.isnan, target_p)):
        raise ValueError(f"target position must not be NaN, got {tuple(target_p)}")
    seed_rad = _radians(seed)
    if not all(map(math.isfinite, seed_rad)):
        raise ValueError(f"seed angles must be finite, got {seed.angles_deg}")
    bound = model.workspace_bound()
    distance = _norm(target_p)
    if distance > bound:
        raise UnreachableError(distance, bound)

    lo_rad = [math.radians(lim.min_deg) for lim in model.limits]
    hi_rad = [math.radians(lim.max_deg) for lim in model.limits]
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
        # min keeps the first of equally near solutions: the lowest restart
        # index.  fsum rounds the squared distance once, in any order.
        return min(
            solved, key=lambda r: math.fsum((a - b) * (a - b) for a, b in zip(_radians(r.solution), seed_rad))
        )
    raise NoConvergenceError(*best, settings.restarts + 1)
