"""Numerical inverse kinematics: damped least squares with joint-limit
projection, deterministic restarts, and a nearest-to-seed tie-break."""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

# clamp_to_limits, forward_kinematics and pose_to_matrix stay module globals
# for perfbench/tracing.py to rebind.
from .dh_model import ArmModel, JointConfig, clamp_to_limits  # noqa: F401
from .kinematics import (
    Chain,
    Pose6D,
    _chain,
    _end,
    _jacobian,
    _norm,
    _radians,
    _rotation,
    _rotation_log,
    forward_kinematics,  # noqa: F401
    pose_to_matrix,  # noqa: F401
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
    return np.array(_pose_error(_end(current), _end(target)))


def _pose_error(end: Sequence[float], target_end: Sequence[float]) -> tuple[float, ...]:
    """pose_error of a chain's end frame against a target end frame, on
    Python floats."""
    c00, c01, c02, cx, c10, c11, c12, cy, c20, c21, c22, cz = end
    t00, t01, t02, tx, t10, t11, t12, ty, t20, t21, t22, tz = target_end
    # The relative rotation target_R @ current_R.T, entry by entry.
    return (
        tx - cx,
        ty - cy,
        tz - cz,
        *_rotation_log((
            t00 * c00 + t01 * c01 + t02 * c02, t00 * c10 + t01 * c11 + t02 * c12, t00 * c20 + t01 * c21 + t02 * c22,
            t10 * c00 + t11 * c01 + t12 * c02, t10 * c10 + t11 * c11 + t12 * c12, t10 * c20 + t11 * c21 + t12 * c22,
            t20 * c00 + t21 * c01 + t22 * c02, t20 * c10 + t21 * c11 + t22 * c12, t20 * c20 + t21 * c21 + t22 * c22,
        )),
    )


def _target_end(pose: Pose6D) -> tuple[float, ...]:
    """The end frame of ``pose``, as ``_end(pose_to_matrix(pose))`` gives
    it, without the 4x4 array."""
    r00, r01, r02, r10, r11, r12, r20, r21, r22 = _rotation(pose.quaternion)
    px, py, pz = pose.position
    return r00, r01, r02, px, r10, r11, r12, py, r20, r21, r22, pz


def _closed_form(model: ArmModel, pose: Pose6D) -> list[list[float]]:
    """The exact joint angles (radians, not put in limits) that reach
    ``pose`` on a wrist-partitioned arm (``ArmModel.wrist_links``): up to 8,
    from two shoulder, two elbow and two wrist branches (Pieper 1968; the
    set IKFast generates, Diankov 2010).  Empty for any other arm, and for
    a pose whose wrist centre no branch reaches.  Python floats and math
    only.

    The wrist centre w = p - d6 z_tool is where the last three axes meet.
    With theta the joint variables (angle plus theta offset) and
    r = a2 cos t2 + a3 cos t23, h = a2 sin t2 + a3 sin t23, the first three
    joints put it at (r c1 + d4 s1, r s1 - d4 c1, d1 + h): t1 solves
    wx s1 - wy c1 = d4, then (r, h) is a planar two-link problem.  The
    wrist's rotation R03^T R is Rz(t4) Ry(-t5) Rz(t6), read off for t4 and
    t4 + pi."""
    links = model.wrist_links
    if links is None:
        return []
    d1, a2, a3, d4, d6 = links
    r00, r01, r02, px, r10, r11, r12, py, r20, r21, r22, pz = _target_end(pose)
    wx, wy, h = px - d6 * r02, py - d6 * r12, pz - d6 * r22 - d1
    rho = math.hypot(wx, wy)
    if not rho > abs(d4):  # on or inside the cylinder d4 sweeps: no t1, or every t1
        return []
    phi = math.atan2(wy, wx)
    lateral = math.asin(d4 / rho)
    reach = math.sqrt((rho - d4) * (rho + d4))
    o1, o2, o3, o4, o5, o6 = (row[0] for row in model.dh)
    candidates = []
    for t1, r in ((phi + lateral, reach), (phi + math.pi - lateral, -reach)):
        c1, s1 = math.cos(t1), math.sin(t1)
        c3 = (r * r + h * h - a2 * a2 - a3 * a3) / (2.0 * a2 * a3)
        if not abs(c3) <= 1.0:
            continue
        for s3 in (math.sqrt(1.0 - c3 * c3), -math.sqrt(1.0 - c3 * c3)):
            t2 = math.atan2(h, r) - math.atan2(a3 * s3, a2 + a3 * c3)
            t3 = math.atan2(s3, c3)
            c23, s23 = math.cos(t2 + t3), math.sin(t2 + t3)
            # R03's columns: x3 = (c23 c1, c23 s1, s23),
            # y3 = (-s23 c1, -s23 s1, c23), z3 = (s1, -c1, 0); m = R03^T R.
            xx, xy, yx, yy = c23 * c1, c23 * s1, -s23 * c1, -s23 * s1
            m00 = xx * r00 + xy * r10 + s23 * r20
            m01 = xx * r01 + xy * r11 + s23 * r21
            m02 = xx * r02 + xy * r12 + s23 * r22
            m10 = yx * r00 + yy * r10 + c23 * r20
            m11 = yx * r01 + yy * r11 + c23 * r21
            m12 = yx * r02 + yy * r12 + c23 * r22
            m22 = s1 * r02 - c1 * r12
            first = math.atan2(-m12, -m02)
            for t4 in (first, first + math.pi):
                c4, s4 = math.cos(t4), math.sin(t4)
                t5 = math.atan2(-(c4 * m02 + s4 * m12), m22)
                t6 = math.atan2(c4 * m10 - s4 * m00, c4 * m11 - s4 * m01)
                candidates.append([t1 - o1, t2 - o2, t3 - o3, t4 - o4, t5 - o5, t6 - o6])
    return candidates


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
    target_end = _target_end(target)

    def residual(end: Sequence[float]) -> tuple[tuple[float, ...], float, float]:
        e = _pose_error(end, target_end)
        return e, _norm(e[:3]), _norm(e[3:])

    return _solve(model, residual, target_end[3::4], seed, settings)


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
    symmetric positive definite, so x comes through its Cholesky factor L.
    Everything is written out over named locals (``jrc`` = J[r][c], ``lrc``
    = L[r][c]), each sum in the same operand order as the row-by-row loop
    the tests keep as the reference (``loop_dls_step``), so both give the
    same bits."""
    (
        (j00, j10, j20, j30, j40, j50),
        (j01, j11, j21, j31, j41, j51),
        (j02, j12, j22, j32, j42, j52),
        (j03, j13, j23, j33, j43, j53),
        (j04, j14, j24, j34, j44, j54),
        (j05, j15, j25, j35, j45, j55),
    ) = _jacobian(chain if chain is not None else _chain(model.dh, q_rad))
    damping2 = DLS_DAMPING**2
    # L L^T = J J^T + damping2 I.  Row i of L reads only rows < i, so rows
    # 0-2 and y0..y2 (L y = err) serve the 3-row and the 6-row system alike.
    l00 = math.sqrt(j00 * j00 + j01 * j01 + j02 * j02 + j03 * j03 + j04 * j04 + j05 * j05 + damping2)
    l10 = (j10 * j00 + j11 * j01 + j12 * j02 + j13 * j03 + j14 * j04 + j15 * j05) / l00
    l11 = math.sqrt(j10 * j10 + j11 * j11 + j12 * j12 + j13 * j13 + j14 * j14 + j15 * j15 + damping2 - l10 * l10)
    l20 = (j20 * j00 + j21 * j01 + j22 * j02 + j23 * j03 + j24 * j04 + j25 * j05) / l00
    l21 = (j20 * j10 + j21 * j11 + j22 * j12 + j23 * j13 + j24 * j14 + j25 * j15 - l20 * l10) / l11
    l22 = math.sqrt(
        j20 * j20 + j21 * j21 + j22 * j22 + j23 * j23 + j24 * j24 + j25 * j25 + damping2 - l20 * l20 - l21 * l21
    )
    y0 = err[0] / l00
    y1 = (err[1] - l10 * y0) / l11
    y2 = (err[2] - l20 * y0 - l21 * y1) / l22
    if len(err) == 3:
        # L^T x = y, then J^T x; the leading 0.0 keeps a sum of -0.0 terms +0.0.
        x2 = y2 / l22
        x1 = (y1 - l21 * x2) / l11
        x0 = (y0 - l10 * x1 - l20 * x2) / l00
        dq = [
            0.0 + j00 * x0 + j10 * x1 + j20 * x2,
            0.0 + j01 * x0 + j11 * x1 + j21 * x2,
            0.0 + j02 * x0 + j12 * x1 + j22 * x2,
            0.0 + j03 * x0 + j13 * x1 + j23 * x2,
            0.0 + j04 * x0 + j14 * x1 + j24 * x2,
            0.0 + j05 * x0 + j15 * x1 + j25 * x2,
        ]
    else:
        _, _, _, e3, e4, e5 = err
        l30 = (j30 * j00 + j31 * j01 + j32 * j02 + j33 * j03 + j34 * j04 + j35 * j05) / l00
        l31 = (j30 * j10 + j31 * j11 + j32 * j12 + j33 * j13 + j34 * j14 + j35 * j15 - l30 * l10) / l11
        l32 = (j30 * j20 + j31 * j21 + j32 * j22 + j33 * j23 + j34 * j24 + j35 * j25 - l30 * l20 - l31 * l21) / l22
        l33 = math.sqrt(
            j30 * j30 + j31 * j31 + j32 * j32 + j33 * j33 + j34 * j34 + j35 * j35 + damping2
            - l30 * l30 - l31 * l31 - l32 * l32
        )
        l40 = (j40 * j00 + j41 * j01 + j42 * j02 + j43 * j03 + j44 * j04 + j45 * j05) / l00
        l41 = (j40 * j10 + j41 * j11 + j42 * j12 + j43 * j13 + j44 * j14 + j45 * j15 - l40 * l10) / l11
        l42 = (j40 * j20 + j41 * j21 + j42 * j22 + j43 * j23 + j44 * j24 + j45 * j25 - l40 * l20 - l41 * l21) / l22
        l43 = (
            j40 * j30 + j41 * j31 + j42 * j32 + j43 * j33 + j44 * j34 + j45 * j35
            - l40 * l30 - l41 * l31 - l42 * l32
        ) / l33
        l44 = math.sqrt(
            j40 * j40 + j41 * j41 + j42 * j42 + j43 * j43 + j44 * j44 + j45 * j45 + damping2
            - l40 * l40 - l41 * l41 - l42 * l42 - l43 * l43
        )
        l50 = (j50 * j00 + j51 * j01 + j52 * j02 + j53 * j03 + j54 * j04 + j55 * j05) / l00
        l51 = (j50 * j10 + j51 * j11 + j52 * j12 + j53 * j13 + j54 * j14 + j55 * j15 - l50 * l10) / l11
        l52 = (j50 * j20 + j51 * j21 + j52 * j22 + j53 * j23 + j54 * j24 + j55 * j25 - l50 * l20 - l51 * l21) / l22
        l53 = (
            j50 * j30 + j51 * j31 + j52 * j32 + j53 * j33 + j54 * j34 + j55 * j35
            - l50 * l30 - l51 * l31 - l52 * l32
        ) / l33
        l54 = (
            j50 * j40 + j51 * j41 + j52 * j42 + j53 * j43 + j54 * j44 + j55 * j45
            - l50 * l40 - l51 * l41 - l52 * l42 - l53 * l43
        ) / l44
        l55 = math.sqrt(
            j50 * j50 + j51 * j51 + j52 * j52 + j53 * j53 + j54 * j54 + j55 * j55 + damping2
            - l50 * l50 - l51 * l51 - l52 * l52 - l53 * l53 - l54 * l54
        )
        y3 = (e3 - l30 * y0 - l31 * y1 - l32 * y2) / l33
        y4 = (e4 - l40 * y0 - l41 * y1 - l42 * y2 - l43 * y3) / l44
        y5 = (e5 - l50 * y0 - l51 * y1 - l52 * y2 - l53 * y3 - l54 * y4) / l55
        x5 = y5 / l55
        x4 = (y4 - l54 * x5) / l44
        x3 = (y3 - l43 * x4 - l53 * x5) / l33
        x2 = (y2 - l32 * x3 - l42 * x4 - l52 * x5) / l22
        x1 = (y1 - l21 * x2 - l31 * x3 - l41 * x4 - l51 * x5) / l11
        x0 = (y0 - l10 * x1 - l20 * x2 - l30 * x3 - l40 * x4 - l50 * x5) / l00
        dq = [
            0.0 + j00 * x0 + j10 * x1 + j20 * x2 + j30 * x3 + j40 * x4 + j50 * x5,
            0.0 + j01 * x0 + j11 * x1 + j21 * x2 + j31 * x3 + j41 * x4 + j51 * x5,
            0.0 + j02 * x0 + j12 * x1 + j22 * x2 + j32 * x3 + j42 * x4 + j52 * x5,
            0.0 + j03 * x0 + j13 * x1 + j23 * x2 + j33 * x3 + j43 * x4 + j53 * x5,
            0.0 + j04 * x0 + j14 * x1 + j24 * x2 + j34 * x3 + j44 * x4 + j54 * x5,
            0.0 + j05 * x0 + j15 * x1 + j25 * x2 + j35 * x3 + j45 * x4 + j55 * x5,
        ]
    largest = max(map(abs, dq))
    if largest > STEP_LIMIT_RAD:
        scale = STEP_LIMIT_RAD / largest
        dq = [v * scale for v in dq]
    return dq


def _clamp(q: Sequence[float], lo: Sequence[float], hi: Sequence[float]) -> list[float]:
    """Each angle projected onto its limits by JointLimit.clamp's
    comparisons, so an angle within them keeps its bits: -0.0 stays -0.0,
    where np.clip would give 0.0."""
    return [h if v > h else l if v < l else v for v, l, h in zip(q, lo, hi)]


def _attempt(
    model: ArmModel,
    residual: Residual,
    q0_rad: Sequence[float],
    lo_rad: list[float],
    hi_rad: list[float],
    lo_deg: list[float],
    hi_deg: list[float],
    settings: IkSettings,
    restart_index: int,
) -> tuple[IkResult | None, tuple[float, float]]:
    """Iterate from one start; returns (result-or-None, best residual pair).
    The joint limits come in radians and in degrees.  A converged iterate
    counts only if its clamped degree configuration, the value the caller
    sees, passes the tolerances again through FK.

    That configuration is the iterate in degrees clamped by JointLimit's
    comparisons, the bits of ``clamp_to_limits(model,
    JointConfig.from_radians(q))``.  When its radians equal the iterate,
    their chains are the same, so the residual just computed is its own:
    the round trip keeps the sign of zero, and no NaN reaches a converged
    check, so equal floats here are equal bits."""
    q = _clamp(q0_rad, lo_rad, hi_rad)
    best = (math.inf, math.inf)
    for it in range(settings.max_iterations + 1):
        chain = _chain(model.dh, q)
        e, pos_err, ori_err = residual(chain[1])
        if pos_err + ori_err < best[0] + best[1]:
            best = (pos_err, ori_err)
        if _converged(pos_err, ori_err, settings):
            angles = _clamp([math.degrees(v) for v in q], lo_deg, hi_deg)
            q_final = [math.radians(a) for a in angles]
            if q_final == q:
                final_pos, final_ori = pos_err, ori_err
            else:
                _, final_pos, final_ori = residual(_chain(model.dh, q_final)[1])
            if _converged(final_pos, final_ori, settings):
                return IkResult(JointConfig(tuple(angles)), it, final_pos, final_ori, restart_index), best
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

    lo_deg = [lim.min_deg for lim in model.limits]
    hi_deg = [lim.max_deg for lim in model.limits]
    lo_rad = [math.radians(a) for a in lo_deg]
    hi_rad = [math.radians(a) for a in hi_deg]
    best = (math.inf, math.inf)
    solved: list[IkResult] = []
    for k, q0 in enumerate(_starts(seed_rad, lo_rad, hi_rad, settings.restarts)):
        result, attempt_best = _attempt(model, residual, q0, lo_rad, hi_rad, lo_deg, hi_deg, settings, k)
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
