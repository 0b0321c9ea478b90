"""Arm geometry: the Denavit-Hartenberg table, joint limits, and the JSON
configuration document that is the single source of arm geometry."""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Sequence

import numpy as np

from ._document import read_json, read_numbers

JOINT_COUNT = 6

# Stock servo ranges (degrees, inclusive), one per motor.
DEFAULT_JOINT_LIMITS_DEG: tuple[tuple[float, float], ...] = (
    (0.0, 180.0),
    (90.0, 180.0),
    (0.0, 90.0),
    (90.0, 180.0),
    (0.0, 180.0),
    (0.0, 90.0),
)

_TOP_LEVEL_KEYS = {"name", "joints"}

# Largest |a_m| or |d_m|, meters: the IK damping 1e-4 on J Jᵀ's diagonal stays
# about 10³ above J Jᵀ's rounding; far longer links round it away (singular).
MAX_LINK_M = 1e3


class ArmConfigError(ValueError):
    """An arm configuration document failed to parse or validate."""


@dataclass(frozen=True)
class DHRow:
    """Denavit-Hartenberg parameters of one joint.

    Angles are kept in degrees exactly as they appear in the configuration
    document so that serialization round-trips bit-for-bit; ``ArmModel``
    converts them to radians once, at construction time.
    """

    theta_offset_deg: float = 0.0
    alpha_deg: float = 0.0
    a_m: float = 0.0
    d_m: float = 0.0


_DH_KEYS = tuple(f.name for f in fields(DHRow))


@dataclass(frozen=True)
class JointLimit:
    """Inclusive angular range of one servo, degrees."""

    min_deg: float
    max_deg: float

    def contains(self, angle_deg: float) -> bool:
        return self.min_deg <= angle_deg <= self.max_deg

    def clamp(self, angle_deg: float) -> float:
        return min(max(angle_deg, self.min_deg), self.max_deg)

    def midpoint(self) -> float:
        return 0.5 * (self.min_deg + self.max_deg)


@dataclass(frozen=True)
class JointConfig:
    """Six joint angles in degrees; converted to radians only for trigonometry."""

    angles_deg: tuple[float, float, float, float, float, float]

    def __post_init__(self) -> None:
        angles = tuple(float(a) for a in self.angles_deg)
        if len(angles) != JOINT_COUNT:
            raise ValueError(f"expected {JOINT_COUNT} joint angles, got {len(angles)}")
        object.__setattr__(self, "angles_deg", angles)

    @property
    def radians(self) -> np.ndarray:
        return np.radians(self.angles_deg)

    @classmethod
    def from_radians(cls, q_rad: Sequence[float]) -> "JointConfig":
        return cls(tuple(math.degrees(float(v)) for v in q_rad))


# One joint as the kinematics chain reads it: theta offset (radians), the
# twist's cosine and sine, a and d (meters), all Python floats.
DHTerms = tuple[float, float, float, float, float]


def dh_terms(row: DHRow) -> DHTerms:
    """The chain's floats of one DH row."""
    alpha = math.radians(row.alpha_deg)
    return (math.radians(row.theta_offset_deg), math.cos(alpha), math.sin(alpha), float(row.a_m), float(row.d_m))


# The twists of the wrist-partitioned family, joint by joint.
_WRIST_PARTITIONED_ALPHA_DEG = (90.0, 0.0, 0.0, 90.0, -90.0, 0.0)


def _wrist_links(rows: Sequence[DHRow]) -> tuple[float, float, float, float, float] | None:
    """The links (d1, a2, a3, d4, d6) of an arm in the family both stock
    arms belong to, or None for any other arm.  The family's rows have the
    twists (90, 0, 0, 90, -90, 0) degrees, a1 = a4 = a5 = a6 = 0 and
    d2 = d3 = d5 = 0, any theta offsets, and two nonzero planar links a2
    and a3.  The last three joint axes then meet in one point, the wrist
    centre (Pieper's condition), so a pose has closed-form inverse
    kinematics."""
    if tuple(row.alpha_deg for row in rows) != _WRIST_PARTITIONED_ALPHA_DEG:
        return None
    a1, a2, a3, a4, a5, a6 = (row.a_m for row in rows)
    d1, d2, d3, d4, d5, d6 = (row.d_m for row in rows)
    if a1 or a4 or a5 or a6 or d2 or d3 or d5 or not (a2 and a3):
        return None
    return float(d1), float(a2), float(a3), float(d4), float(d6)


@dataclass(frozen=True)
class ArmModel:
    """Immutable geometric identity of a six-joint arm: DH rows plus limits.

    Row and limit ``i`` both describe joint/motor ``i``.  ``dh`` holds each
    row's ``dh_terms``, derived once here and read by every kinematics
    routine; ``a``, ``d`` and ``limits_deg`` are read-only array views of the
    link lengths, offsets and limits.  ``wrist_links`` is
    ``_wrist_links(rows)``, also decided once here.
    """

    rows: tuple[DHRow, ...]
    limits: tuple[JointLimit, ...]
    name: str = "arm"

    dh: tuple[DHTerms, ...] = field(init=False, repr=False, compare=False)
    a: np.ndarray = field(init=False, repr=False, compare=False)
    d: np.ndarray = field(init=False, repr=False, compare=False)
    limits_deg: np.ndarray = field(init=False, repr=False, compare=False)
    wrist_links: tuple[float, float, float, float, float] | None = field(init=False, repr=False, compare=False)
    _workspace_bound: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        rows = tuple(self.rows)
        limits = tuple(self.limits)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "limits", limits)
        if len(rows) != JOINT_COUNT:
            raise ArmConfigError(f"expected {JOINT_COUNT} joints, got {len(rows)}")
        if len(limits) != JOINT_COUNT:
            raise ArmConfigError(f"expected {JOINT_COUNT} joint limits, got {len(limits)}")
        for i, row in enumerate(rows):
            for key, value in (("a_m", row.a_m), ("d_m", row.d_m)):
                if not math.isfinite(value):
                    raise ArmConfigError(f"joint {i}: '{key}' must be a finite number, got {value!r}")
                if abs(value) > MAX_LINK_M:
                    raise ArmConfigError(f"joint {i}: '{key}' must lie within ±{MAX_LINK_M:g} m, got {value}")
            if row.a_m < 0:
                raise ArmConfigError(f"joint {i}: link length a_m must be >= 0, got {row.a_m}")
            for label, value in (("theta_offset_deg", row.theta_offset_deg), ("alpha_deg", row.alpha_deg)):
                if not -180.0 < value <= 180.0:
                    raise ArmConfigError(f"joint {i}: {label} must lie in (-180, 180], got {value}")
        for i, lim in enumerate(limits):
            if not (0.0 <= lim.min_deg < 360.0 and 0.0 <= lim.max_deg < 360.0):
                raise ArmConfigError(
                    f"joint {i}: limits must lie in [0, 360), got [{lim.min_deg}, {lim.max_deg}]"
                )
            if lim.min_deg >= lim.max_deg:
                raise ArmConfigError(
                    f"joint {i}: limit min must be strictly below max, got [{lim.min_deg}, {lim.max_deg}]"
                )
        object.__setattr__(self, "dh", tuple(map(dh_terms, rows)))
        object.__setattr__(self, "a", _frozen_array(r.a_m for r in rows))
        object.__setattr__(self, "d", _frozen_array(r.d_m for r in rows))
        lim_arr = np.array([[l.min_deg for l in limits], [l.max_deg for l in limits]], dtype=float)
        lim_arr.flags.writeable = False
        object.__setattr__(self, "limits_deg", lim_arr)
        object.__setattr__(self, "wrist_links", _wrist_links(rows))
        object.__setattr__(self, "_workspace_bound", float(np.sum(self.a + np.abs(self.d))))

    def workspace_bound(self) -> float:
        """Conservative reach radius: no target farther out is attainable."""
        return self._workspace_bound

    def mid_config(self) -> JointConfig:
        """Configuration at every limit midpoint; the canonical solver seed."""
        return JointConfig(tuple(l.midpoint() for l in self.limits))


def _frozen_array(values: Any) -> np.ndarray:
    arr = np.array(list(values), dtype=float)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class LimitViolation:
    """One joint angle outside its servo range."""

    joint: int
    angle_deg: float
    limit: JointLimit


def check_limits(model: ArmModel, q: JointConfig) -> list[LimitViolation]:
    """List every joint of ``q`` outside its limit; empty list means valid."""
    return [
        LimitViolation(i, angle, lim)
        for i, (angle, lim) in enumerate(zip(q.angles_deg, model.limits))
        if not lim.contains(angle)
    ]


def clamp_to_limits(model: ArmModel, q: JointConfig) -> JointConfig:
    """Project each angle onto the nearest point of its limit interval."""
    return JointConfig(tuple(lim.clamp(angle) for angle, lim in zip(q.angles_deg, model.limits)))


def load_arm_config(text: str) -> ArmModel:
    """Parse a UTF-8 JSON arm configuration document into an ArmModel.

    The document holds ``name`` and exactly six ``joints`` entries, each with
    the ``DHRow`` fields and an optional ``limit_deg: [min, max]``; omitted
    limits fall back to the stock servo ranges.  Unknown fields are rejected,
    and so are numbers that are not finite (JSON's ``NaN``/``Infinity``
    extensions, or integers beyond float range).
    """
    doc = read_json(text, ArmConfigError, "JSON")
    if not isinstance(doc, dict):
        raise ArmConfigError("top level must be a JSON object")
    unknown = set(doc) - _TOP_LEVEL_KEYS
    if unknown:
        raise ArmConfigError(f"unknown top-level fields: {sorted(unknown)}")
    name = doc.get("name")
    if not isinstance(name, str):
        raise ArmConfigError("'name' must be a string")
    joints = doc.get("joints")
    if not isinstance(joints, list):
        raise ArmConfigError("'joints' must be an array")
    if len(joints) != JOINT_COUNT:
        raise ArmConfigError(f"expected {JOINT_COUNT} joints, got {len(joints)}")
    rows: list[DHRow] = []
    limits: list[JointLimit] = []
    for i, entry in enumerate(joints):
        rows.append(DHRow(*read_numbers(entry, f"joint {i}", _DH_KEYS, ArmConfigError, optional=("limit_deg",))))
        if "limit_deg" in entry:
            raw = entry["limit_deg"]
            if not isinstance(raw, list) or len(raw) != 2 or any(not isinstance(v, float) for v in raw):
                raise ArmConfigError(f"joint {i}: 'limit_deg' must be a [min, max] number pair")
            limits.append(JointLimit(*raw))
        else:
            limits.append(JointLimit(*DEFAULT_JOINT_LIMITS_DEG[i]))
    return ArmModel(rows=tuple(rows), limits=tuple(limits), name=name)


def dump_arm_config(model: ArmModel) -> str:
    """Serialize a model back to the configuration document format.

    Limits are always written, so ``load_arm_config(dump_arm_config(m))``
    reproduces ``m`` field for field.
    """
    joints = [
        {**asdict(row), "limit_deg": [lim.min_deg, lim.max_deg]}
        for row, lim in zip(model.rows, model.limits)
    ]
    return json.dumps({"name": model.name, "joints": joints}, indent=2) + "\n"


def default_arm() -> ArmModel:
    """The documented stock geometry, a plausible hobby-arm DH table.

    Every value is a configurable convention, not a measurement; real
    deployments load their own configuration document.
    """
    a = (0.0, 0.105, 0.098, 0.0, 0.0, 0.0)
    d = (0.065, 0.0, 0.0, 0.055, 0.0, 0.045)
    alpha = (90.0, 0.0, 0.0, 90.0, -90.0, 0.0)
    rows = tuple(
        DHRow(theta_offset_deg=0.0, alpha_deg=al, a_m=ai, d_m=di)
        for al, ai, di in zip(alpha, a, d)
    )
    limits = tuple(JointLimit(lo, hi) for lo, hi in DEFAULT_JOINT_LIMITS_DEG)
    return ArmModel(rows=rows, limits=limits, name="default-6dof")
