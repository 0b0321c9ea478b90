"""Forward kinematics, pose/quaternion algebra, and the analytic Jacobian.

FK, the Jacobian and the IK solver read one kinematic chain (``_chain``),
computed on Python floats in one fixed order, so no BLAS or LAPACK kernel,
and with it no CPU-dependent rounding, reaches their bits.  Transforms at
the public surface are plain 4x4 numpy arrays: rotation block in the upper
left, translation (meters) in the upper right, bottom row [0, 0, 0, 1].
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dh_model import ArmModel, DHRow, DHTerms, JointConfig, dh_terms


# One pass over the DH rows of a model: joints[i] is (zx, zy, zz, px, py, pz),
# the axis that joint i turns about and its origin, in base coordinates; end
# is the end frame's rotation rows and translation, row-major as a 3x4 block.
Chain = tuple[list[tuple[float, float, float, float, float, float]], tuple[float, ...]]


def _chain(rows: Sequence[DHTerms], q_rad: Sequence[float]) -> Chain:
    """The kinematic chain through ``rows`` (a model's ``dh``) at joint
    angles ``q_rad`` (radians, Python floats), as one fixed sequence of float
    operations.

    A frame with axes x, y, z and origin p times the DH transform of
    (theta, alpha, a, d) has, with u = cos(theta) x + sin(theta) y and
    v = cos(theta) y - sin(theta) x, the axes u, cos(alpha) v + sin(alpha) z
    and cos(alpha) z - sin(alpha) v, and the origin p + a u + d z.  Raises
    ValueError naming the first joint whose angle is NaN or infinite."""
    xx, xy, xz = 1.0, 0.0, 0.0
    yx, yy, yz = 0.0, 1.0, 0.0
    zx, zy, zz = 0.0, 0.0, 1.0
    px = py = pz = 0.0
    joints = []
    for i, ((offset, ca, sa, a, d), angle) in enumerate(zip(rows, q_rad)):
        joints.append((zx, zy, zz, px, py, pz))
        theta = angle + offset
        if not math.isfinite(theta):
            raise ValueError(f"joint {i} angle must be finite, got {math.degrees(angle)} degrees")
        ct, st = math.cos(theta), math.sin(theta)
        ux, uy, uz = ct * xx + st * yx, ct * xy + st * yy, ct * xz + st * yz
        vx, vy, vz = ct * yx - st * xx, ct * yy - st * xy, ct * yz - st * xz
        px, py, pz = px + a * ux + d * zx, py + a * uy + d * zy, pz + a * uz + d * zz
        xx, xy, xz = ux, uy, uz
        yx, yy, yz, zx, zy, zz = (
            ca * vx + sa * zx, ca * vy + sa * zy, ca * vz + sa * zz,
            ca * zx - sa * vx, ca * zy - sa * vy, ca * zz - sa * vz,
        )
    return joints, (xx, yx, zx, px, xy, yy, zy, py, xz, yz, zz, pz)


def _matrix(end: Sequence[float]) -> np.ndarray:
    """The 4x4 transform of a chain's end frame."""
    return np.array((*end, 0.0, 0.0, 0.0, 1.0)).reshape(4, 4)


def _end(T: np.ndarray) -> tuple[float, ...]:
    """A 4x4 transform's upper 3x4 block, as a chain's end frame."""
    return tuple(np.asarray(T, dtype=float)[:3].ravel().tolist())


def dh_transform(row: DHRow, joint_angle: float) -> np.ndarray:
    """Homogeneous transform of one joint; ``joint_angle`` in radians.

    The joint variable is ``joint_angle + theta_offset``; twist, link length
    and offset come from the row.
    """
    return _matrix(_chain((dh_terms(row),), (float(joint_angle),))[1])


def forward_kinematics(model: ArmModel, q: JointConfig) -> np.ndarray:
    """Base-to-end-effector transform: ordered product of the six joint transforms.

    Defined for every finite configuration; limit validity is not required.
    Raises ValueError naming the first joint whose angle is NaN or infinite.
    """
    return _matrix(_chain(model.dh, _radians(q))[1])


def _radians(q: JointConfig) -> list[float]:
    """The angles of ``q`` in radians, as Python floats."""
    return [math.radians(a) for a in q.angles_deg]


def invert_transform(T: np.ndarray) -> np.ndarray:
    """Closed-form inverse of a rigid transform."""
    R = T[:3, :3]
    out = np.eye(4)
    out[:3, :3] = R.T
    out[:3, 3] = -R.T @ T[:3, 3]
    return out


# A quaternion that one normalization left unit has |w² + x² + y² + z² - 1|
# within 6u (u = 2**-53, the float64 unit roundoff); 8u keeps each as it is.
_UNIT_SLACK = 8.0 * 2.0**-53


def _canonical_quat(q: Sequence[float]) -> tuple[float, float, float, float]:
    """Unit quaternion with w >= 0; ties at w == 0 make the first nonzero
    component positive so equal rotations compare equal.

    The sum of squares runs w, x, y, z in that order.  Within _UNIT_SLACK of 1
    the quaternion counts as unit and keeps its components, so a canonical
    quaternion canonicalizes to itself; otherwise each component is divided
    by the root of the sum.  When the sum under- or overflows (0 or inf) for
    a finite nonzero quaternion, the components are first divided by the
    largest magnitude."""
    w, x, y, z = map(float, q)
    squares = w * w + x * x + y * y + z * z
    if squares == 0.0 or squares == math.inf:
        largest = max(abs(w), abs(x), abs(y), abs(z))
        if 0.0 < largest < math.inf:
            w, x, y, z = w / largest, x / largest, y / largest, z / largest
            squares = w * w + x * x + y * y + z * z
    if not abs(squares - 1.0) <= _UNIT_SLACK:
        n = math.sqrt(squares)
        if n == 0.0:
            raise ValueError("zero quaternion")
        w, x, y, z = w / n, x / n, y / n, z / n
    flip = w < 0.0
    if w == 0.0:
        for v in (x, y, z):
            if v != 0.0:
                flip = v < 0.0
                break
    return (-w, -x, -y, -z) if flip else (w, x, y, z)


def quat_to_matrix(q: Sequence[float]) -> np.ndarray:
    """Rotation matrix of a unit quaternion (w, x, y, z)."""
    return np.array(_rotation(q)).reshape(3, 3)


def _rotation(q: Sequence[float]) -> tuple[float, ...]:
    """quat_to_matrix's entries, row-major, on Python floats."""
    w, x, y, z = q
    return (
        1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
        2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
        2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y),
    )


def matrix_to_quat(R: np.ndarray) -> tuple[float, float, float, float]:
    """Canonical unit quaternion (w, x, y, z) of a rotation matrix."""
    return _canonical_quat(_quat(np.asarray(R, dtype=float)[:3, :3].ravel().tolist()))


def _quat(m: Sequence[float]) -> tuple[float, float, float, float]:
    """Quaternion (w, x, y, z) of the rotation with row-major entries ``m``,
    on Python floats, neither normalized nor signed (Shepperd 1978).

    Branches on the largest of trace/diagonal for numerical stability: the
    component it roots is at least half the quaternion's length, and the
    others come from sums or differences of off-diagonal entries over it.
    """
    r00, r01, r02, r10, r11, r12, r20, r21, r22 = m
    tr = r00 + r11 + r22
    if tr > 0.0:
        s = math.sqrt(tr + 1.0) * 2.0
        return 0.25 * s, (r21 - r12) / s, (r02 - r20) / s, (r10 - r01) / s
    if r00 >= r11 and r00 >= r22:
        s = math.sqrt(1.0 + r00 - r11 - r22) * 2.0
        return (r21 - r12) / s, 0.25 * s, (r01 + r10) / s, (r02 + r20) / s
    if r11 >= r22:
        s = math.sqrt(1.0 + r11 - r00 - r22) * 2.0
        return (r02 - r20) / s, (r01 + r10) / s, 0.25 * s, (r12 + r21) / s
    s = math.sqrt(1.0 + r22 - r00 - r11) * 2.0
    return (r10 - r01) / s, (r02 + r20) / s, (r12 + r21) / s, 0.25 * s


@dataclass(frozen=True)
class Pose6D:
    """Position (meters) plus orientation as a canonical unit quaternion.

    The quaternion is normalized and sign-canonicalized (w >= 0) at
    construction; Euler angles exist only as an accessor, in the Z-Y-X
    intrinsic (yaw, pitch, roll) convention.
    """

    position: tuple[float, float, float]
    quaternion: tuple[float, float, float, float]

    def __post_init__(self) -> None:
        p = tuple(map(float, self.position))
        if len(p) != 3:
            raise ValueError(f"position must have 3 components, got {len(p)}")
        raw = tuple(map(float, self.quaternion))
        if len(raw) != 4:
            raise ValueError("quaternion must be (w, x, y, z)")
        if not all(map(math.isfinite, raw)):
            raise ValueError(f"quaternion must be finite, got {raw}")
        object.__setattr__(self, "position", p)
        object.__setattr__(self, "quaternion", _canonical_quat(raw))

    @classmethod
    def from_position_euler_zyx(
        cls,
        position: Sequence[float],
        yaw_deg: float,
        pitch_deg: float,
        roll_deg: float,
    ) -> "Pose6D":
        R = euler_zyx_to_matrix(yaw_deg, pitch_deg, roll_deg)
        return cls(tuple(position), matrix_to_quat(R))

    def euler_zyx_deg(self) -> tuple[float, float, float]:
        """(yaw, pitch, roll) in degrees; roll is pinned to 0 at pitch = +/-90."""
        return _matrix_to_euler_zyx_deg(quat_to_matrix(self.quaternion))


def euler_zyx_to_matrix(yaw_deg: float, pitch_deg: float, roll_deg: float) -> np.ndarray:
    """Rotation matrix of intrinsic Z-Y-X (yaw, pitch, roll) Euler angles."""
    cy, sy = math.cos(math.radians(yaw_deg)), math.sin(math.radians(yaw_deg))
    cp, sp = math.cos(math.radians(pitch_deg)), math.sin(math.radians(pitch_deg))
    cr, sr = math.cos(math.radians(roll_deg)), math.sin(math.radians(roll_deg))
    return np.array(
        [
            [cy * cp, cy * sp * sr - sy * cr, cy * sp * cr + sy * sr],
            [sy * cp, sy * sp * sr + cy * cr, sy * sp * cr - cy * sr],
            [-sp, cp * sr, cp * cr],
        ]
    )


_POLE_EPS = 1e-10


def _matrix_to_euler_zyx_deg(R: np.ndarray) -> tuple[float, float, float]:
    sp = -R[2, 0]
    if abs(sp) >= 1.0 - _POLE_EPS:
        yaw = math.atan2(-R[0, 1], R[1, 1])
        pitch = math.copysign(math.pi / 2.0, sp)
        roll = 0.0
    else:
        yaw = math.atan2(R[1, 0], R[0, 0])
        pitch = math.asin(min(1.0, max(-1.0, sp)))
        roll = math.atan2(R[2, 1], R[2, 2])
    return (math.degrees(yaw), math.degrees(pitch), math.degrees(roll))


def matrix_to_pose(T: np.ndarray) -> Pose6D:
    """Pose of a rigid transform; position copied exactly."""
    T = np.asarray(T, dtype=float)
    return Pose6D(tuple(T[:3, 3].tolist()), matrix_to_quat(T[:3, :3]))


def pose_to_matrix(pose: Pose6D) -> np.ndarray:
    """Rigid transform of a pose; inverse of matrix_to_pose up to quaternion sign."""
    T = np.eye(4)
    T[:3, :3] = quat_to_matrix(pose.quaternion)
    T[:3, 3] = pose.position
    return T


def rotation_log(R: np.ndarray) -> np.ndarray:
    """Axis-angle vector of a rotation matrix (magnitude = angle, radians).

    One formula at every angle: with the matrix's quaternion (w, v) signed
    so that w >= 0, the vector is 2 atan2(|v|, w) v / |v|, and zero when v
    is.  At a half turn either sign of the axis is the rotation.
    """
    return np.array(_rotation_log(np.asarray(R, dtype=float)[:3, :3].ravel().tolist()))


def _rotation_log(m: Sequence[float]) -> tuple[float, float, float]:
    """rotation_log of the 3x3 matrix with row-major entries ``m``, on
    Python floats.  atan2 reads the angle off both parts at once, so it
    keeps full relative accuracy near 0 and near pi alike, and the
    quaternion's length cancels."""
    w, x, y, z = _quat(m)
    if w < 0.0:
        w, x, y, z = -w, -x, -y, -z
    n = _norm((x, y, z))
    if n == 0.0:
        return 0.0, 0.0, 0.0
    f = 2.0 * math.atan2(n, w) / n
    return f * x, f * y, f * z


def _norm(v: Sequence[float]) -> float:
    """Euclidean length of a 3-vector: the squares summed in order, then the
    root.  Only when that sum overflows are the components first divided by
    the largest magnitude, so a finite vector past 1e154 gets a finite length
    and every length below overflow keeps its bits."""
    x, y, z = v
    squares = x * x + y * y + z * z
    if squares == math.inf:
        largest = max(abs(x), abs(y), abs(z))
        if largest < math.inf:
            x, y, z = x / largest, y / largest, z / largest
            return largest * math.sqrt(x * x + y * y + z * z)
    return math.sqrt(squares)


def _jacobian(chain: Chain) -> list[tuple[float, float, float, float, float, float]]:
    """The analytic world-frame Jacobian, one six-entry tuple per joint
    column: column i is z_i x (p_end - p_i) stacked on z_i."""
    joints, end = chain
    ex, ey, ez = end[3], end[7], end[11]
    columns = []
    for zx, zy, zz, px, py, pz in joints:
        rx, ry, rz = ex - px, ey - py, ez - pz
        columns.append((zy * rz - zz * ry, zz * rx - zx * rz, zx * ry - zy * rx, zx, zy, zz))
    return columns


def geometric_jacobian(model: ArmModel, q: JointConfig) -> np.ndarray:
    """Analytic 6x6 Jacobian: linear rows m/rad, angular rows rad/rad.
    Raises ValueError naming the first joint whose angle is NaN or infinite."""
    return np.array(_jacobian(_chain(model.dh, _radians(q)))).T
