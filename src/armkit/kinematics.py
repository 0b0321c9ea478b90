"""Forward kinematics, pose/quaternion algebra, and the analytic Jacobian.

All transforms are plain 4x4 numpy arrays: rotation block in the upper left,
translation (meters) in the upper right, bottom row [0, 0, 0, 1].
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dh_model import JOINT_COUNT, ArmModel, DHRow, JointConfig, dh_template


def _dh_matrices(
    theta: np.ndarray, cos_alpha: np.ndarray, sin_alpha: np.ndarray, a: np.ndarray, template: np.ndarray
) -> np.ndarray:
    """Joint transforms of n DH rows, shape (n, 4, 4); ``theta`` (radians)
    already includes each row's offset.  Rows 2 and 3 come from the rows'
    ``dh_template``; only the eight entries that depend on theta are filled."""
    ct, st = np.cos(theta), np.sin(theta)
    T = template.copy()
    T[:, 0, 0] = ct
    T[:, 0, 1] = -st * cos_alpha
    T[:, 0, 2] = st * sin_alpha
    T[:, 0, 3] = a * ct
    T[:, 1, 0] = st
    T[:, 1, 1] = ct * cos_alpha
    T[:, 1, 2] = -ct * sin_alpha
    T[:, 1, 3] = a * st
    return T


def dh_transform(row: DHRow, joint_angle: float) -> np.ndarray:
    """Homogeneous transform of one joint; ``joint_angle`` in radians.

    The joint variable is ``joint_angle + theta_offset``; twist, link length
    and offset come from the row.
    """
    theta = joint_angle + math.radians(row.theta_offset_deg)
    alpha = np.array([math.radians(row.alpha_deg)])
    ca, sa = np.cos(alpha), np.sin(alpha)
    template = dh_template(ca, sa, np.array([row.d_m]))
    return _dh_matrices(np.array([theta]), ca, sa, np.array([row.a_m]), template)[0]


_IDENTITY4 = np.eye(4)
_IDENTITY4.flags.writeable = False


def _link_frames(model: ArmModel, q_rad: np.ndarray) -> np.ndarray:
    """Cumulative base->joint transforms, shape (7, 4, 4); frames[0] = I."""
    steps = _dh_matrices(
        q_rad + model.theta_offset_rad, model.cos_alpha, model.sin_alpha, model.a, model.dh_template
    )
    frames = np.empty((JOINT_COUNT + 1, 4, 4))
    frames[0] = _IDENTITY4
    for i in range(JOINT_COUNT):
        np.matmul(frames[i], steps[i], out=frames[i + 1])
    return frames


def forward_kinematics(model: ArmModel, q: JointConfig) -> np.ndarray:
    """Base-to-end-effector transform: ordered product of the six joint transforms.

    Defined for every configuration; limit validity is not required.
    """
    return _link_frames(model, q.radians)[-1]


def invert_transform(T: np.ndarray) -> np.ndarray:
    """Closed-form inverse of a rigid transform."""
    R = T[:3, :3]
    out = np.eye(4)
    out[:3, :3] = R.T
    out[:3, 3] = -R.T @ T[:3, 3]
    return out


def _canonical_quat(q: Sequence[float]) -> tuple[float, float, float, float]:
    """Unit quaternion with w >= 0; ties at w == 0 make the first nonzero
    component positive so equal rotations compare equal.

    The norm is np.linalg.norm's own sum and root; the division and the sign
    flip are the same IEEE operations on Python floats as on an array.  When
    the sum of squares under- or overflows (0 or inf) for a finite nonzero
    quaternion, the components are first divided by the largest magnitude;
    numpy's overflow warning on that sum is silenced, since it is handled."""
    a = np.array(q, dtype=float)
    if max(map(abs, q)) <= 1e150:  # no sum of four squares overflows
        squares = a.dot(a)
    else:
        with np.errstate(over="ignore"):
            squares = a.dot(a)
    if squares == 0.0 or squares == math.inf:
        largest = float(np.max(np.abs(a)))
        if 0.0 < largest < math.inf:
            q = [v / largest for v in q]
            a = np.array(q)
            squares = a.dot(a)
    n = math.sqrt(squares)
    if n == 0.0:
        raise ValueError("zero quaternion")
    w, x, y, z = q
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
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def matrix_to_quat(R: np.ndarray) -> tuple[float, float, float, float]:
    """Canonical unit quaternion (w, x, y, z) of a rotation matrix.

    Branches on the largest of trace/diagonal for numerical stability.  The
    arithmetic runs on the matrix's entries as Python floats, the same IEEE
    operations as on numpy scalars.
    """
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = np.asarray(R, dtype=float)[:3, :3].tolist()
    tr = r00 + r11 + r22
    if tr > 0.0:
        s = math.sqrt(tr + 1.0) * 2.0
        q = [0.25 * s, (r21 - r12) / s, (r02 - r20) / s, (r10 - r01) / s]
    elif r00 >= r11 and r00 >= r22:
        s = math.sqrt(1.0 + r00 - r11 - r22) * 2.0
        q = [(r21 - r12) / s, 0.25 * s, (r01 + r10) / s, (r02 + r20) / s]
    elif r11 >= r22:
        s = math.sqrt(1.0 + r11 - r00 - r22) * 2.0
        q = [(r02 - r20) / s, (r01 + r10) / s, 0.25 * s, (r12 + r21) / s]
    else:
        s = math.sqrt(1.0 + r22 - r00 - r11) * 2.0
        q = [(r10 - r01) / s, (r02 + r20) / s, (r12 + r21) / s, 0.25 * s]
    return _canonical_quat(q)


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
    if sp >= 1.0 - _POLE_EPS:
        yaw = math.atan2(-R[0, 1], R[1, 1])
        pitch = math.pi / 2.0
        roll = 0.0
    elif sp <= -1.0 + _POLE_EPS:
        yaw = math.atan2(-R[0, 1], R[1, 1])
        pitch = -math.pi / 2.0
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

    Stable at both ends: near zero it falls back to the skew part, near pi it
    recovers the axis from the symmetric part and signs it with the skew part.
    """
    tr = float(R[0, 0] + R[1, 1] + R[2, 2])
    cos_theta = min(1.0, max(-1.0, (tr - 1.0) / 2.0))
    theta = math.acos(cos_theta)
    skew = np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
    if theta < 1e-10:
        return skew / 2.0
    if theta > math.pi - 1e-6:
        B = (np.asarray(R) + np.eye(3)) / 2.0
        u = np.sqrt(np.maximum(np.diag(B), 0.0))
        k = int(np.argmax(u))
        for j in range(3):
            if j != k:
                u[j] = B[k, j] / u[k]
        u /= np.linalg.norm(u)
        s = float(np.dot(skew, u))
        if s < 0.0 or (s == 0.0 and u[int(np.argmax(np.abs(u)))] < 0.0):
            u = -u
        return theta * u
    return theta / (2.0 * math.sin(theta)) * skew


def _geometric_jacobian_rad(
    model: ArmModel, q_rad: np.ndarray, frames: np.ndarray | None = None
) -> np.ndarray:
    """Analytic world-frame Jacobian from the revolute-axis cross products:
    column i is z_i x (p_end - p_i) stacked on z_i.  The cross product is
    written out row by row with np.cross's own products and differences, so
    it gives the same bits without np.cross's axis bookkeeping."""
    if frames is None:
        frames = _link_frames(model, q_rad)
    z = frames[:-1, :3, 2]
    zx, zy, zz = z.T
    rx, ry, rz = (frames[-1, :3, 3] - frames[:-1, :3, 3]).T
    J = np.empty((6, JOINT_COUNT))
    J[0] = zy * rz - zz * ry
    J[1] = zz * rx - zx * rz
    J[2] = zx * ry - zy * rx
    J[3:] = z.T
    return J


def geometric_jacobian(model: ArmModel, q: JointConfig) -> np.ndarray:
    """Analytic 6x6 Jacobian: linear rows m/rad, angular rows rad/rad."""
    return _geometric_jacobian_rad(model, q.radians)
