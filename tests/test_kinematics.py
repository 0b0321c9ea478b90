import math

import numpy as np
import pytest

from armkit import (
    DHRow,
    JointConfig,
    Pose6D,
    default_arm,
    dh_transform,
    forward_kinematics,
    geometric_jacobian,
    matrix_to_pose,
    pose_to_matrix,
)
from armkit.kinematics import (
    _dh_matrices,
    euler_zyx_to_matrix,
    invert_transform,
    matrix_to_quat,
    quat_to_matrix,
    rotation_log,
)

from conftest import make_arm, random_arm, random_config
from naive_oracle import (
    naive_dh_matrices,
    naive_fk,
    naive_matrix_to_pose,
    naive_matrix_to_quat,
    naive_pose_quaternion,
    numeric_jacobian,
    planar_2r_jacobian_linear,
    transform_is_valid,
)


def random_rotation(rng):
    q = rng.normal(size=4)
    return quat_to_matrix(q / np.linalg.norm(q))


def random_transform(rng):
    T = np.eye(4)
    T[:3, :3] = random_rotation(rng)
    T[:3, 3] = rng.uniform(-1.0, 1.0, 3)
    return T


class TestDhTransform:
    def test_all_zero_parameters_give_identity(self):
        T = dh_transform(DHRow(), 0.0)
        assert np.array_equal(T, np.eye(4))

    def test_quarter_turn_with_unit_link(self):
        # theta = 90 deg, alpha = 0, a = 1, d = 0, evaluated by hand
        T = dh_transform(DHRow(a_m=1.0), math.pi / 2)
        expected = np.array(
            [
                [0.0, -1.0, 0.0, 0.0],
                [1.0, 0.0, 0.0, 1.0],
                [0.0, 0.0, 1.0, 0.0],
                [0.0, 0.0, 0.0, 1.0],
            ]
        )
        assert np.allclose(T, expected, atol=1e-15)

    def test_quarter_twist_with_offset(self):
        # theta = 0, alpha = 90 deg, a = 0, d = 0.5, evaluated by hand
        T = dh_transform(DHRow(alpha_deg=90.0, d_m=0.5), 0.0)
        expected = np.array(
            [
                [1.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, -1.0, 0.0],
                [0.0, 1.0, 0.0, 0.5],
                [0.0, 0.0, 0.0, 1.0],
            ]
        )
        assert np.allclose(T, expected, atol=1e-15)

    def test_theta_offset_adds_to_joint_variable(self):
        row = DHRow(theta_offset_deg=30.0, a_m=0.2)
        assert np.allclose(
            dh_transform(row, math.radians(15.0)),
            dh_transform(DHRow(a_m=0.2), math.radians(45.0)),
            atol=1e-15,
        )

    def test_rotation_block_always_orthonormal(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            row = DHRow(
                theta_offset_deg=float(rng.uniform(-179, 180)),
                alpha_deg=float(rng.uniform(-179, 180)),
                a_m=float(rng.uniform(0, 0.5)),
                d_m=float(rng.uniform(-0.5, 0.5)),
            )
            T = dh_transform(row, float(rng.uniform(-2 * math.pi, 2 * math.pi)))
            R = T[:3, :3]
            assert np.max(np.abs(R.T @ R - np.eye(3))) <= 1e-12
            assert abs(np.linalg.det(R) - 1.0) <= 1e-12


class TestDhMatricesOracle:
    """The DH builder, which fills only the joint-angle entries of each
    model's constant template, against the form that computes every entry on
    every call, byte for byte."""

    SPECIAL_RAD = (0.0, -0.0, math.pi / 2, -math.pi / 2, math.pi, -math.pi)

    def test_model_transforms_match_oracle_bytes(self, arm, wide_arm):
        rng = np.random.default_rng(227)
        quarter_twists = make_arm(alpha_deg=(90.0, -90.0, 180.0, 0.0, 90.0, -90.0), a=(0.1,) * 6, d=(-0.2,) * 6)
        models = [arm, wide_arm, quarter_twists] + [random_arm(rng) for _ in range(5)]
        for model in models:
            assert not model.dh_template.flags.writeable
            for _ in range(400):
                q = rng.uniform(-2.0 * math.pi, 2.0 * math.pi, 6)
                special = rng.random(6) < 0.3
                q[special] = rng.choice(self.SPECIAL_RAD, int(special.sum()))
                theta = q + model.theta_offset_rad
                got = _dh_matrices(theta, model.cos_alpha, model.sin_alpha, model.a, model.dh_template)
                want = naive_dh_matrices(theta, model.alpha_rad, model.a, model.d)
                assert got.tobytes() == want.tobytes()

    def test_dh_transform_matches_oracle_bytes(self):
        rng = np.random.default_rng(229)
        for _ in range(300):
            row = DHRow(
                theta_offset_deg=float(rng.choice((0.0, 90.0, float(rng.uniform(-179, 180))))),
                alpha_deg=float(rng.choice((0.0, 90.0, -90.0, 180.0, float(rng.uniform(-179, 180))))),
                a_m=float(rng.uniform(0, 0.5)),
                d_m=float(rng.uniform(-0.5, 0.5)),
            )
            angle = float(rng.choice(self.SPECIAL_RAD + (float(rng.uniform(-7.0, 7.0)),)))
            theta = np.array([angle + math.radians(row.theta_offset_deg)])
            want = naive_dh_matrices(theta, np.array([math.radians(row.alpha_deg)]), row.a_m, row.d_m)[0]
            assert dh_transform(row, angle).tobytes() == want.tobytes()


class TestForwardKinematics:
    def test_degenerate_arm_is_identity(self):
        model = make_arm()
        T = forward_kinematics(model, JointConfig((0.0,) * 6))
        assert np.allclose(T, np.eye(4), atol=1e-15)

    def test_planar_two_link_straight_out(self, planar2r):
        T = forward_kinematics(planar2r, JointConfig((0.0,) * 6))
        assert np.allclose(T[:3, 3], [2.0, 0.0, 0.0], atol=1e-12)

    def test_planar_two_link_base_rotated(self, planar2r):
        T = forward_kinematics(planar2r, JointConfig((90.0, 0.0, 0.0, 0.0, 0.0, 0.0)))
        assert np.allclose(T[:3, 3], [0.0, 2.0, 0.0], atol=1e-12)

    def test_matches_chained_dh_transforms_at_zero(self, arm):
        q = JointConfig((0.0,) * 6)
        T = forward_kinematics(arm, q)
        chained = np.eye(4)
        for row in arm.rows:
            chained = chained @ dh_transform(row, 0.0)
        assert np.max(np.abs(T - chained)) <= 1e-12
        dh_rows = [(r.theta_offset_deg, r.alpha_deg, r.a_m, r.d_m) for r in arm.rows]
        assert np.max(np.abs(T - np.array(naive_fk(dh_rows, q.angles_deg)))) <= 1e-12

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            model = random_arm(rng)
            q = random_config(rng, model)
            T = forward_kinematics(model, q)
            dh_rows = [(r.theta_offset_deg, r.alpha_deg, r.a_m, r.d_m) for r in model.rows]
            expected = np.array(naive_fk(dh_rows, q.angles_deg))
            assert np.max(np.abs(T - expected)) <= 1e-12

    def test_output_is_always_a_valid_transform(self, arm):
        rng = np.random.default_rng(29)
        for _ in range(200):
            q = JointConfig(tuple(rng.uniform(-360, 360, 6)))
            assert transform_is_valid(forward_kinematics(arm, q))

    def test_position_continuity_bound(self, arm):
        # one joint perturbed by eps moves the tool by at most eps * (reach + 1)
        rng = np.random.default_rng(31)
        eps = 1e-6
        bound = eps * (arm.workspace_bound() + 1.0)
        for _ in range(50):
            q = random_config(rng, arm)
            p0 = forward_kinematics(arm, q)[:3, 3]
            for i in range(6):
                angles = list(q.angles_deg)
                angles[i] += math.degrees(eps)
                p1 = forward_kinematics(arm, JointConfig(tuple(angles)))[:3, 3]
                assert np.linalg.norm(p1 - p0) <= bound


class TestPoseConversions:
    def test_identity_matrix_to_pose(self):
        pose = matrix_to_pose(np.eye(4))
        assert pose.position == (0.0, 0.0, 0.0)
        assert pose.quaternion == (1.0, 0.0, 0.0, 0.0)

    def test_z_quarter_turn_pose(self):
        T = np.eye(4)
        T[:3, :3] = euler_zyx_to_matrix(90.0, 0.0, 0.0)
        T[:3, 3] = (1.0, 2.0, 3.0)
        pose = matrix_to_pose(T)
        assert pose.position == (1.0, 2.0, 3.0)
        yaw, pitch, roll = pose.euler_zyx_deg()
        assert (yaw, pitch, roll) == pytest.approx((90.0, 0.0, 0.0), abs=1e-9)
        s = math.sqrt(0.5)
        assert pose.quaternion == pytest.approx((s, 0.0, 0.0, s), abs=1e-12)

    def test_round_trip_through_pose(self):
        rng = np.random.default_rng(37)
        for _ in range(1000):
            T = random_transform(rng)
            T2 = pose_to_matrix(matrix_to_pose(T))
            assert np.max(np.abs(T2 - T)) <= 1e-9

    def test_quaternion_double_cover(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            q = rng.normal(size=4)
            q /= np.linalg.norm(q)
            assert np.allclose(quat_to_matrix(q), quat_to_matrix(-q), atol=1e-15)

    def test_pose_quaternion_is_canonical(self):
        pose = Pose6D((0.0, 0.0, 0.0), (-0.5, 0.5, 0.5, 0.5))
        assert pose.quaternion[0] >= 0.0
        assert pose.quaternion == pytest.approx((0.5, -0.5, -0.5, -0.5))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_quaternion_rejected(self, bad):
        with pytest.raises(ValueError, match="quaternion must be finite"):
            Pose6D((0.1, 0.0, 0.1), (bad, 0.0, 0.0, 0.0))

    def test_quarter_z_quaternion_matrix(self):
        s = math.sqrt(0.5)
        R = quat_to_matrix((s, 0.0, 0.0, s))
        assert np.allclose(R, euler_zyx_to_matrix(90.0, 0.0, 0.0), atol=1e-12)

    def test_gimbal_lock_returns_zero_roll(self):
        for pitch in (90.0, -90.0):
            for yaw in (0.0, 30.0, -140.0):
                R = euler_zyx_to_matrix(yaw, pitch, 25.0)
                pose = matrix_to_pose(np.block([[R, np.zeros((3, 1))], [np.zeros((1, 3)), 1.0]]))
                got_yaw, got_pitch, got_roll = pose.euler_zyx_deg()
                assert got_roll == 0.0
                assert got_pitch == pytest.approx(pitch, abs=1e-6)
                # the same rotation must be reconstructible from the canonical triple
                R2 = euler_zyx_to_matrix(got_yaw, got_pitch, got_roll)
                assert np.max(np.abs(R2 - R)) <= 1e-9

    def test_euler_accessor_inverts_construction(self):
        rng = np.random.default_rng(43)
        for _ in range(300):
            yaw = float(rng.uniform(-179, 179))
            pitch = float(rng.uniform(-89, 89))
            roll = float(rng.uniform(-179, 179))
            pose = Pose6D.from_position_euler_zyx((0, 0, 0), yaw, pitch, roll)
            got = pose.euler_zyx_deg()
            assert got == pytest.approx((yaw, pitch, roll), abs=1e-9)

    def test_invert_transform(self):
        rng = np.random.default_rng(47)
        for _ in range(100):
            T = random_transform(rng)
            assert np.allclose(invert_transform(T) @ T, np.eye(4), atol=1e-12)


def bits_or_error(run, *args):
    """``run(*args)`` with every float as its ``float.hex``, or the type and
    message of the ValueError it raised."""
    try:
        result = run(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    return tuple(tuple(v.hex() for v in part) for part in result)


def pose_fields(T):
    pose = matrix_to_pose(T)
    return pose.position, pose.quaternion


def quaternion_field(q):
    return (Pose6D((0.0, 0.0, 0.0), q).quaternion,)


def signed_zeros(rng, M):
    """``M`` with each zero entry given a random sign."""
    M = np.array(M, dtype=float)
    zeros = M == 0.0
    M[zeros] = np.where(rng.random(int(zeros.sum())) < 0.5, 0.0, -0.0)
    return M


def half_turn(u):
    """Rotation by pi about unit axis ``u``: 2 u u^T - I, exactly symmetric,
    so the quaternion's w is 0."""
    u = np.asarray(u, dtype=float)
    return 2.0 * np.outer(u, u) - np.eye(3)


class TestPoseOracle:
    """matrix_to_pose and the Pose6D constructor read Python floats; they
    must give the oracle's numpy-scalar results bit for bit, errors
    included."""

    def rotations(self, rng):
        """Yield (label, 3x3 matrix) cases covering all four branches of
        matrix_to_quat, the w == 0 sign ties and signed zeros."""
        for _ in range(3000):
            yield "random", random_rotation(rng)
        for _ in range(3000):
            # Near half-turns: the diagonal decides the branch.
            u = rng.normal(size=3)
            R = half_turn(u / np.linalg.norm(u))
            if rng.random() < 0.5:
                R = R @ quat_to_matrix(np.r_[1.0, rng.normal(scale=1e-3, size=3)] / 1.0000005)
            yield "half_turn", R
        axes = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0.6, 0.8), (0.6, 0, 0.8), (0.6, 0.8, 0), (0, 1, 1), (1, 1, 1)]
        for _ in range(300):
            for axis in axes:
                u = np.array(axis, dtype=float) * np.where(rng.random(3) < 0.5, -1.0, 1.0)
                yield "axis_half_turn", signed_zeros(rng, half_turn(u / np.linalg.norm(u)))
        diagonals = [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]
        for _ in range(300):
            for d in diagonals:
                yield "diagonal", signed_zeros(rng, np.diag(d))
            P = np.eye(3)[rng.permutation(3)] * np.where(rng.random(3) < 0.5, -1.0, 1.0)
            yield "signed_permutation", signed_zeros(rng, P)
        for _ in range(1000):
            yield "general", rng.normal(size=(3, 3)) * 10.0 ** rng.uniform(-3, 3)

    def test_matrix_to_pose_matches_oracle_bit_for_bit(self):
        rng = np.random.default_rng(4099)
        branches = {"trace": 0, "x": 0, "y": 0, "z": 0}
        ties = negative_zeros = 0
        for label, R in self.rotations(rng):
            T = np.eye(4)
            T[:3, :3] = R
            T[:3, 3] = signed_zeros(rng, rng.uniform(-1.0, 1.0, 3) * (rng.random(3) < 0.8))
            got = bits_or_error(pose_fields, T)
            assert got == bits_or_error(naive_matrix_to_pose, T), label
            quat = bits_or_error(lambda R: (matrix_to_quat(R),), R)
            assert quat == bits_or_error(lambda R: (naive_matrix_to_quat(R),), R), label
            tr = R[0, 0] + R[1, 1] + R[2, 2]
            if tr > 0.0:
                branches["trace"] += 1
            elif R[0, 0] >= R[1, 1] and R[0, 0] >= R[2, 2]:
                branches["x"] += 1
            elif R[1, 1] >= R[2, 2]:
                branches["y"] += 1
            else:
                branches["z"] += 1
            quaternion = matrix_to_pose(T).quaternion
            ties += quaternion[0] == 0.0
            negative_zeros += any(v == 0.0 and math.copysign(1.0, v) < 0.0 for v in quaternion)
        assert min(branches.values()) > 1000, branches
        assert ties > 1000
        assert negative_zeros > 100

    def test_pose_quaternion_matches_oracle_bit_for_bit(self):
        rng = np.random.default_rng(4111)
        ties = errors = 0
        for _ in range(5000):
            q = rng.normal(size=4) * 10.0 ** rng.uniform(-150, 150)
            q[rng.random(4) < 0.3] = 0.0
            if rng.random() < 0.05:
                q[int(rng.integers(4))] = [math.nan, math.inf, -math.inf][int(rng.integers(3))]
            q = tuple(signed_zeros(rng, q).tolist())
            got = bits_or_error(quaternion_field, q)
            assert got == bits_or_error(lambda q: (naive_pose_quaternion(q),), q)
            ties += q[0] == 0.0
            errors += got[0] is ValueError
        assert ties > 1000
        assert errors > 100

    @pytest.mark.parametrize(
        "quaternion, moderate",
        [
            ((1e300, 1e300, 0.0, 0.0), (1.0, 1.0, 0.0, 0.0)),
            ((-1e308, 0.0, 0.0, 1e308), (-1.0, 0.0, 0.0, 1.0)),
            ((1e-200, 1e-200, 0.0, 0.0), (1.0, 1.0, 0.0, 0.0)),
            ((0.0, -1e-170, 0.0, 1e-170), (0.0, -1.0, 0.0, 1.0)),
            ((5e-324, 0.0, -0.0, 0.0), (1.0, 0.0, -0.0, 0.0)),
        ],
        ids=["overflow", "overflow_flip", "underflow", "underflow_tie", "subnormal"],
    )
    def test_squares_out_of_range_still_normalize(self, quaternion, moderate):
        """A finite nonzero quaternion whose sum of squares overflows to inf
        or underflows to 0 is scaled by its largest magnitude first; it gives
        the unit quaternion of the same direction, not zeros or an error."""
        assert bits_or_error(quaternion_field, quaternion) == bits_or_error(
            lambda q: (naive_pose_quaternion(q),), quaternion
        )
        got = quaternion_field(quaternion)
        assert got[0] == pytest.approx(Pose6D((0.0, 0.0, 0.0), moderate).quaternion, abs=1e-15)
        assert math.fsum(v * v for v in got[0]) == pytest.approx(1.0, abs=1e-15)

    def test_zero_quaternion_rejected(self):
        with pytest.raises(ValueError, match="^zero quaternion$"):
            Pose6D((0.0, 0.0, 0.0), (0.0, -0.0, 0.0, 0.0))


class TestRotationLog:
    def test_identity_is_zero(self):
        assert np.array_equal(rotation_log(np.eye(3)), np.zeros(3))

    def test_magnitude_matches_quaternion_angle(self):
        rng = np.random.default_rng(53)
        for _ in range(500):
            q = rng.normal(size=4)
            q /= np.linalg.norm(q)
            R = quat_to_matrix(q)
            angle = 2.0 * math.acos(min(1.0, abs(q[0])))
            assert np.linalg.norm(rotation_log(R)) == pytest.approx(angle, abs=1e-7)

    def test_half_turn_recovers_axis(self):
        for axis in (np.array([1.0, 0, 0]), np.array([0, 1.0, 0]), np.array([0.6, 0.8, 0.0])):
            w = math.cos(math.pi / 2)
            xyz = math.sin(math.pi / 2) * axis
            R = quat_to_matrix((w, *xyz))
            v = rotation_log(R)
            assert np.linalg.norm(v) == pytest.approx(math.pi, abs=1e-9)
            assert np.allclose(np.abs(v) / math.pi, np.abs(axis), atol=1e-9)

    def test_exp_log_consistency_small_angles(self):
        rng = np.random.default_rng(59)
        for _ in range(200):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            angle = float(rng.uniform(1e-12, 1e-7))
            w = math.cos(angle / 2)
            xyz = math.sin(angle / 2) * axis
            v = rotation_log(quat_to_matrix((w, *xyz)))
            assert np.allclose(v, angle * axis, atol=1e-12)


class TestJacobians:
    def test_planar_two_link_columns(self, planar2r):
        J = numeric_jacobian(planar2r, JointConfig((0.0,) * 6))
        assert np.allclose(J[:3, 0], [0.0, 2.0, 0.0], atol=1e-6)
        assert np.allclose(J[:3, 1], [0.0, 1.0, 0.0], atol=1e-6)

    def test_planar_matches_textbook_jacobian(self, planar2r):
        rng = np.random.default_rng(61)
        for _ in range(50):
            q1, q2 = rng.uniform(0.0, 2 * math.pi, 2)
            q = JointConfig((math.degrees(q1), math.degrees(q2), 0.0, 0.0, 0.0, 0.0))
            J = numeric_jacobian(planar2r, q)
            col1, col2 = planar_2r_jacobian_linear(q1, q2)
            assert np.allclose(J[:3, 0], col1, atol=1e-6)
            assert np.allclose(J[:3, 1], col2, atol=1e-6)

    def test_zero_geometry_arm_has_zero_linear_block(self):
        model = make_arm(alpha_deg=(90.0, 0.0, 0.0, 90.0, -90.0, 0.0))
        rng = np.random.default_rng(67)
        for _ in range(20):
            q = random_config(rng, model)
            J = numeric_jacobian(model, q)
            assert np.max(np.abs(J[:3, :])) <= 1e-9

    def test_numeric_agrees_with_geometric(self, arm):
        rng = np.random.default_rng(71)
        for _ in range(100):
            q = random_config(rng, arm)
            Jn = numeric_jacobian(arm, q)
            Jg = geometric_jacobian(arm, q)
            assert np.linalg.norm(Jn - Jg) / np.linalg.norm(Jg) <= 1e-5
