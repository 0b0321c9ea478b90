import json
import math

import numpy as np
import pytest

from armkit import (
    DEFAULT_JOINT_LIMITS_DEG,
    ArmConfigError,
    ArmModel,
    DHRow,
    JointConfig,
    JointLimit,
    check_limits,
    clamp_to_limits,
    default_arm,
    dump_arm_config,
    forward_kinematics,
    load_arm_config,
)
from armkit.dh_model import MAX_LINK_M

from conftest import make_arm, mutate, random_arm, random_config


def _doc(joints, name="doc-arm"):
    return json.dumps({"name": name, "joints": joints})


def _joint(toff=0.0, alpha=0.0, a=0.1, d=0.0, limit=None):
    entry = {"theta_offset_deg": toff, "alpha_deg": alpha, "a_m": a, "d_m": d}
    if limit is not None:
        entry["limit_deg"] = limit
    return entry


class TestLoad:
    def test_omitted_limits_fall_back_to_stock_ranges(self):
        model = load_arm_config(_doc([_joint() for _ in range(6)]))
        assert tuple((l.min_deg, l.max_deg) for l in model.limits) == DEFAULT_JOINT_LIMITS_DEG

    def test_stock_ranges_match_the_six_motors(self):
        assert DEFAULT_JOINT_LIMITS_DEG == (
            (0.0, 180.0),
            (90.0, 180.0),
            (0.0, 90.0),
            (90.0, 180.0),
            (0.0, 180.0),
            (0.0, 90.0),
        )

    def test_five_joints_rejected_naming_count(self):
        with pytest.raises(ArmConfigError, match="expected 6 joints, got 5"):
            load_arm_config(_doc([_joint() for _ in range(5)]))

    def test_negative_link_length_names_joint(self):
        joints = [_joint() for _ in range(6)]
        joints[2]["a_m"] = -0.1
        with pytest.raises(ArmConfigError, match="joint 2"):
            load_arm_config(_doc(joints))

    def test_unknown_top_level_field_rejected(self):
        text = json.dumps({"name": "x", "joints": [_joint() for _ in range(6)], "extra": 1})
        with pytest.raises(ArmConfigError, match="unknown top-level"):
            load_arm_config(text)

    def test_unknown_joint_field_rejected(self):
        joints = [_joint() for _ in range(6)]
        joints[4]["typo_m"] = 1.0
        with pytest.raises(ArmConfigError, match="joint 4.*typo_m"):
            load_arm_config(_doc(joints))

    def test_missing_joint_field_rejected(self):
        joints = [_joint() for _ in range(6)]
        del joints[1]["d_m"]
        with pytest.raises(ArmConfigError, match="joint 1.*d_m"):
            load_arm_config(_doc(joints))

    def test_non_numeric_field_rejected(self):
        joints = [_joint() for _ in range(6)]
        joints[0]["a_m"] = "long"
        with pytest.raises(ArmConfigError, match="joint 0"):
            load_arm_config(_doc(joints))

    @pytest.mark.parametrize("field", ["a_m", "d_m"])
    @pytest.mark.parametrize(
        "literal",
        [
            pytest.param("NaN", id="nan"),
            pytest.param("Infinity", id="inf"),
            pytest.param("-Infinity", id="-inf"),
            pytest.param("1e400", id="float-overflow"),
            pytest.param("1" + "0" * 400, id="integer-beyond-float"),
            pytest.param("true", id="bool"),
        ],
    )
    def test_non_finite_geometry_rejected_naming_field(self, field, literal):
        joints = [_joint() for _ in range(6)]
        joints[3][field] = "@VALUE@"
        text = _doc(joints).replace('"@VALUE@"', literal)
        with pytest.raises(ArmConfigError, match=f"joint 3: '{field}' must be a finite number"):
            load_arm_config(text)

    def test_integer_beyond_float_limit_rejected(self):
        joints = [_joint() for _ in range(6)]
        joints[2]["limit_deg"] = [0, "@VALUE@"]
        text = _doc(joints).replace('"@VALUE@"', "1" + "0" * 400)
        with pytest.raises(ArmConfigError, match="joint 2: limits must lie in"):
            load_arm_config(text)

    def test_integer_fields_load_as_floats(self):
        joints = [_joint(a=0, d=1, limit=[0, 90]) for _ in range(6)]
        model = load_arm_config(_doc(joints))
        assert model.rows[0] == DHRow(0.0, 0.0, 0.0, 1.0)
        assert all(type(v) is float for v in (model.rows[0].a_m, model.limits[0].max_deg))
        assert model.limits[0] == JointLimit(0.0, 90.0)

    def test_inverted_limit_rejected(self):
        joints = [_joint() for _ in range(6)]
        joints[3]["limit_deg"] = [120.0, 30.0]
        with pytest.raises(ArmConfigError, match="joint 3"):
            load_arm_config(_doc(joints))

    def test_degenerate_limit_rejected(self):
        joints = [_joint() for _ in range(6)]
        joints[5]["limit_deg"] = [90.0, 90.0]
        with pytest.raises(ArmConfigError, match="joint 5"):
            load_arm_config(_doc(joints))

    def test_limit_outside_circle_rejected(self):
        joints = [_joint() for _ in range(6)]
        joints[0]["limit_deg"] = [0.0, 360.0]
        with pytest.raises(ArmConfigError, match="joint 0"):
            load_arm_config(_doc(joints))

    def test_alpha_outside_half_open_interval_rejected(self):
        joints = [_joint() for _ in range(6)]
        joints[1]["alpha_deg"] = -180.0
        with pytest.raises(ArmConfigError, match="joint 1"):
            load_arm_config(_doc(joints))

    def test_malformed_json_rejected(self):
        with pytest.raises(ArmConfigError, match="malformed JSON"):
            load_arm_config("{not json")

    def test_deep_nesting_rejected(self):
        with pytest.raises(ArmConfigError, match="malformed JSON"):
            load_arm_config("[" * 50_000)

    def test_name_required(self):
        with pytest.raises(ArmConfigError, match="name"):
            load_arm_config(json.dumps({"joints": [_joint() for _ in range(6)]}))


class TestRoundTrip:
    def test_default_arm_round_trips(self):
        model = default_arm()
        assert load_arm_config(dump_arm_config(model)) == model

    def test_document_round_trips_field_identical(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            model = random_arm(rng)
            reloaded = load_arm_config(dump_arm_config(model))
            assert reloaded == model
            assert load_arm_config(dump_arm_config(reloaded)) == reloaded

    def test_radian_views_match_rows(self):
        model = default_arm()
        for (offset, ca, sa, a, d), r in zip(model.dh, model.rows):
            alpha = math.radians(r.alpha_deg)
            assert (offset, ca, sa, a, d) == (math.radians(r.theta_offset_deg), math.cos(alpha), math.sin(alpha), r.a_m, r.d_m)
        assert np.array_equal(model.a, [r.a_m for r in model.rows])


class TestLimits:
    def test_motor5_over_limit_is_single_violation(self, arm):
        q = JointConfig((90.0, 135.0, 45.0, 135.0, 90.0, 120.0))
        violations = check_limits(arm, q)
        assert len(violations) == 1
        assert violations[0].joint == 5
        assert violations[0].angle_deg == 120.0
        assert violations[0].limit == JointLimit(0.0, 90.0)

    def test_all_motors_at_min_is_valid(self, arm):
        q = JointConfig(tuple(l.min_deg for l in arm.limits))
        assert check_limits(arm, q) == []

    def test_all_motors_at_max_is_valid(self, arm):
        q = JointConfig(tuple(l.max_deg for l in arm.limits))
        assert check_limits(arm, q) == []

    def test_motor1_below_limit_is_single_violation(self, arm):
        q = JointConfig((90.0, 45.0, 45.0, 135.0, 90.0, 45.0))
        violations = check_limits(arm, q)
        assert [v.joint for v in violations] == [1]

    def test_clamp_examples(self, arm):
        q = JointConfig((90.0, 10.0, 45.0, 135.0, 90.0, 120.0))
        clamped = clamp_to_limits(arm, q)
        assert clamped.angles_deg[5] == 90.0
        assert clamped.angles_deg[2] == 45.0
        assert clamped.angles_deg[1] == 90.0

    def test_clamp_idempotent_and_valid(self, arm):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            q = JointConfig(tuple(rng.uniform(-360.0, 720.0, 6)))
            clamped = clamp_to_limits(arm, q)
            assert check_limits(arm, clamped) == []
            assert clamp_to_limits(arm, clamped) == clamped


class TestTypes:
    def test_joint_config_requires_six_angles(self):
        with pytest.raises(ValueError, match="6 joint angles"):
            JointConfig((1.0, 2.0, 3.0))

    def test_joint_config_radians_round_trip(self):
        q = JointConfig((0.0, 45.0, 90.0, 135.0, 180.0, 30.0))
        assert np.allclose(q.radians, np.radians(q.angles_deg))
        assert JointConfig.from_radians(np.radians((0, 90, 0, 0, 0, 0))).angles_deg[1] == pytest.approx(90.0)

    def test_model_requires_six_rows(self):
        with pytest.raises(ArmConfigError, match="expected 6 joints"):
            ArmModel(rows=(DHRow(),) * 5, limits=tuple(JointLimit(0, 10) for _ in range(6)))

    @pytest.mark.parametrize("field", ["a_m", "d_m"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_model_rejects_non_finite_geometry_naming_field(self, field, value):
        """Built in process, as the document loader already rejects them: a
        NaN link passes the a_m >= 0 check and makes the reach bound NaN."""
        geometry = {"a": (0.1,) * 6, "d": (0.0,) * 6}
        geometry[field[0]] = (0.1, 0.1, value, 0.1, 0.1, 0.1)
        with pytest.raises(ArmConfigError, match=rf"^joint 2: '{field}' must be a finite number, got {value!r}$"):
            make_arm(**geometry)

    @pytest.mark.parametrize("field", ["a_m", "d_m"])
    @pytest.mark.parametrize("value", [MAX_LINK_M * (1 + 2**-52), 1e10, -1e10])
    def test_model_rejects_link_past_bound_naming_field(self, field, value):
        geometry = {"a": (0.1,) * 6, "d": (0.0,) * 6}
        geometry[field[0]] = (0.1, value, 0.1, 0.1, 0.1, 0.1)
        with pytest.raises(ArmConfigError, match=rf"^joint 1: '{field}' must lie within ±1000 m, got {value}$"):
            make_arm(**geometry)

    def test_links_at_bound_load(self):
        joints = [_joint(a=MAX_LINK_M, d=(-MAX_LINK_M, MAX_LINK_M)[i % 2]) for i in range(6)]
        model = load_arm_config(_doc(joints))
        assert model.a.tolist() == [MAX_LINK_M] * 6 and np.abs(model.d).tolist() == [MAX_LINK_M] * 6

    def test_loader_rejects_link_past_bound(self):
        joints = [_joint() for _ in range(6)]
        joints[4]["d_m"] = -2e3
        with pytest.raises(ArmConfigError, match=r"^joint 4: 'd_m' must lie within ±1000 m, got -2000.0$"):
            load_arm_config(_doc(joints))

    def test_workspace_bound_sums_link_extents(self):
        model = make_arm(a=(0.1,) * 6, d=(-0.05,) * 6)
        assert model.workspace_bound() == pytest.approx(6 * 0.15)

    def test_mid_config_sits_at_interval_midpoints(self, arm):
        assert arm.mid_config().angles_deg == (90.0, 135.0, 45.0, 135.0, 90.0, 45.0)

    def test_random_configs_respect_their_generator(self, arm):
        rng = np.random.default_rng(2)
        for _ in range(100):
            q = random_config(rng, arm)
            assert check_limits(arm, q) == []


class TestConfigFuzz:
    """Mutated arm configuration documents either load to a model with
    finite geometry, limits and FK, or raise ArmConfigError; any other
    exception, or a hang, fails the suite."""

    def test_load_arm_config(self):
        rng = np.random.default_rng(6464)
        valid = dump_arm_config(default_arm()).encode()
        accepted = 0
        for _ in range(3000):
            text = mutate(rng, valid).decode("latin-1")
            try:
                model = load_arm_config(text)
            except ArmConfigError:
                continue
            accepted += 1
            rows = [(r.theta_offset_deg, r.alpha_deg, r.a_m, r.d_m) for r in model.rows]
            assert np.isfinite(rows).all() and np.isfinite(model.limits_deg).all()
            assert np.isfinite(forward_kinematics(model, model.mid_config())).all()
        assert accepted > 0


# Invalid inputs, each with the error it raises and the message naming the
# field or index at fault.
INVALID_INPUTS = {
    "limit-count": (
        lambda: ArmModel(rows=(DHRow(),) * 6, limits=tuple(JointLimit(0, 10) for _ in range(5))),
        r"^expected 6 joint limits, got 5$",
    ),
    "top-level-not-object": (lambda: load_arm_config("[]"), r"^top level must be a JSON object$"),
    "joints-not-array": (lambda: load_arm_config('{"name": "x", "joints": {}}'), r"^'joints' must be an array$"),
    "joint-not-object": (
        lambda: load_arm_config(_doc([_joint(), _joint(), 5, _joint(), _joint(), _joint()])),
        r"^joint 2: must be an object$",
    ),
}


@pytest.mark.parametrize("case", INVALID_INPUTS)
def test_invalid_input_names_the_field(case):
    build, message = INVALID_INPUTS[case]
    with pytest.raises(ArmConfigError, match=message):
        build()
