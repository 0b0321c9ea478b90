import contextlib
import dataclasses
import hashlib
import importlib.util
import io
import json
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from armkit import (
    ArmModel,
    DHRow,
    GrayImage,
    IkSettings,
    JointLimit,
    NoConvergenceError,
    Trajectory,
    UnreachableError,
    default_arm,
    dump_arm_config,
    forward_kinematics,
    matrix_to_pose,
    plan_pick_place,
    write_pgm,
)

WIDE_LIMITS = tuple(JointLimit(0.0, 359.0) for _ in range(6))
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# Fewer restarts and iterations than the defaults, for planning many cases.
QUICK = IkSettings(restarts=3, max_iterations=150)


def make_arm(
    a=(0.0,) * 6,
    d=(0.0,) * 6,
    alpha_deg=(0.0,) * 6,
    theta_offset_deg=(0.0,) * 6,
    limits=WIDE_LIMITS,
    name="test-arm",
):
    rows = tuple(
        DHRow(theta_offset_deg=t, alpha_deg=al, a_m=ai, d_m=di)
        for t, al, ai, di in zip(theta_offset_deg, alpha_deg, a, d)
    )
    return ArmModel(rows=rows, limits=limits, name=name)


def random_arm(rng: np.random.Generator, name="random-arm") -> ArmModel:
    a = rng.uniform(0.0, 0.3, 6)
    d = rng.uniform(-0.3, 0.3, 6)
    alpha = rng.uniform(-179.0, 180.0, 6)
    toff = rng.uniform(-179.0, 180.0, 6)
    lows = rng.uniform(0.0, 170.0, 6)
    highs = lows + rng.uniform(5.0, 180.0, 6)
    limits = tuple(JointLimit(float(lo), float(hi)) for lo, hi in zip(lows, highs))
    return make_arm(a=a, d=d, alpha_deg=alpha, theta_offset_deg=toff, limits=limits, name=name)


def random_config(rng: np.random.Generator, model: ArmModel):
    from armkit import JointConfig

    lo, hi = model.limits_deg
    return JointConfig(tuple(rng.uniform(lo, hi)))


def perfbench_run():
    """perfbench/run.py as a module; perfbench/ is only read."""
    # run.py imports its sibling modules by their bare names.
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


def warm_up_digest(run, workload, traced=False):
    """perfbench/run.py's digest of the records of ``workload``'s warm-up
    ops at its default seed (ik_cold loads its reference restart indexes
    only for that seed); ``traced`` adds each op's work counters, read off
    the calls that perfbench/tracing.py wraps."""
    bench = run.WORKLOADS[workload](run.Env(), run.WORKLOADS[workload].default_seed)
    if not traced:
        warm = run.run_pass(bench, count=bench.warmup_ops)
        assert [o.wrong for o in warm.outcomes] == [None] * bench.warmup_ops
        return run.digest(warm.records)
    tracer = run.Tracer()
    with tracer.installed():
        warm = run.run_pass(bench, count=bench.warmup_ops, tracer=tracer)
    assert [o.wrong for o in warm.outcomes] == [None] * bench.warmup_ops
    counters = run.op_counters(tracer.spans)
    return run.digest((warm.records[i], counters.get(i)) for i in range(bench.warmup_ops))


def write_wide_config(directory: Path) -> str:
    """The default geometry with wide-open limits, as an arm document."""
    base = default_arm()
    path = directory / "wide.json"
    path.write_text(dump_arm_config(ArmModel(rows=base.rows, limits=WIDE_LIMITS, name="wide-6dof")))
    return str(path)


def write_scene(directory: Path) -> dict:
    """60x60 workspace, 0.01 m/px calibration centered at (-0.3, -0.3), one
    5x5 block whose centroid sits at pixel (10, 30) = world (-0.2, 0.0)."""
    background = GrayImage.from_array(np.zeros((60, 60), dtype=np.uint8))
    px = np.zeros((60, 60), dtype=np.uint8)
    px[28:33, 8:13] = 220
    frame = GrayImage.from_array(px)
    bg_path = directory / "bg.pgm"
    frame_path = directory / "frame.pgm"
    write_pgm(background, bg_path)
    write_pgm(frame, frame_path)
    calib = [
        {"px": 0, "py": 0, "wx_m": -0.3, "wy_m": -0.3},
        {"px": 60, "py": 0, "wx_m": 0.3, "wy_m": -0.3},
        {"px": 60, "py": 60, "wx_m": 0.3, "wy_m": 0.3},
        {"px": 0, "py": 60, "wx_m": -0.3, "wy_m": 0.3},
    ]
    calib_path = directory / "calib.json"
    calib_path.write_text(json.dumps(calib))
    return {
        "background": str(bg_path),
        "frame": str(frame_path),
        "calib": str(calib_path),
    }


def detect_args(scene, threshold="50", min_area="10", table_z="0.02"):
    return [
        "--background",
        scene["background"],
        "--frame",
        scene["frame"],
        "--calib",
        scene["calib"],
        "--threshold",
        threshold,
        "--min-area",
        min_area,
        "--table-z",
        table_z,
    ]


def pick_output_sha256():
    """sha256 of what ``armkit pick`` prints for write_scene's block placed
    at (-0.15, -0.1, 0.02) by the wide arm."""
    from armkit.cli import main

    with tempfile.TemporaryDirectory() as name:
        directory = Path(name)
        args = ["pick", "--config", write_wide_config(directory), *detect_args(write_scene(directory))]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(args + ["--place-pos=-0.15,-0.1,0.02"]) == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def fk_pose(model, q):
    return matrix_to_pose(forward_kinematics(model, q))


def feasible_pair(model, rng, clearance=0.02):
    """Random object and place poses, drawn until ``model`` can plan the
    cycle between them with QUICK settings."""
    while True:
        obj = fk_pose(model, random_config(rng, model))
        place = fk_pose(model, random_config(rng, model))
        try:
            plan_pick_place(model, obj, place, clearance=clearance, ik_settings=QUICK)
            return obj, place
        except (UnreachableError, NoConvergenceError):
            continue


def make_trajectory(*knots):
    """A Trajectory through the given (JointConfig, gripper) knots."""
    return Trajectory(np.array([q.angles_deg for q, _ in knots]), tuple(g for _, g in knots))


# Replacement tokens for the fuzzers: numbers out of range, non-finite
# spellings, and things that are not numbers at all.
FUZZ_TOKENS = [
    "0", "-1", "255", "65535", "1e3", "-0", "99999999999999999999", "9" * 400, "1" * 5000,
    "NaN", "nan", "Infinity", "-Infinity", "inf", "1e400", "true", "null",
    '"1.0"', "[]", "{}", "[[[[", "}", ",", "#", "P5", "P2", "\xff", "",
]


def mutate(rng: np.random.Generator, data: bytes) -> bytes:
    """One random mutation: byte flips, truncation, a dropped, extra or
    replaced token."""
    kind = int(rng.integers(5))
    if kind == 0:
        buf = bytearray(data)
        for pos in rng.integers(0, len(buf), int(rng.integers(1, 4))):
            buf[pos] = int(rng.integers(256))
        return bytes(buf)
    if kind == 1:
        return data[: int(rng.integers(len(data)))]
    tokens = list(re.finditer(rb"[^\s,:\[\]{}]+", data))
    tok = tokens[int(rng.integers(len(tokens)))]
    new = FUZZ_TOKENS[int(rng.integers(len(FUZZ_TOKENS)))].encode("latin-1")
    if kind == 2:
        return data[: tok.start()] + data[tok.end() :]
    if kind == 3:
        return data[: tok.start()] + new + b" " + data[tok.start() :]
    return data[: tok.start()] + new + data[tok.end() :]


def float_bits(value):
    """``value`` with every float replaced by its ``float.hex``, through
    dataclasses, tuples and lists, so that comparing two results checks every
    bit, the sign of zero included."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return tuple(float_bits(v) for v in value)
    if dataclasses.is_dataclass(value):
        return (type(value).__name__,) + tuple(
            (f.name, float_bits(getattr(value, f.name))) for f in dataclasses.fields(value)
        )
    return value


@pytest.fixture
def arm():
    return default_arm()


@pytest.fixture
def planar2r():
    """Two unit links in the x-y plane embedded in six rows."""
    return make_arm(a=(1.0, 1.0, 0.0, 0.0, 0.0, 0.0))


@pytest.fixture
def wide_arm():
    """Default geometry with wide-open limits; reaches top-down grasps."""
    return ArmModel(rows=default_arm().rows, limits=WIDE_LIMITS, name="wide-6dof")
