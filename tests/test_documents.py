"""Seeded mutation sweep of the outside documents: the two JSON documents,
the arm configuration and the calibration file, and the PGM images.

Each mutated JSON document must load to the same result as the
per-document reader in ``naive_oracle``, or fail with the same exception
type and message.  Through the CLI (``fk --config``, ``detect --calib``,
``detect``/``pick`` with ``--background`` or ``--frame``) every mutant must
end with a documented exit code, and every exit-2 message must name the
document, its top-level field, or an entry and its field, or for an image
its flag."""
import copy
import json
import re
import time
from pathlib import Path

import numpy as np

from armkit import ArmConfigError, GrayImage, default_arm, dump_arm_config, load_arm_config, load_calibration, write_pgm
from armkit.cli import main

from conftest import detect_args, float_bits, write_scene, write_wide_config
from naive_oracle import naive_load_arm_config, naive_load_calibration

# JSON text put in place of a value: numbers out of range or at the bounds,
# non-finite spellings, the other JSON types, and nesting past the parser's
# recursion limit.
VALUE_TOKENS = [
    "NaN", "Infinity", "-Infinity", "1e308", "-1e308", "1e400", "-1e400", "-0.0", "-0", "0", "0.5", "-0.1",
    "180", "-180", "360", "1e3", "-1e3", "1000.0000000000001", "123456789012345678901234567890", "1" + "0" * 400,
    "true", "false", "null", '"1.0"', '""', "{}", "[]", "[1.0]", "[10.0, 20.0]", "[20.0, 10.0]", "[true, 1.0]",
    '{"a_m": 0.1}', "[" * 3000 + "]" * 3000,
]
EXTRA_KEYS = ["z", "limit_deg", "a_m", "px", "name", "joints", ""]


class Raw(str):
    """JSON text written as it stands."""


def dumps(value):
    if isinstance(value, Raw):
        return value
    if isinstance(value, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {dumps(v)}" for k, v in value.items()) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(dumps(v) for v in value) + "]"
    return json.dumps(value)


def _containers(value, found):
    if isinstance(value, (dict, list)):
        found.append(value)
        for child in value.values() if isinstance(value, dict) else value:
            _containers(child, found)
    return found


def mutate_document(rng, doc):
    """``doc`` (a fresh copy) with one to three random edits, serialized;
    one document in six is then cut at a random byte."""
    root = [doc]
    for _ in range(int(rng.integers(1, 4))):
        containers = _containers(root[0], [root])
        parent = containers[int(rng.integers(len(containers)))]
        kind = 0 if parent is root else int(rng.integers(4))
        token = Raw(VALUE_TOKENS[int(rng.integers(len(VALUE_TOKENS)))])
        keys = list(parent) if isinstance(parent, dict) else list(range(len(parent)))
        if kind == 0 and keys:
            parent[keys[int(rng.integers(len(keys)))]] = token
        elif kind == 1 and keys:
            del parent[keys[int(rng.integers(len(keys)))]]
        elif kind == 2 and isinstance(parent, dict):
            parent[EXTRA_KEYS[int(rng.integers(len(EXTRA_KEYS)))]] = token
        elif kind == 2:
            parent.insert(int(rng.integers(len(parent) + 1)), token)
        elif keys:
            parent[keys[int(rng.integers(len(keys)))]] = copy.deepcopy(parent[keys[0]])
    text = dumps(root[0])
    if rng.integers(6) == 0:
        text = text[: int(rng.integers(len(text) + 1))]
    return text


def arm_outcome(load, text):
    try:
        model = load(text)
    except Exception as exc:
        return type(exc), str(exc)
    return model.name, float_bits(model.rows), float_bits(model.limits)


def calibration_outcome(load, text):
    try:
        pixel_pts, world_pts = load(text)
    except Exception as exc:
        return type(exc), str(exc)
    return tuple((a.dtype.str, a.shape, a.flags.c_contiguous, a.tobytes()) for a in (pixel_pts, world_pts))


def _arm_documents():
    default = json.loads(dump_arm_config(default_arm()))
    no_limits = json.loads(dump_arm_config(default_arm()))
    for i, joint in enumerate(no_limits["joints"]):
        joint["a_m"] = [0, 1, 2, 1000, 0, 0][i]
        if i % 2:
            del joint["limit_deg"]
    return [default, no_limits]


CALIBRATION = [
    {"px": 0, "py": 0, "wx_m": -0.3, "wy_m": -0.3},
    {"px": 60, "py": 0, "wx_m": 0.3, "wy_m": -0.3},
    {"px": 60, "py": 60, "wx_m": 0.3, "wy_m": 0.3},
    {"px": 0, "py": 60, "wx_m": -0.3, "wy_m": 0.3},
    {"px": 30, "py": 30.5, "wx_m": 0.0, "wy_m": 0.005},
]


def _sweep(documents, count, seed):
    rng = np.random.default_rng(seed)
    return [mutate_document(rng, json.loads(json.dumps(documents[i % len(documents)]))) for i in range(count)]


def _kind(outcome):
    """An outcome's message with its numbers, reprs and JSON positions dropped."""
    if not isinstance(outcome[0], type):
        return "loaded"
    return re.sub(r"(: (Expecting|Extra|Unterminated|Invalid|maximum).*|got .*|-?\d+)", "", outcome[1])


class TestReadersMatchTheOracle:
    def test_arm_documents(self):
        kinds = set()
        for text in _sweep(_arm_documents(), 3000, 2020):
            got = arm_outcome(load_arm_config, text)
            assert got == arm_outcome(naive_load_arm_config, text), text[:300]
            assert got[0] is ArmConfigError or not isinstance(got[0], type), got
            kinds.add(_kind(got))
        # Every check of the reader and of the model is reached.
        assert {
            "loaded",
            "malformed JSON",
            "top level must be a JSON object",
            "unknown top-level fields: ['z']",
            "'name' must be a string",
            "'joints' must be an array",
            "expected  joints, ",
            "joint : must be an object",
            "joint : unknown fields: ['z']",
            "joint : missing field 'a_m'",
            "joint : 'a_m' must be a finite number, ",
            "joint : 'd_m' must lie within ± m, ",
            "joint : link length a_m must be >= , ",
            "joint : alpha_deg must lie in (, ], ",
            "joint : 'limit_deg' must be a [min, max] number pair",
            "joint : limits must lie in [, ), ",
            "joint : limit min must be strictly below max, ",
        } <= kinds, sorted(kinds)

    def test_calibration_documents(self):
        kinds = set()
        for text in _sweep([CALIBRATION], 3000, 2121):
            got = calibration_outcome(load_calibration, text)
            assert got == calibration_outcome(naive_load_calibration, text), text[:300]
            assert got[0] is ValueError or not isinstance(got[0], type), got
            kinds.add(_kind(got))
        assert {
            "loaded",
            "malformed calibration JSON",
            "calibration file must be a JSON array",
            "calibration needs at least  correspondences, ",
            "calibration entry : must be an object",
            "calibration entry : unknown fields: ['z']",
            "calibration entry : missing field 'px'",
            "calibration entry : 'wy_m' must be a finite number, ",
        } <= kinds, sorted(kinds)


MID = "90,135,45,135,90,45"
ARM_FIELDS = r"(theta_offset_deg|alpha_deg|a_m|d_m|limit_deg|limit|limits|fields?)"
# An exit-2 message names the document or its top-level field, or an entry
# and the field at fault (or that the entry is no object).
ARM_MESSAGE = re.compile(
    r"error: (malformed JSON: .+|top level must be a JSON object|unknown top-level fields: .+"
    r"|'name' must be a string|'joints' must be an array|expected 6 joints, got \d+"
    rf"|joint [0-5]: (must be an object|.*\b{ARM_FIELDS}\b.*))\n"
)
CALIBRATION_MESSAGE = re.compile(
    r"error: (malformed calibration JSON: .+|calibration file must be a JSON array"
    r"|calibration needs at least 4 correspondences, got \d+"
    r"|calibration entry \d+: (must be an object|unknown fields: .+|.*'(px|py|wx_m|wy_m)'.*)"
    # The reader accepted the document; the fit names the entries or the set.
    r"|(pixel|world) point \d+: coordinates must lie within ±1e\+06"
    r"|duplicate (pixel|world) points at indices \d+ and \d+|degenerate correspondence configuration.*)\n"
)


class TestCliOnMutatedDocuments:
    def test_fk_config(self, tmp_path, capsys):
        path = tmp_path / "arm.json"
        codes = set()
        for text in _sweep(_arm_documents(), 150, 2222):
            path.write_text(text, encoding="utf-8")
            code = main(["fk", "--config", str(path), "--joints", MID])
            err = capsys.readouterr().err
            assert code in (0, 2, 3, 4), text[:300]
            if code == 2:
                assert ARM_MESSAGE.fullmatch(err), err
            codes.add(code)
        assert codes == {0, 2}

    def test_detect_calib(self, tmp_path, capsys):
        px = np.zeros((60, 60), dtype=np.uint8)
        write_pgm(GrayImage.from_array(px), tmp_path / "bg.pgm")
        px[28:33, 8:13] = 220
        write_pgm(GrayImage.from_array(px), tmp_path / "frame.pgm")
        path = tmp_path / "calib.json"
        argv = ["detect", "--background", str(tmp_path / "bg.pgm"), "--frame", str(tmp_path / "frame.pgm")]
        argv += ["--calib", str(path), "--threshold", "50", "--min-area", "10", "--table-z", "0.02"]
        codes = set()
        for text in _sweep([CALIBRATION], 150, 2323):
            path.write_text(text, encoding="utf-8")
            code = main(argv)
            err = capsys.readouterr().err
            assert code in (0, 2, 3, 4), text[:300]
            if code == 2:
                assert CALIBRATION_MESSAGE.fullmatch(err), err
            codes.add(code)
        assert codes == {0, 2}


class TestCliOnMutatedImages:
    """``armkit detect`` and ``armkit pick`` on write_scene's images with one
    of them mutated: its payload cut at a random byte or extended, its
    header giving dimensions that differ from the other image's, or a header
    token of 0, -1 or 10**30.  Exit codes stay documented, every exit-2
    message names the mutated image's flag, and no case is slow."""

    CASE_BOUND_S = 0.25
    SWEEP_BOUND_S = 1.5

    @staticmethod
    def mutate(rng, data):
        """``data``, a P5 image of write_scene, with one seeded mutation."""
        header, payload = data[: data.index(b"255\n") + 4], data[data.index(b"255\n") + 4 :]
        kind = int(rng.integers(4))
        if kind == 0:
            return data[: int(rng.integers(len(data)))]
        if kind == 1:
            return data + rng.integers(0, 256, int(rng.integers(1, 100)), dtype=np.uint8).tobytes()
        if kind == 2:
            width, height = int(rng.integers(1, 80)), int(rng.integers(1, 80))
            if (width, height) == (60, 60):
                width += 1
            return f"P5\n{width} {height}\n255\n".encode() + bytes(width * height)
        tokens = header.split()
        tokens[int(rng.integers(1, 4))] = (b"0", b"-1", b"1" + b"0" * 30)[int(rng.integers(3))]
        return b" ".join(tokens) + b"\n" + payload

    def test_detect_and_pick(self, tmp_path, capsys):
        scene = write_scene(tmp_path)
        config = write_wide_config(tmp_path)
        images = {"--background": Path(scene["background"]), "--frame": Path(scene["frame"])}
        originals = {flag: path.read_bytes() for flag, path in images.items()}
        rng = np.random.default_rng(2929)
        codes = set()
        sweep = time.perf_counter()
        for case in range(120):
            flag = ("--background", "--frame")[case % 2]
            images[flag].write_bytes(self.mutate(rng, originals[flag]))
            argv = ["detect", *detect_args(scene)]
            if case % 4 >= 2:
                argv = ["pick", "--config", config, *argv[1:], "--place-pos=-0.15,-0.1,0.02"]
            start = time.perf_counter()
            code = main(argv)
            elapsed = time.perf_counter() - start
            err = capsys.readouterr().err
            images[flag].write_bytes(originals[flag])
            assert code in (0, 2, 3, 4), (argv, err)
            if code == 2:
                assert re.fullmatch(rf"error: .*{flag} {re.escape(str(images[flag]))}.*\n", err), err
            assert elapsed < self.CASE_BOUND_S, (argv, elapsed)
            codes.add(code)
        assert time.perf_counter() - sweep < self.SWEEP_BOUND_S
        assert codes == {0, 2}
