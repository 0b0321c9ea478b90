import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from armkit import GrayImage, default_arm, dump_arm_config, forward_kinematics, matrix_to_pose, write_pgm
from armkit.cli import main
from armkit.dh_model import ArmModel, JointLimit

MID = "90,135,45,135,90,45"
SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "arm.json"
    path.write_text(dump_arm_config(default_arm()))
    return str(path)


@pytest.fixture
def wide_config_path(tmp_path):
    base = default_arm()
    wide = ArmModel(
        rows=base.rows,
        limits=tuple(JointLimit(0.0, 359.0) for _ in range(6)),
        name="wide-6dof",
    )
    path = tmp_path / "wide.json"
    path.write_text(dump_arm_config(wide))
    return str(path)


@pytest.fixture
def scene(tmp_path):
    """60x60 workspace, 0.01 m/px calibration centered at (-0.3, -0.3), one
    5x5 block whose centroid sits at pixel (10, 30) = world (-0.2, 0.0)."""
    background = GrayImage.from_array(np.zeros((60, 60), dtype=np.uint8))
    px = np.zeros((60, 60), dtype=np.uint8)
    px[28:33, 8:13] = 220
    frame = GrayImage.from_array(px)
    bg_path = tmp_path / "bg.pgm"
    frame_path = tmp_path / "frame.pgm"
    write_pgm(background, bg_path)
    write_pgm(frame, frame_path)
    calib = [
        {"px": 0, "py": 0, "wx_m": -0.3, "wy_m": -0.3},
        {"px": 60, "py": 0, "wx_m": 0.3, "wy_m": -0.3},
        {"px": 60, "py": 60, "wx_m": 0.3, "wy_m": 0.3},
        {"px": 0, "py": 60, "wx_m": -0.3, "wy_m": 0.3},
    ]
    calib_path = tmp_path / "calib.json"
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


@pytest.mark.parametrize(
    "command, flag, value",
    [
        (["fk"], "--joints", "inf,90,90,90,90,90"),
        (["ik"], "--pos", "nan,0,0.1"),
        (["plan", "--place-pos=0,0.1,0.02"], "--object-pos", "nan,0,0"),
        (["plan", "--object-pos=0.1,0,0.05", "--place-pos=0,0.1,0.05"], "--clearance", "nan"),
        (
            ["pick", "--place-pos=0,0.1,0.02", "--background=bg.pgm", "--frame=frame.pgm"]
            + ["--calib=calib.json", "--threshold=50", "--min-area=10"],
            "--table-z",
            "nan",
        ),
    ],
)
def test_non_finite_number_is_usage_error(config_path, capsys, command, flag, value):
    with pytest.raises(SystemExit) as info:
        main([*command, "--config", config_path, f"{flag}={value}"])
    assert info.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err


class TestFk:
    def test_prints_transform_and_pose(self, config_path, capsys):
        assert main(["fk", "--config", config_path, "--joints", MID]) == 0
        out = capsys.readouterr().out
        assert "transform:" in out
        assert "pose:" in out
        assert "euler_zyx_deg:" in out
        # position row of the transform matches the library value to 6 sig figs
        T = forward_kinematics(default_arm(), default_arm().mid_config())
        assert f"{T[0, 3]:.6g}" in out

    def test_wrong_joint_count_is_usage_error(self, config_path):
        with pytest.raises(SystemExit) as info:
            main(["fk", "--config", config_path, "--joints", "1,2,3"])
        assert info.value.code == 2

    def test_missing_config_file_is_usage_error(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert main(["fk", "--config", missing, "--joints", MID]) == 2

    def test_non_finite_geometry_is_usage_error(self, tmp_path, capsys):
        doc = json.loads(dump_arm_config(default_arm()))
        doc["joints"][3]["d_m"] = float("nan")
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps(doc))  # json writes the NaN literal
        assert main(["fk", "--config", str(bad), "--joints", MID]) == 2
        captured = capsys.readouterr()
        assert "joint 3: 'd_m' must be a finite number" in captured.err
        assert captured.out == ""

    def test_invalid_config_document_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"name\": \"x\", \"joints\": []}")
        assert main(["fk", "--config", str(bad), "--joints", MID]) == 2
        assert "error:" in capsys.readouterr().err

    def test_deeply_nested_config_is_usage_error(self, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 50_000)
        assert main(["fk", "--config", str(deep), "--joints", MID]) == 2
        assert "malformed JSON" in capsys.readouterr().err


class TestIk:
    def test_position_only_solve(self, config_path, capsys):
        arm = default_arm()
        p = forward_kinematics(arm, arm.mid_config())[:3, 3]
        code = main(["ik", "--config", config_path, "--pos", f"{p[0]},{p[1]},{p[2]}"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["solution_deg"]) == 6
        assert doc["final_position_error_m"] <= 1e-4

    def test_full_pose_solve_with_euler(self, config_path, capsys):
        arm = default_arm()
        pose = matrix_to_pose(forward_kinematics(arm, arm.mid_config()))
        yaw, pitch, roll = pose.euler_zyx_deg()
        x, y, z = pose.position
        code = main(
            [
                "ik",
                "--config",
                config_path,
                "--pos",
                f"{x},{y},{z}",
                "--euler-zyx",
                f"{yaw},{pitch},{roll}",
                "--seed",
                MID,
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["final_orientation_error_rad"] <= 1e-3

    def test_unreachable_target_exits_3(self, config_path, capsys):
        assert main(["ik", "--config", config_path, "--pos", "2,0,0"]) == 3
        assert "error:" in capsys.readouterr().err


class TestDetect:
    def test_detection_json(self, scene, capsys):
        assert main(["detect", *detect_args(scene)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["pixel_centroid"] == [10.0, 30.0]
        assert doc["area"] == 25
        assert doc["world_point_m"][0] == pytest.approx(-0.2, abs=1e-9)
        assert doc["world_point_m"][1] == pytest.approx(0.0, abs=1e-9)
        assert doc["world_point_m"][2] == 0.02

    def test_non_finite_calibration_is_usage_error(self, scene, capsys):
        path = Path(scene["calib"])
        calib = json.loads(path.read_text())
        calib[2]["wx_m"] = float("inf")
        path.write_text(json.dumps(calib))  # json writes the Infinity literal
        assert main(["detect", *detect_args(scene)]) == 2
        captured = capsys.readouterr()
        assert "calibration entry 2: 'wx_m' must be a finite number" in captured.err
        assert captured.out == ""

    def test_no_detection_prints_none_and_exits_4(self, scene, capsys):
        args = detect_args(scene)
        args[3] = args[1]  # frame = background
        assert main(["detect", *args]) == 4
        assert capsys.readouterr().out.strip() == "none"


class TestPlanAndSim:
    def test_plan_emits_parseable_frames(self, wide_config_path, capsys):
        code = main(
            [
                "plan",
                "--config",
                wide_config_path,
                "--object-pos=-0.2,0,0.02",
                "--place-pos=-0.15,-0.1,0.02",
            ]
        )
        assert code == 0
        from armkit import parse_frame

        lines = capsys.readouterr().out.splitlines()
        assert len(lines) > 10
        frames = [parse_frame(line) for line in lines]
        assert [f.seq for f in frames] == list(range(len(frames)))

    def test_plan_unreachable_exits_3(self, config_path, capsys):
        code = main(
            [
                "plan",
                "--config",
                config_path,
                "--object-pos",
                "1,0,0",
                "--place-pos=0,0.2,0.1",
            ]
        )
        assert code == 3
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "object_pos, place_pos, frame_count, sha256",
        [
            # every waypoint solved from the caller's seed chain
            ("0.12,0.05,0.02", "-0.05,0.12,0.02", 151, "8ad3263b3f5ac2c5f90a2d618fec91164b08985177bd630fe3edb19604e63fb2"),
            # pre_place is solved by restart 8
            ("0.17,0.0,0.02", "0.0,-0.12,0.02", 242, "6e508b41056a0c4ebe2c5c243b15874753fee824e114808d438ccd3625cf3749"),
        ],
    )
    def test_plan_output_is_pinned(self, wide_config_path, capsys, object_pos, place_pos, frame_count, sha256):
        code = main(["plan", "--config", wide_config_path, f"--object-pos={object_pos}", f"--place-pos={place_pos}"])
        assert code == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()) == frame_count
        assert hashlib.sha256(out.encode()).hexdigest() == sha256

    @pytest.mark.parametrize(
        "object_pos, place_pos, sha256",
        [
            ("0.12,0.05,0.02", "-0.05,0.12,0.02", "d35d53e785cc7cd4de8832f0e7d9927c759900fce9b280601c988c75a8e6efae"),
            ("0.17,0.0,0.02", "0.0,-0.12,0.02", "1f2ac273c45f1d7bbd66ec9753462d5bd94d2732f7b8306c9ffe47e3b640a67e"),
        ],
    )
    def test_sim_output_is_pinned(self, wide_config_path, tmp_path, capsys, object_pos, place_pos, sha256):
        """Replays the two pinned plan streams above."""
        code = main(["plan", "--config", wide_config_path, f"--object-pos={object_pos}", f"--place-pos={place_pos}"])
        assert code == 0
        frames_path = tmp_path / "cycle.frames"
        frames_path.write_text(capsys.readouterr().out)
        assert main(["sim", "--config", wide_config_path, "--frames", str(frames_path)]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == sha256

    @pytest.mark.parametrize("flag", ["--rate", "--tick"])
    def test_sim_nan_setting_is_usage_error(self, config_path, tmp_path, capsys, flag):
        stream = tmp_path / "one.txt"
        stream.write_text("F 0 9000 13500 4500 13500 9000 4500 G 0\n")
        assert main(["sim", "--config", config_path, "--frames", str(stream), flag, "nan"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_sim_infinite_tick_is_usage_error(self, config_path, tmp_path, capsys):
        stream = tmp_path / "two.txt"
        stream.write_text("F 0 9000 13500 4500 13500 9000 4500 G 0\nF 1 0 18000 0 9000 18000 0 G 1\n")
        assert main(["sim", "--config", config_path, "--frames", str(stream), "--tick", "inf"]) == 2
        assert "tick_s" in capsys.readouterr().err

    def test_sim_time_overflow_is_usage_error(self, config_path, tmp_path, capsys):
        # Each moving frame takes one 1e308-s tick; the second overflows.
        stream = tmp_path / "three.txt"
        stream.write_text(
            "F 0 9000 13500 4500 13500 9000 4500 G 0\n"
            "F 1 0 18000 0 9000 18000 0 G 1\n"
            "F 2 9000 13500 4500 13500 9000 4500 G 0\n"
        )
        assert main(["sim", "--config", config_path, "--frames", str(stream), "--tick", "1e308"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "tick_s" in captured.err

    def test_sim_tiny_move_per_tick_is_usage_error(self, config_path, tmp_path, capsys):
        stream = tmp_path / "two.txt"
        stream.write_text("F 0 9000 13500 4500 13500 9000 4500 G 0\nF 1 0 18000 0 9000 18000 0 G 1\n")
        assert main(["sim", "--config", config_path, "--frames", str(stream), "--rate", "1e-300"]) == 2
        assert "rate_limit_deg_s * tick_s" in capsys.readouterr().err

    def test_sim_infinite_rate_gives_finite_report(self, config_path, tmp_path, capsys):
        stream = tmp_path / "two.txt"
        stream.write_text("F 0 9000 13500 4500 13500 9000 4500 G 0\nF 1 0 18000 0 9000 18000 0 G 1\n")
        assert main(["sim", "--config", config_path, "--frames", str(stream), "--rate", "inf"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["frames_sent"] == 2
        assert doc["sim_time_s"] == 0.01

    def test_sim_replays_plan_file(self, wide_config_path, tmp_path, capsys):
        assert (
            main(
                [
                    "plan",
                    "--config",
                    wide_config_path,
                    "--object-pos=-0.2,0,0.02",
                    "--place-pos=-0.15,-0.1,0.02",
                ]
            )
            == 0
        )
        frame_text = capsys.readouterr().out
        frames_path = tmp_path / "cycle.frames"
        frames_path.write_text(frame_text)
        assert main(["sim", "--config", wide_config_path, "--frames", str(frames_path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["success"] is True
        assert doc["frames_sent"] == len(frame_text.splitlines())
        assert doc["final_object_pose"] is None

    def test_sim_reads_stdin(self, wide_config_path, capsys, monkeypatch):
        assert (
            main(
                [
                    "plan",
                    "--config",
                    wide_config_path,
                    "--object-pos=-0.2,0,0.02",
                    "--place-pos=-0.15,-0.1,0.02",
                ]
            )
            == 0
        )
        frame_text = capsys.readouterr().out
        monkeypatch.setattr("sys.stdin", io.StringIO(frame_text))
        assert main(["sim", "--config", wide_config_path, "--frames", "-"]) == 0
        assert json.loads(capsys.readouterr().out)["success"] is True

    @pytest.mark.parametrize("source", ["file", "stdin"])
    @pytest.mark.parametrize(
        "separator, code", [("\r", 2), ("\r\n", 0)], ids=["lone_cr", "crlf"]
    )
    def test_sim_splits_a_file_and_stdin_alike(self, wide_config_path, tmp_path, source, separator, code):
        """The same bytes give the same frames from a file and from stdin: a
        lone CR stays inside its line, CRLF ends it."""
        data = f"F 0 0 18000 0 9000 18000 0 G 0{separator}F 1 9000 13500 4500 13500 9000 4500 G 0\n".encode()
        frames = tmp_path / "two.frames"
        frames.write_bytes(data)
        proc = subprocess.run(
            [sys.executable, "-m", "armkit.cli", "sim", "--config", wide_config_path, "--frames"]
            + (["-"] if source == "stdin" else [str(frames)]),
            input=data,
            capture_output=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])},
            timeout=60,
        )
        assert proc.returncode == code, proc.stderr
        if code:
            assert b"malformed servo frame" in proc.stderr
        else:
            assert json.loads(proc.stdout)["frames_sent"] == 2

    def test_sim_rejects_malformed_stream(self, wide_config_path, tmp_path, capsys):
        frames_path = tmp_path / "bad.frames"
        frames_path.write_text("F 0 not a frame\n")
        assert main(["sim", "--config", wide_config_path, "--frames", str(frames_path)]) == 2


class TestPick:
    def test_full_cycle_from_vision(self, wide_config_path, scene, capsys):
        code = main(
            [
                "pick",
                "--config",
                wide_config_path,
                *detect_args(scene),
                "--place-pos=-0.15,-0.1,0.02",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["success"] is True
        final = doc["final_object_pose"]["position_m"]
        assert final[0] == pytest.approx(-0.15, abs=0.002)
        assert final[1] == pytest.approx(-0.1, abs=0.002)

    def test_pick_output_is_pinned(self, wide_config_path, scene, capsys):
        code = main(["pick", "--config", wide_config_path, *detect_args(scene), "--place-pos=-0.15,-0.1,0.02"])
        assert code == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "2e4272c106c035fdf038c183f5b30a5ceffa596d6a090a3040b6d0be277f9d54"
        )

    def test_empty_scene_exits_4(self, wide_config_path, scene, capsys):
        args = detect_args(scene)
        args[3] = args[1]  # frame = background
        code = main(
            ["pick", "--config", wide_config_path, *args, "--place-pos=-0.15,-0.1,0.02"]
        )
        assert code == 4
        assert capsys.readouterr().out.strip() == "none"

    def test_unreachable_detection_exits_3(self, config_path, scene, capsys):
        # default-arm limits cannot realize a top-down grasp at the detected point
        code = main(
            ["pick", "--config", config_path, *detect_args(scene), "--place-pos=-0.15,-0.1,0.02"]
        )
        assert code == 3
        assert "error:" in capsys.readouterr().err
