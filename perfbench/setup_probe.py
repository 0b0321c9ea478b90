"""Time the program's set-up in a fresh interpreter and print it in seconds:
importing armkit, load_arm_config on the arm document, and the calibration
load plus estimate_homography.  run.py starts this several times per run."""
import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import armkit  # noqa: E402

armkit.load_arm_config((HERE / "data" / "wide_arm.json").read_text(encoding="utf-8"))
pixel_pts, world_pts = armkit.load_calibration((HERE / "data" / "calibration.json").read_text(encoding="utf-8"))
armkit.estimate_homography(pixel_pts, world_pts)
print(repr(time.perf_counter() - START))
