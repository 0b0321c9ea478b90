"""Workspace perception fallback: background subtraction against a stored
frame, 4-connected blob extraction, and pixel-to-table-plane calibration.

Image fixtures travel as binary PGM (P5, maxval 255), read and written
bit-exactly.  Calibration files are JSON arrays of >= 4 objects
``{px, py, wx_m, wy_m}`` pairing pixel coordinates with table-plane meters.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class HomographyError(ValueError):
    """Calibration input is degenerate or otherwise unusable."""


@dataclass(frozen=True, eq=False)
class GrayImage:
    """Row-major 8-bit grayscale frame."""

    width: int
    height: int
    pixels: np.ndarray

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError("image must be at least 1x1")
        px = np.asarray(self.pixels)
        if px.shape != (self.height, self.width):
            raise ValueError(
                f"pixel array shape {px.shape} does not match {self.height}x{self.width}"
            )
        if px.dtype != np.uint8:
            if not np.issubdtype(px.dtype, np.integer):
                raise ValueError("pixel intensities must be integers")
            if px.size and (px.min() < 0 or px.max() > 255):
                raise ValueError("pixel intensities must lie in [0, 255]")
            px = px.astype(np.uint8)
        else:
            px = px.copy()
        px.flags.writeable = False
        object.__setattr__(self, "pixels", px)

    @classmethod
    def from_array(cls, pixels) -> "GrayImage":
        px = np.asarray(pixels)
        if px.ndim != 2:
            raise ValueError("expected a 2-D pixel array")
        return cls(width=px.shape[1], height=px.shape[0], pixels=px)


@dataclass(frozen=True, eq=False)
class BinaryMask:
    """Foreground bits with the dimensions of the source images."""

    width: int
    height: int
    bits: np.ndarray

    def __post_init__(self) -> None:
        bits = np.asarray(self.bits, dtype=bool)
        if bits.shape != (self.height, self.width):
            raise ValueError(
                f"bit array shape {bits.shape} does not match {self.height}x{self.width}"
            )
        bits = bits.copy()
        bits.flags.writeable = False
        object.__setattr__(self, "bits", bits)

    def count(self) -> int:
        return int(self.bits.sum())


@dataclass(frozen=True)
class Blob:
    """One connected component: sub-pixel centroid (x, y), area, and the
    (row, col) of its first pixel in scan order."""

    pixel_centroid: tuple[float, float]
    area: int
    top_left: tuple[int, int]


@dataclass(frozen=True)
class Detection:
    """A located object: image centroid plus its table-plane position."""

    pixel_centroid: tuple[float, float]
    area: int
    world_point: tuple[float, float, float]


def subtract_images(background: GrayImage, frame: GrayImage, threshold: float) -> BinaryMask:
    """Foreground mask: pixel set iff |frame - background| > threshold."""
    if (background.width, background.height) != (frame.width, frame.height):
        raise ValueError(
            f"image dimensions differ: {background.width}x{background.height} "
            f"vs {frame.width}x{frame.height}"
        )
    if not 0 <= threshold <= 255:
        raise ValueError(f"threshold must lie in [0, 255], got {threshold}")
    # uint8 throughout: an integer difference d exceeds t exactly when it
    # exceeds floor(t).
    a, b = frame.pixels, background.pixels
    diff = np.maximum(a, b)
    diff -= np.minimum(a, b)
    return BinaryMask(background.width, background.height, diff > math.floor(threshold))


def largest_blob(mask: BinaryMask, min_area: int) -> Blob | None:
    """Largest 4-connected component with area >= min_area, or None.

    Ties go to the component whose first scan-order pixel has the smaller
    (row, col).

    Two-pass labeling over row runs (He et al. 2008; Wu, Otoo & Suzuki
    2009): numpy extracts every row's [start, end) runs in scan order, one
    Python pass joins runs of adjacent rows whose columns overlap, and
    bincounts give each component's area and row/column sums.  Those sums
    are integers held exactly in float64 (below 2**53 for frames up to
    200,000 pixels on a side), so the centroid is the same correctly rounded
    quotient a per-pixel count gives.  The smaller run index is always the
    root, so each component's root is its first run in scan order.
    """
    bits = mask.bits
    rows = np.flatnonzero(bits.any(axis=1))
    if rows.size == 0:
        return None
    width = bits.shape[1]
    # Rows padded with a False column on each side: padded columns k and
    # k + 1 differ at k = start and k = end of each [start, end) run, so the
    # nonzeros alternate.
    padded = np.zeros((rows.size, width + 2), dtype=bool)
    padded[:, 1:-1] = bits[rows]
    flat = np.flatnonzero(padded[:, 1:] != padded[:, :-1])
    run_row = rows[flat[0::2] // (width + 1)]
    start = flat[0::2] % (width + 1)
    end = flat[1::2] % (width + 1)

    rr, ss, ee = run_row.tolist(), start.tolist(), end.tolist()
    runs = len(rr)
    parent = list(range(runs))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]  # path halving
            x = parent[x]
        return x

    above = 0  # first run of the row above that may still touch run k
    for k, (r, s, e) in enumerate(zip(rr, ss, ee)):
        while rr[above] < r - 1 or (rr[above] == r - 1 and ee[above] <= s):
            above += 1
        j = above
        while rr[j] == r - 1 and ss[j] < e:
            a, b = find(j), find(k)
            if a != b:
                parent[max(a, b)] = min(a, b)
            j += 1

    label = np.array([find(k) for k in range(runs)])
    length = end - start
    area = np.bincount(label, weights=length, minlength=runs)
    sum_r = np.bincount(label, weights=run_row * length, minlength=runs)
    sum_c = np.bincount(label, weights=(start + end - 1) * length // 2, minlength=runs)
    eligible = (label == np.arange(runs)) & (area >= min_area)
    if not eligible.any():
        return None
    best = int(np.argmax(np.where(eligible, area, -1.0)))  # first maximum: lowest root
    n = int(area[best])
    return Blob((int(sum_c[best]) / n, int(sum_r[best]) / n), n, (rr[best], ss[best]))


@dataclass(frozen=True, eq=False)
class Homography:
    """Invertible 3x3 map from homogeneous pixel coordinates to table-plane
    meters, normalized so the bottom-right entry is 1."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        H = np.asarray(self.matrix, dtype=float)
        if H.shape != (3, 3):
            raise ValueError("homography must be 3x3")
        if abs(H[2, 2]) < 1e-12:
            raise HomographyError("homography cannot be normalized (corner entry ~ 0)")
        H = H / H[2, 2]
        if abs(float(np.linalg.det(H))) <= 1e-12:
            raise HomographyError("homography is singular")
        H.flags.writeable = False
        object.__setattr__(self, "matrix", H)


def _normalization(points: np.ndarray) -> np.ndarray:
    """Hartley conditioning: translate the centroid to the origin and scale
    the mean distance to sqrt(2)."""
    centroid = points.mean(axis=0)
    dist = np.linalg.norm(points - centroid, axis=1).mean()
    scale = math.sqrt(2.0) / dist if dist > 0 else 1.0
    return np.array(
        [
            [scale, 0.0, -scale * centroid[0]],
            [0.0, scale, -scale * centroid[1]],
            [0.0, 0.0, 1.0],
        ]
    )


def _first_duplicate(pts: np.ndarray) -> tuple[int, int] | None:
    """The first pair of points closer than 1e-12, as indices ``(i, j)``
    with ``i < j``: the smallest ``i``, then the smallest ``j``.

    Points are bucketed on a 1e-12 grid, and each is compared only with the
    later points in the 3x3 cells around its own.  A close pair's cells
    differ by at most one in each axis: ``floor(x / 1e-12)`` is monotone,
    its rounding cannot stretch a gap under one cell to two, and where a
    coordinate's spacing exceeds 1e-12 a close pair shares that coordinate.
    A NaN coordinate falls in no cell that a lookup finds, and such a point
    is never close to another, as with the norm itself."""
    cells = np.floor(pts / 1e-12).tolist()
    buckets: dict[tuple[float, float], list[int]] = {}
    for i, (cx, cy) in enumerate(cells):
        buckets.setdefault((cx, cy), []).append(i)
    for i, (cx, cy) in enumerate(cells):
        near = [
            j
            for dx in (-1.0, 0.0, 1.0)
            for dy in (-1.0, 0.0, 1.0)
            for j in buckets.get((cx + dx, cy + dy), ())
            if j > i
        ]
        if near:
            close = np.flatnonzero(np.linalg.norm(pts[near] - pts[i], axis=1) < 1e-12)
            if close.size:
                return i, min(near[k] for k in close)
    return None


def estimate_homography(pixel_points, world_points) -> Homography:
    """Direct linear transform over normalized coordinates.

    Requires >= 4 correspondences with no duplicates and no rank-collapsing
    (e.g. collinear) arrangement; exact inputs reproject to ~1e-12 m.
    """
    px = np.asarray(pixel_points, dtype=float).reshape(-1, 2)
    wd = np.asarray(world_points, dtype=float).reshape(-1, 2)
    if px.shape[0] != wd.shape[0]:
        raise HomographyError("pixel and world point counts differ")
    n = px.shape[0]
    if n < 4:
        raise HomographyError(f"at least 4 correspondences required, got {n}")
    for label, pts in (("pixel", px), ("world", wd)):
        pair = _first_duplicate(pts)
        if pair is not None:
            raise HomographyError(f"duplicate {label} points at indices {pair[0]} and {pair[1]}")
    Tp = _normalization(px)
    Tw = _normalization(wd)
    px_n = (Tp @ np.column_stack([px, np.ones(n)]).T).T
    wd_n = (Tw @ np.column_stack([wd, np.ones(n)]).T).T
    A = np.zeros((2 * n, 9))
    for i in range(n):
        x, y = px_n[i, 0], px_n[i, 1]
        u, v = wd_n[i, 0], wd_n[i, 1]
        A[2 * i] = [x, y, 1.0, 0.0, 0.0, 0.0, -u * x, -u * y, -u]
        A[2 * i + 1] = [0.0, 0.0, 0.0, x, y, 1.0, -v * x, -v * y, -v]
    # A thin SVD of the 8 x 9 system of four points would drop the null vector.
    _, s, Vt = np.linalg.svd(A, full_matrices=2 * n < 9)
    if s[7] <= 1e-10 * s[0]:
        raise HomographyError("degenerate correspondence configuration (collinear points?)")
    Hn = Vt[-1].reshape(3, 3)
    H = np.linalg.inv(Tw) @ Hn @ Tp
    try:
        return Homography(H)
    except HomographyError as exc:
        raise HomographyError(f"degenerate correspondence configuration: {exc}") from exc


def pixel_to_world(h: Homography, p, table_height: float) -> np.ndarray:
    """Map a pixel to table-plane meters; z is the configured table height."""
    p = np.asarray(p, dtype=float).reshape(2)
    v = h.matrix @ np.array([p[0], p[1], 1.0])
    if abs(v[2]) < 1e-12:
        raise ValueError(f"pixel {tuple(p)} maps to infinity under this homography")
    return np.array([v[0] / v[2], v[1] / v[2], float(table_height)])


def detect_object(
    background: GrayImage,
    frame: GrayImage,
    h: Homography,
    *,
    threshold: float,
    min_area: int,
    table_height: float,
) -> Detection | None:
    """Subtraction -> largest blob -> table plane; None when nothing qualifies."""
    mask = subtract_images(background, frame, threshold)
    blob = largest_blob(mask, min_area)
    if blob is None:
        return None
    world = pixel_to_world(h, blob.pixel_centroid, table_height)
    return Detection(blob.pixel_centroid, blob.area, tuple(float(v) for v in world))


def pgm_bytes(image: GrayImage) -> bytes:
    """Serialize to binary PGM: P5 header, maxval 255, raw row-major payload."""
    header = f"P5\n{image.width} {image.height}\n255\n".encode("ascii")
    return header + image.pixels.tobytes()


def parse_pgm(data: bytes) -> GrayImage:
    """Parse binary PGM produced by pgm_bytes (or any P5 with maxval 255).

    Header tokens may be separated by any whitespace; '#' comments run to end
    of line.  Exactly one whitespace byte separates the maxval from the pixel
    payload.
    """
    pos = 0

    def next_token() -> bytes:
        nonlocal pos
        while pos < len(data):
            ch = data[pos : pos + 1]
            if ch == b"#":
                while pos < len(data) and data[pos : pos + 1] != b"\n":
                    pos += 1
            elif ch.isspace():
                pos += 1
            else:
                break
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ValueError("truncated PGM header")
        return data[start:pos]

    def next_number() -> int:
        token = next_token()
        if not token.isdigit():  # ASCII digits only; int() also takes a sign and '_'
            raise ValueError(f"{token!r} is not a decimal number")
        return int(token)

    magic = next_token()
    if magic != b"P5":
        raise ValueError(f"unsupported PGM magic {magic!r}; only binary P5 is accepted")
    try:
        width = next_number()
        height = next_number()
        maxval = next_number()
    except ValueError as exc:
        raise ValueError(f"malformed PGM header: {exc}") from exc
    if maxval != 255:
        raise ValueError(f"unsupported PGM maxval {maxval}; expected 255")
    if width < 1 or height < 1:
        raise ValueError(f"invalid PGM dimensions {width}x{height}")
    pos += 1  # single whitespace byte after maxval
    held = max(0, min(len(data) - pos, width * height))
    if held != width * height:
        raise ValueError(f"PGM payload holds {held} bytes, expected {width * height}")
    # A view into data; GrayImage copies it.
    pixels = np.frombuffer(data, dtype=np.uint8, count=held, offset=pos).reshape(height, width)
    return GrayImage(width=width, height=height, pixels=pixels)


def read_pgm(path) -> GrayImage:
    return parse_pgm(Path(path).read_bytes())


def write_pgm(image: GrayImage, path) -> None:
    Path(path).write_bytes(pgm_bytes(image))


_CALIBRATION_FIELDS = ("px", "py", "wx_m", "wy_m")


def load_calibration(text: str) -> tuple[np.ndarray, np.ndarray]:
    """Parse a calibration file into (pixel_points, world_points) arrays.

    Every field must be a finite JSON number: strings, bools, ``NaN`` and
    ``Infinity`` are rejected with the entry index and field name.
    """
    try:
        # Every JSON number becomes a float (too-large integers become inf).
        doc = json.loads(text, parse_int=float)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"malformed calibration JSON: {exc}") from exc
    if not isinstance(doc, list):
        raise ValueError("calibration file must be a JSON array")
    if len(doc) < 4:
        raise ValueError(f"calibration needs at least 4 correspondences, got {len(doc)}")
    pixel_pts = []
    world_pts = []
    for i, entry in enumerate(doc):
        if not isinstance(entry, dict):
            raise ValueError(f"calibration entry {i}: must be an object")
        unknown = set(entry) - set(_CALIBRATION_FIELDS)
        if unknown:
            raise ValueError(f"calibration entry {i}: unknown fields: {sorted(unknown)}")
        for key in _CALIBRATION_FIELDS:
            if key not in entry:
                raise ValueError(f"calibration entry {i}: missing field '{key}'")
            value = entry[key]
            if not isinstance(value, float) or not math.isfinite(value):
                raise ValueError(f"calibration entry {i}: '{key}' must be a finite number, got {value!r}")
        pixel_pts.append([entry["px"], entry["py"]])
        world_pts.append([entry["wx_m"], entry["wy_m"]])
    return np.array(pixel_pts), np.array(world_pts)
