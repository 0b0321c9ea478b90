"""Workspace perception fallback: background subtraction against a stored
frame, 4-connected blob extraction, and pixel-to-table-plane calibration.

Image fixtures travel as binary PGM (P5, maxval 255), read and written
bit-exactly.  Calibration files are JSON arrays of >= 4 objects
``{px, py, wx_m, wy_m}`` pairing pixel coordinates with table-plane meters.
"""
from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._document import read_json, read_numbers


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
    # Every area lies in [1, bits.size]: min_area clamped to [1, bits.size + 1]
    # picks the same components, and an int beyond float range never reaches numpy.
    eligible = (label == np.arange(runs)) & (area >= min(max(min_area, 1), bits.size + 1))
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
        # A NaN entry would pass both tests below and reach every mapped point.
        if not np.isfinite(H).all():
            raise HomographyError("homography entries must be finite")
        if abs(H[2, 2]) < 1e-12:
            raise HomographyError("homography cannot be normalized (corner entry ~ 0)")
        H = H / H[2, 2]
        (h00, h01, h02), (h10, h11, h12), (h20, h21, h22) = H.tolist()
        det = h00 * (h11 * h22 - h12 * h21) - h01 * (h10 * h22 - h12 * h20) + h02 * (h10 * h21 - h11 * h20)
        if abs(det) <= 1e-12:
            raise HomographyError("homography is singular")
        H.flags.writeable = False
        object.__setattr__(self, "matrix", H)


def _normalization(xs: list[float], ys: list[float]) -> tuple[float, float, float]:
    """Hartley conditioning as (scale, cx, cy): translate the centroid
    (cx, cy) to the origin, then scale the mean distance to sqrt(2).  fsum
    rounds each mean once, in any order."""
    n = len(xs)
    cx, cy = math.fsum(xs) / n, math.fsum(ys) / n
    dist = math.fsum(map(math.hypot, [x - cx for x in xs], [y - cy for y in ys])) / n
    return (math.sqrt(2.0) / dist if dist > 0 else 1.0), cx, cy


# Jacobi converges quadratically; the sweep cap is a guard that no fit seen
# comes near.
_JACOBI_MAX_SWEEPS = 60


def _jacobi_svd(columns: list[list[float]]) -> tuple[list[float], list[list[float]]]:
    """One-sided (Hestenes) Jacobi SVD of the matrix whose columns are
    ``columns``, on Python floats: column pairs are rotated in a fixed
    (i, j) order, i < j, sweep after sweep, until a sweep rotates none.
    Returns the singular values (the final column lengths, one per column,
    unsorted) and the matching right singular vectors, each a list of
    ``len(columns)`` entries.  Works for fewer rows than columns: the
    surplus columns end at rounding level.  Jacobi keeps the small singular
    values to high relative accuracy (Demmel & Veselic 1992), which an
    eigen-solve of A^T A, with its squared condition number, would not.

    A pair counts as orthogonal when its cosine is within sqrt(rows) * u
    (u = 2**-53) of 0, LAPACK's dgesvj test.  A column shorter than
    rows * u times the whole matrix's Frobenius norm is rounding noise of
    random direction and is rotated no further: its right singular vector,
    orthogonal to the others, is already the null vector they leave."""
    k, m = len(columns), len(columns[0])
    a = [list(c) for c in columns]
    v = [[1.0 if r == c else 0.0 for r in range(k)] for c in range(k)]
    cosine_tol = math.sqrt(m) * 2.0**-53
    noise = (m * 2.0**-53) ** 2 * math.fsum(x * x for c in a for x in c)
    for _ in range(_JACOBI_MAX_SWEEPS):
        rotated = False
        for i in range(k - 1):
            for j in range(i + 1, k):
                ai, aj = a[i], a[j]
                alpha = sum(map(operator.mul, ai, ai))
                beta = sum(map(operator.mul, aj, aj))
                if alpha <= noise or beta <= noise:
                    continue
                gamma = sum(map(operator.mul, ai, aj))
                if not abs(gamma) > cosine_tol * math.sqrt(alpha) * math.sqrt(beta):
                    continue
                rotated = True
                zeta = (beta - alpha) / (2.0 * gamma)
                t = math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(1.0, zeta))
                cs = 1.0 / math.sqrt(1.0 + t * t)
                sn = cs * t
                a[i] = [cs * p - sn * q for p, q in zip(ai, aj)]
                a[j] = [sn * p + cs * q for p, q in zip(ai, aj)]
                vi, vj = v[i], v[j]
                v[i] = [cs * p - sn * q for p, q in zip(vi, vj)]
                v[j] = [sn * p + cs * q for p, q in zip(vi, vj)]
        if not rotated:
            break
    return [math.sqrt(sum(map(operator.mul, c, c))) for c in a], v


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


# Largest coordinate magnitude of a correspondence; within it no step of the
# fit overflows (at 1e154 the normalization's squares do).
MAX_POINT_COORD = 1e6


def estimate_homography(pixel_points, world_points) -> Homography:
    """Direct linear transform over normalized coordinates.

    Requires >= 4 correspondences of finite coordinates within
    ``MAX_POINT_COORD``, with no duplicates and no rank-collapsing (e.g.
    collinear) arrangement; exact inputs reproject to ~1e-12 m.
    """
    px = np.asarray(pixel_points, dtype=float).reshape(-1, 2)
    wd = np.asarray(world_points, dtype=float).reshape(-1, 2)
    if px.shape[0] != wd.shape[0]:
        raise HomographyError("pixel and world point counts differ")
    n = px.shape[0]
    if n < 4:
        raise HomographyError(f"at least 4 correspondences required, got {n}")
    for label, pts in (("pixel", px), ("world", wd)):
        far = np.flatnonzero(~(np.abs(pts) <= MAX_POINT_COORD).all(axis=1))
        if far.size:
            raise HomographyError(f"{label} point {far[0]}: coordinates must lie within ±{MAX_POINT_COORD:g}")
        pair = _first_duplicate(pts)
        if pair is not None:
            raise HomographyError(f"duplicate {label} points at indices {pair[0]} and {pair[1]}")
    xs, ys = px.T.tolist()
    us, vs = wd.T.tolist()
    sp, cpx, cpy = _normalization(xs, ys)
    sw, cwx, cwy = _normalization(us, vs)
    xs = [sp * (x - cpx) for x in xs]
    ys = [sp * (y - cpy) for y in ys]
    us = [sw * (u - cwx) for u in us]
    vs = [sw * (v - cwy) for v in vs]
    # The DLT system's nine columns, rows 2i and 2i + 1 interleaved:
    # [x, y, 1, 0, 0, 0, -ux, -uy, -u] and [0, 0, 0, x, y, 1, -vx, -vy, -v].
    zeros = [0.0] * n
    ones = [1.0] * n

    def rows(even: list[float], odd: list[float]) -> list[float]:
        return [e for pair in zip(even, odd) for e in pair]

    columns = [
        rows(xs, zeros), rows(ys, zeros), rows(ones, zeros),
        rows(zeros, xs), rows(zeros, ys), rows(zeros, ones),
        rows([-u * x for u, x in zip(us, xs)], [-v * x for v, x in zip(vs, xs)]),
        rows([-u * y for u, y in zip(us, ys)], [-v * y for v, y in zip(vs, ys)]),
        rows([-u for u in us], [-v for v in vs]),
    ]
    s, v = _jacobi_svd(columns)
    # Largest first; equal values keep column order, so the pick is fixed.
    order = sorted(range(9), key=lambda c: -s[c])
    if s[order[7]] <= 1e-10 * s[order[0]]:
        raise HomographyError("degenerate correspondence configuration (collinear points?)")
    # The null vector Hn, mapped back: H = Tw^-1 Hn Tp, where
    # Tp = [[sp, 0, -sp cpx], [0, sp, -sp cpy], [0, 0, 1]] and
    # Tw^-1 = [[1/sw, 0, cwx], [0, 1/sw, cwy], [0, 0, 1]].
    h00, h01, h02, h10, h11, h12, h20, h21, h22 = v[order[8]]
    r0 = (h00 * sp, h01 * sp, h02 - sp * (h00 * cpx + h01 * cpy))
    r1 = (h10 * sp, h11 * sp, h12 - sp * (h10 * cpx + h11 * cpy))
    r2 = (h20 * sp, h21 * sp, h22 - sp * (h20 * cpx + h21 * cpy))
    H = [
        [a / sw + cwx * c for a, c in zip(r0, r2)],
        [b / sw + cwy * c for b, c in zip(r1, r2)],
        list(r2),
    ]
    try:
        return Homography(np.array(H))
    except HomographyError as exc:
        raise HomographyError(f"degenerate correspondence configuration: {exc}") from exc


def pixel_to_world(h: Homography, p, table_height: float) -> np.ndarray:
    """Map a pixel to table-plane meters; z is the configured table height."""
    x, y = np.asarray(p, dtype=float).reshape(2).tolist()
    (h00, h01, h02), (h10, h11, h12), (h20, h21, h22) = h.matrix.tolist()
    w = h20 * x + h21 * y + h22
    if abs(w) < 1e-12:
        raise ValueError(f"pixel {(x, y)} maps to infinity under this homography")
    return np.array([(h00 * x + h01 * y + h02) / w, (h10 * x + h11 * y + h12) / w, float(table_height)])


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


# The four header tokens (magic, width, height, maxval), each after any run of
# whitespace and '#' comments; a bytes \s is exactly the bytes.isspace() set.
_PGM_HEADER = re.compile(rb"(?:\s|#[^\n]*)*(\S*)" * 4)


def parse_pgm(data: bytes) -> GrayImage:
    """Parse binary PGM produced by pgm_bytes (or any P5 with maxval 255).

    Header tokens may be separated by any whitespace; a '#' where a token
    would start opens a comment to end of line.  Exactly one whitespace byte
    separates the maxval from the pixel payload.
    """
    m = _PGM_HEADER.match(data)
    # Sliced from data, so a bytearray's tokens print as bytearrays.
    magic, *tokens = (data[m.start(g) : m.end(g)] for g in range(1, 5))
    if not magic:
        raise ValueError("truncated PGM header")
    if magic != b"P5":
        raise ValueError(f"unsupported PGM magic {magic!r}; only binary P5 is accepted")
    numbers = []
    try:
        for token in tokens:
            if not token.isdigit():  # ASCII digits only; int() also takes a sign and '_'
                raise ValueError(f"{token!r} is not a decimal number" if token else "truncated PGM header")
            numbers.append(int(token))
    except ValueError as exc:
        raise ValueError(f"malformed PGM header: {exc}") from exc
    width, height, maxval = numbers
    if maxval != 255:
        raise ValueError(f"unsupported PGM maxval {maxval}; expected 255")
    if width < 1 or height < 1:
        raise ValueError(f"invalid PGM dimensions {width}x{height}")
    pos = m.end() + 1  # single whitespace byte after maxval
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
    doc = read_json(text, ValueError, "calibration JSON")
    if not isinstance(doc, list):
        raise ValueError("calibration file must be a JSON array")
    if len(doc) < 4:
        raise ValueError(f"calibration needs at least 4 correspondences, got {len(doc)}")
    rows = [read_numbers(e, f"calibration entry {i}", _CALIBRATION_FIELDS, ValueError) for i, e in enumerate(doc)]
    return np.array([r[:2] for r in rows]), np.array([r[2:] for r in rows])
