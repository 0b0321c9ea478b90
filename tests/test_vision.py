import json
import time

import numpy as np
import pytest

from armkit import (
    BinaryMask,
    GrayImage,
    Homography,
    HomographyError,
    detect_object,
    estimate_homography,
    largest_blob,
    load_calibration,
    parse_pgm,
    pgm_bytes,
    pixel_to_world,
    read_pgm,
    subtract_images,
    write_pgm,
)
from armkit.vision import _first_duplicate

from conftest import mutate
from naive_oracle import naive_first_duplicate, naive_largest_blob, naive_subtract


def image(height, width, value=0):
    return GrayImage.from_array(np.full((height, width), value, dtype=np.uint8))


def with_block(base: GrayImage, rows: slice, cols: slice, value: int) -> GrayImage:
    px = base.pixels.copy()
    px[rows, cols] = value
    return GrayImage.from_array(px)


class TestSubtract:
    def test_identical_images_give_empty_mask(self):
        img = image(20, 30, 80)
        assert subtract_images(img, img, 10).count() == 0

    def test_block_count_matches_construction(self):
        background = image(50, 50, 0)
        frame = with_block(background, slice(10, 20), slice(15, 25), 200)
        mask = subtract_images(background, frame, 50)
        assert mask.count() == 100

    def test_threshold_255_blanks_everything(self):
        background = image(10, 10, 0)
        frame = image(10, 10, 255)
        assert subtract_images(background, frame, 255).count() == 0

    def test_threshold_is_strict(self):
        background = image(5, 5, 100)
        frame = image(5, 5, 150)
        assert subtract_images(background, frame, 50).count() == 0
        assert subtract_images(background, frame, 49).count() == 25

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimensions differ"):
            subtract_images(image(10, 10), image(10, 11), 10)

    def test_threshold_range_validated(self):
        img = image(4, 4)
        with pytest.raises(ValueError, match="threshold"):
            subtract_images(img, img, 256)

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(3)
        a = GrayImage.from_array(rng.integers(0, 256, (16, 16), dtype=np.uint8))
        b = GrayImage.from_array(rng.integers(0, 256, (16, 16), dtype=np.uint8))
        assert np.array_equal(subtract_images(a, b, 30).bits, subtract_images(b, a, 30).bits)

    def test_mask_cardinality_monotone_in_threshold(self):
        rng = np.random.default_rng(5)
        a = GrayImage.from_array(rng.integers(0, 256, (24, 24), dtype=np.uint8))
        b = GrayImage.from_array(rng.integers(0, 256, (24, 24), dtype=np.uint8))
        counts = [subtract_images(a, b, t).count() for t in range(0, 256, 15)]
        assert counts == sorted(counts, reverse=True)

    @pytest.mark.parametrize("threshold", [0, 0.5, 39.999, 40, 40.5, 254.5, 255])
    def test_matches_int16_oracle(self, threshold):
        """The uint8 difference compared with floor(threshold) sets the same
        bits as the signed difference compared with the threshold itself."""
        rng = np.random.default_rng(7)
        for _ in range(20):
            shape = tuple(int(v) for v in rng.integers(1, 40, 2))
            a = GrayImage.from_array(rng.integers(0, 256, shape, dtype=np.uint8))
            # Half the frames differ from the background by little, so many
            # differences sit at the threshold.
            if rng.random() < 0.5:
                b = GrayImage.from_array(rng.integers(0, 256, shape, dtype=np.uint8))
            else:
                step = rng.integers(-int(threshold) - 2, int(threshold) + 3, shape)
                b = GrayImage.from_array(np.clip(a.pixels.astype(int) + step, 0, 255))
            for bg, fg in ((a, b), (b, a)):
                assert np.array_equal(subtract_images(bg, fg, threshold).bits, naive_subtract(bg, fg, threshold))


class TestBlobs:
    def test_rectangle_centroid_is_analytic_center(self):
        background = image(64, 64)
        frame = with_block(background, slice(20, 30), slice(30, 40), 220)
        mask = subtract_images(background, frame, 50)
        blob = largest_blob(mask, 1)
        assert blob is not None
        assert blob.pixel_centroid == (34.5, 24.5)
        assert blob.area == 100

    def test_small_blob_filtered_by_min_area(self):
        background = image(16, 16)
        frame = with_block(background, slice(4, 5), slice(2, 5), 255)  # 3 pixels
        mask = subtract_images(background, frame, 10)
        assert largest_blob(mask, 5) is None
        assert largest_blob(mask, 3) is not None

    def test_largest_of_two_blobs_wins(self):
        background = image(40, 40)
        frame = with_block(background, slice(2, 7), slice(2, 12), 255)  # 5x10 = 50
        frame = with_block(frame, slice(20, 28), slice(20, 30), 255)  # 8x10 = 80
        mask = subtract_images(background, frame, 10)
        blob = largest_blob(mask, 1)
        assert blob.area == 80
        assert blob.pixel_centroid == (24.5, 23.5)

    def test_equal_areas_tie_break_on_top_left(self):
        background = image(30, 30)
        frame = with_block(background, slice(20, 24), slice(1, 5), 255)
        frame = with_block(frame, slice(2, 6), slice(10, 14), 255)
        mask = subtract_images(background, frame, 10)
        blob = largest_blob(mask, 1)
        assert blob.top_left == (2, 10)

    def test_diagonal_pixels_are_separate_components(self):
        px = np.zeros((4, 4), dtype=np.uint8)
        px[0, 0] = 255
        px[1, 1] = 255
        mask = subtract_images(image(4, 4), GrayImage.from_array(px), 10)
        blob = largest_blob(mask, 1)
        assert blob.area == 1
        assert blob.top_left == (0, 0)


def _spiral(n: int) -> np.ndarray:
    """Square spiral path walked clockwise from the top-left corner, keeping
    one background pixel between neighbouring turns."""
    grid = np.zeros((n, n), dtype=bool)
    r, c, dr, dc = 0, 0, 0, 1
    grid[r, c] = True
    turns = 0
    while turns < 2:
        nr, nc, ar, ac = r + dr, c + dc, r + 2 * dr, c + 2 * dc
        blocked = not (0 <= nr < n and 0 <= nc < n) or grid[nr, nc]
        crowded = 0 <= ar < n and 0 <= ac < n and grid[ar, ac]
        if blocked or crowded:
            dr, dc = dc, -dr
            turns += 1
        else:
            r, c = nr, nc
            grid[r, c] = True
            turns = 0
    return grid


def _named_masks() -> dict[str, np.ndarray]:
    yy, xx = np.indices((10, 11))
    u = np.zeros((8, 9), dtype=bool)
    u[:, 1] = u[:, 7] = True
    u[7, 1:8] = True
    lopsided_u = np.zeros((8, 9), dtype=bool)  # the right arm starts first
    lopsided_u[2:, 1] = lopsided_u[:, 6] = True
    lopsided_u[7, 1:7] = True
    comb = np.zeros((6, 15), dtype=bool)  # seven teeth joined by the last row
    comb[:5, ::2] = True
    comb[5, :] = True
    nested_u = np.zeros((9, 11), dtype=bool)
    nested_u[:, 0] = nested_u[:, 10] = nested_u[8, :] = True
    nested_u[:6, 3] = nested_u[:6, 7] = nested_u[5, 3:8] = True
    nested_u[6, 5] = nested_u[7, 5] = True  # inner U hangs off the outer one's floor
    two_spirals = np.zeros((15, 32), dtype=bool)
    two_spirals[:, :15] = _spiral(15)
    two_spirals[:, 16:31] = _spiral(15)[:, ::-1]
    edges = np.zeros((9, 10), dtype=bool)
    edges[0, :] = True  # a run spanning the whole row
    edges[2, :3] = True  # touches column 0
    edges[2, 7:] = True  # touches the last column
    edges[4:, 0] = edges[4:, 9] = True
    edges[8, :] = True
    ties = np.zeros((10, 12), dtype=bool)  # five components of area 4
    ties[6:8, 0:2] = True
    ties[1:5, 10] = True
    ties[0:2, 4:6] = True  # first in scan order: the winner
    ties[3, 2:5] = ties[4, 4] = True
    ties[8, 6:10] = True
    ties_same_row = np.zeros((5, 8), dtype=bool)
    ties_same_row[1:3, 0:2] = True
    ties_same_row[1:5, 6] = True
    ties_same_row[0, 3] = True  # area 1, below min_area 2
    return {
        "empty": np.zeros((9, 13), dtype=bool),
        "full": np.ones((9, 13), dtype=bool),
        "checkerboard": (yy + xx) % 2 == 0,
        "checkerboard_odd": (yy + xx) % 2 == 1,
        "u": u,
        "lopsided_u": lopsided_u,
        "comb": comb,
        "nested_u": nested_u,
        "spiral": _spiral(17),
        "two_spirals": two_spirals,
        "edges": edges,
        "ties": ties,
        "ties_same_row": ties_same_row,
    }


MIN_AREAS = (0, 1, 2, 4, 30, 10**6)


class TestBlobOracle:
    """largest_blob must return exactly the per-pixel flood fill's Blob."""

    @staticmethod
    def _agree(bits: np.ndarray) -> None:
        mask = BinaryMask(bits.shape[1], bits.shape[0], bits)
        for min_area in MIN_AREAS:
            assert largest_blob(mask, min_area) == naive_largest_blob(mask, min_area), (bits.shape, min_area)

    @pytest.mark.parametrize("name", sorted(_named_masks()))
    def test_constructed_masks(self, name):
        self._agree(_named_masks()[name])

    def test_seeded_random_masks(self):
        rng = np.random.default_rng(5005)
        shapes = [(1, 1), (1, 37), (41, 1), (2, 2), (3, 70), (70, 3), (70, 70)]
        shapes += [tuple(int(v) for v in rng.integers(1, 71, 2)) for _ in range(20)]
        for shape in shapes:
            for density in (0.0, 0.1, 0.3, 0.5, 0.6, 0.8, 1.0):
                self._agree(rng.random(shape) < density)

    def test_oracle_sanity(self):
        masks = _named_masks()
        checker = masks["checkerboard"]
        one = naive_largest_blob(BinaryMask(11, 10, checker), 1)
        assert (one.area, one.top_left) == (1, (0, 0))
        full = naive_largest_blob(BinaryMask(13, 9, masks["full"]), 1)
        assert (full.area, full.pixel_centroid) == (117, (6.0, 4.0))
        spiral = masks["spiral"]
        assert naive_largest_blob(BinaryMask(17, 17, spiral), 1).area == spiral.sum()
        assert naive_largest_blob(BinaryMask(9, 8, masks["lopsided_u"]), 1).top_left == (0, 6)
        assert naive_largest_blob(BinaryMask(12, 10, masks["ties"]), 1).top_left == (0, 4)
        assert naive_largest_blob(BinaryMask(8, 5, masks["ties_same_row"]), 2).top_left == (1, 0)
        assert naive_largest_blob(BinaryMask(13, 9, masks["empty"]), 0) is None


class TestHomography:
    UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])

    def test_identity_from_fixed_square(self):
        h = estimate_homography(self.UNIT_SQUARE, self.UNIT_SQUARE)
        assert np.allclose(h.matrix, np.eye(3), atol=1e-9)

    def test_pure_scale_recovered(self):
        h = estimate_homography(self.UNIT_SQUARE, 2.0 * self.UNIT_SQUARE)
        assert np.allclose(h.matrix, np.diag([2.0, 2.0, 1.0]), atol=1e-9)

    def test_three_points_rejected(self):
        with pytest.raises(HomographyError, match="at least 4"):
            estimate_homography(self.UNIT_SQUARE[:3], self.UNIT_SQUARE[:3])

    def test_collinear_pixels_rejected(self):
        px = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 1.0]])
        with pytest.raises(HomographyError, match="degenerate"):
            estimate_homography(px, self.UNIT_SQUARE)

    def test_duplicate_points_rejected(self):
        px = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(HomographyError, match="^duplicate pixel points at indices 0 and 1$"):
            estimate_homography(px, self.UNIT_SQUARE)
        # On a large set the first pair in (i, j) order is named, pixels first.
        grid = np.array([[x, y] for x in range(50) for y in range(40)], dtype=float)
        px, world = grid.copy(), 0.01 * grid
        world[1717] = world[1500]
        with pytest.raises(HomographyError, match="^duplicate world points at indices 1500 and 1717$"):
            estimate_homography(px, world)
        px[900] = px[800]
        px[1900] = px[300]
        px[1200] = px[300] + [5e-13, 0.0]
        with pytest.raises(HomographyError, match="^duplicate pixel points at indices 300 and 1200$"):
            estimate_homography(px, world)

    def test_duplicate_check_matches_pairwise_scan(self):
        """Points a fraction of 1e-12 to a few times 1e-12 apart, at
        magnitudes where x / 1e-12 rounds and where a coordinate's spacing
        passes 1e-12: the grid names the pair the full scan names."""
        rng = np.random.default_rng(331)
        found = 0
        for _ in range(400):
            n = int(rng.integers(4, 30))
            base = rng.uniform(-1.0, 1.0, (n, 2)) * 10.0 ** rng.uniform(-13.0, 4.5)
            base = base[rng.integers(0, int(rng.integers(1, n)), n)]
            jitter = rng.uniform(-1.0, 1.0, (n, 2)) * 10.0 ** rng.uniform(-12.3, -10.5) * (rng.random((n, 1)) < 0.8)
            pts = base + jitter
            expected = naive_first_duplicate(pts)
            assert _first_duplicate(pts) == expected
            found += expected is not None
        assert 100 < found < 350

    def test_duplicate_check_scales(self):
        rng = np.random.default_rng(337)
        px = rng.uniform(0, 640, (20000, 2))
        world = 0.001 * px
        world[19999] = world[7] + [0.0, 9e-13]
        start = time.perf_counter()
        with pytest.raises(HomographyError, match="^duplicate world points at indices 7 and 19999$"):
            estimate_homography(px, world)
        assert time.perf_counter() - start < 3.0

    def test_large_calibration_set_fits_quickly(self):
        rng = np.random.default_rng(11)
        px = rng.uniform(0, 640, (2000, 2))
        H_true = np.array([[0.001, 0.0002, -0.3], [-0.0001, 0.0012, -0.2], [1e-5, 2e-5, 1.0]])
        world = (H_true @ np.column_stack([px, np.ones(2000)]).T).T
        world = world[:, :2] / world[:, 2:3]
        start = time.perf_counter()
        h = estimate_homography(px, world)
        assert time.perf_counter() - start < 5.0
        for p, w in zip(px[::100], world[::100]):
            assert np.linalg.norm(pixel_to_world(h, p, 0.0)[:2] - w) <= 1e-9

    def test_exact_correspondences_reproject_within_tolerance(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            H_true = np.eye(3) + rng.uniform(-0.2, 0.2, (3, 3))
            H_true[2, 2] = 1.0
            if abs(np.linalg.det(H_true)) < 1e-3:
                continue
            px = rng.uniform(0, 640, (6, 2))
            ones = np.ones((6, 1))
            world = (H_true @ np.hstack([px, ones]).T).T
            world = world[:, :2] / world[:, 2:3]
            h = estimate_homography(px, world)
            for p, w in zip(px, world):
                got = pixel_to_world(h, p, 0.0)
                assert np.linalg.norm(got[:2] - w) <= 1e-6

    def test_normalized_corner_entry(self):
        h = estimate_homography(self.UNIT_SQUARE, 3.0 * self.UNIT_SQUARE + 1.0)
        assert h.matrix[2, 2] == 1.0

    def test_singular_matrix_rejected(self):
        with pytest.raises(HomographyError):
            Homography(np.array([[1.0, 0, 0], [1.0, 0, 0], [0, 0, 1.0]]))


class TestPixelToWorld:
    def test_identity(self):
        got = pixel_to_world(Homography(np.eye(3)), (3.0, 4.0), 0.0)
        assert np.array_equal(got, [3.0, 4.0, 0.0])

    def test_pure_scale_with_table_height(self):
        h = Homography(np.diag([2.0, 2.0, 1.0]))
        got = pixel_to_world(h, (3.0, 4.0), 0.02)
        assert np.allclose(got, [6.0, 8.0, 0.02], atol=1e-12)

    def test_round_trip_through_inverse(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            M = np.eye(3) + rng.uniform(-0.3, 0.3, (3, 3))
            M[2, 2] = 1.0
            if abs(np.linalg.det(M)) < 1e-3:
                continue
            h = Homography(M)
            p = rng.uniform(0, 100, 2)
            w = pixel_to_world(h, p, 0.0)
            back = pixel_to_world(Homography(np.linalg.inv(h.matrix)), w[:2], 0.0)
            assert np.linalg.norm(back[:2] - p) <= 1e-9

    def test_point_at_infinity_rejected(self):
        h = Homography(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 1.0]]))
        with pytest.raises(ValueError, match="infinity"):
            pixel_to_world(h, (1.0, 4.0), 0.0)


class TestDetect:
    def test_no_change_gives_none(self):
        img = image(32, 32, 10)
        assert detect_object(img, img, Homography(np.eye(3)), threshold=20, min_area=5, table_height=0.0) is None

    def test_block_detected_at_centroid(self):
        background = image(64, 64)
        frame = with_block(background, slice(20, 30), slice(30, 40), 200)
        detection = detect_object(
            background, frame, Homography(np.eye(3)), threshold=50, min_area=10, table_height=0.01
        )
        assert detection.pixel_centroid == (34.5, 24.5)
        assert detection.area == 100
        assert detection.world_point == pytest.approx((34.5, 24.5, 0.01))

    def test_scaled_homography_scales_world_point(self):
        background = image(64, 64)
        frame = with_block(background, slice(20, 30), slice(30, 40), 200)
        h = Homography(np.diag([2.0, 2.0, 1.0]))
        detection = detect_object(background, frame, h, threshold=50, min_area=10, table_height=0.0)
        assert detection.world_point == pytest.approx((69.0, 49.0, 0.0))

    def test_translation_equivariance(self):
        background = image(80, 80)
        base = with_block(background, slice(10, 18), slice(12, 22), 255)
        moved = with_block(background, slice(10 + 7, 18 + 7), slice(12 + 13, 22 + 13), 255)
        h = Homography(np.eye(3))
        d0 = detect_object(background, base, h, threshold=40, min_area=5, table_height=0.0)
        d1 = detect_object(background, moved, h, threshold=40, min_area=5, table_height=0.0)
        assert d1.pixel_centroid[0] - d0.pixel_centroid[0] == 13.0
        assert d1.pixel_centroid[1] - d0.pixel_centroid[1] == 7.0


class TestPgm:
    def test_round_trip_bytes_exact(self):
        rng = np.random.default_rng(13)
        img = GrayImage.from_array(rng.integers(0, 256, (17, 23), dtype=np.uint8))
        data = pgm_bytes(img)
        again = parse_pgm(data)
        assert pgm_bytes(again) == data
        assert np.array_equal(again.pixels, img.pixels)

    def test_file_round_trip(self, tmp_path):
        rng = np.random.default_rng(17)
        img = GrayImage.from_array(rng.integers(0, 256, (9, 5), dtype=np.uint8))
        path = tmp_path / "fixture.pgm"
        write_pgm(img, path)
        again = read_pgm(path)
        assert np.array_equal(again.pixels, img.pixels)

    def test_header_comments_are_skipped(self):
        payload = bytes(range(6))
        data = b"P5\n# a comment\n3 2\n# another\n255\n" + payload
        img = parse_pgm(data)
        assert img.width == 3 and img.height == 2
        assert img.pixels.tobytes() == payload

    def test_wrong_magic_rejected(self):
        with pytest.raises(ValueError, match="P5"):
            parse_pgm(b"P2\n2 2\n255\n0 0 0 0")

    def test_wrong_maxval_rejected(self):
        with pytest.raises(ValueError, match="maxval"):
            parse_pgm(b"P5\n2 2\n65535\n" + bytes(8))

    def test_truncated_payload_rejected(self):
        with pytest.raises(ValueError, match="^PGM payload holds 7 bytes, expected 16$"):
            parse_pgm(b"P5\n4 4\n255\n" + bytes(7))
        with pytest.raises(ValueError, match="^PGM payload holds 0 bytes, expected 16$"):
            parse_pgm(b"P5\n4 4\n255")

    def test_trailing_bytes_are_ignored(self):
        payload = bytes(range(6))
        img = parse_pgm(b"P5\n3 2\n255\n" + payload + b"trailing")
        assert img.pixels.tobytes() == payload

    def test_image_does_not_share_a_mutable_input(self):
        data = bytearray(b"P5\n3 2\n255\n" + bytes(range(6)))
        img = parse_pgm(data)
        data[-6:] = bytes(6)
        assert img.pixels.tobytes() == bytes(range(6))
        assert not img.pixels.flags.writeable

    @pytest.mark.parametrize(
        "header",
        [b"P5\n+1_0 1\n2_5_5\n", b"P5\n-1 1\n255\n", b"P5\n1_0 1\n255\n"],
    )
    def test_header_numbers_are_ascii_digits_only(self, header):
        with pytest.raises(ValueError, match="malformed PGM header"):
            parse_pgm(header + bytes(10))


class TestCalibration:
    def test_happy_path(self):
        text = json.dumps(
            [
                {"px": 0, "py": 0, "wx_m": -0.3, "wy_m": -0.3},
                {"px": 60, "py": 0, "wx_m": 0.3, "wy_m": -0.3},
                {"px": 60, "py": 60, "wx_m": 0.3, "wy_m": 0.3},
                {"px": 0, "py": 60, "wx_m": -0.3, "wy_m": 0.3},
            ]
        )
        pixel_pts, world_pts = load_calibration(text)
        h = estimate_homography(pixel_pts, world_pts)
        got = pixel_to_world(h, (30.0, 30.0), 0.0)
        assert np.allclose(got, [0.0, 0.0, 0.0], atol=1e-9)

    def test_too_few_entries_rejected(self):
        text = json.dumps([{"px": 0, "py": 0, "wx_m": 0, "wy_m": 0}] * 3)
        with pytest.raises(ValueError, match="at least 4"):
            load_calibration(text)

    def test_unknown_field_rejected(self):
        entries = [{"px": i, "py": 0, "wx_m": i, "wy_m": 0} for i in range(4)]
        entries[2]["z"] = 1
        with pytest.raises(ValueError, match="entry 2"):
            load_calibration(json.dumps(entries))

    def test_integer_fields_load_as_floats(self):
        entries = [{"px": i, "py": 0, "wx_m": i, "wy_m": 1} for i in range(4)]
        pixel_pts, world_pts = load_calibration(json.dumps(entries))
        assert pixel_pts.dtype == world_pts.dtype == np.float64
        assert world_pts.tolist() == [[float(i), 1.0] for i in range(4)]

    @pytest.mark.parametrize(
        "literal",
        [
            pytest.param('"1.0"', id="string"),
            pytest.param("true", id="bool"),
            pytest.param("NaN", id="nan"),
            pytest.param("-Infinity", id="infinity"),
            pytest.param("1" + "0" * 400, id="integer-beyond-float"),
            pytest.param("null", id="null"),
        ],
    )
    def test_non_finite_or_non_numeric_value_rejected(self, literal):
        entries = [{"px": i, "py": 0, "wx_m": i, "wy_m": 0} for i in range(4)]
        entries[1]["px"] = "@VALUE@"
        text = json.dumps(entries).replace('"@VALUE@"', literal)
        with pytest.raises(ValueError, match="calibration entry 1: 'px' must be a finite number"):
            load_calibration(text)

    def test_deep_nesting_rejected(self):
        with pytest.raises(ValueError, match="malformed calibration JSON"):
            load_calibration("[" * 100_000)

    def test_missing_field_named(self):
        entries = [{"px": i, "py": 0, "wx_m": i, "wy_m": 0} for i in range(4)]
        del entries[3]["wy_m"]
        with pytest.raises(ValueError, match="calibration entry 3: missing field 'wy_m'"):
            load_calibration(json.dumps(entries))


class TestParserFuzz:
    """Mutated inputs either parse to finite arrays or raise ValueError;
    any other exception, or a hang, fails the suite."""

    def test_parse_pgm(self):
        rng = np.random.default_rng(6161)
        payload = rng.integers(0, 256, 35, dtype=np.uint8).tobytes()
        valid = b"P5\n# fixture\n7 5\n255\n" + payload
        accepted = 0
        for _ in range(3000):
            data = mutate(rng, valid)
            try:
                img = parse_pgm(data)
            except ValueError:
                continue
            accepted += 1
            assert img.pixels.shape == (img.height, img.width)
            assert img.pixels.dtype == np.uint8
        assert accepted > 0  # some mutations (e.g. in the payload) stay valid

    def test_load_calibration(self):
        rng = np.random.default_rng(6262)
        entries = [
            {"px": 0, "py": 0, "wx_m": -0.3, "wy_m": -0.3},
            {"px": 60, "py": 0, "wx_m": 0.3, "wy_m": -0.3},
            {"px": 60, "py": 60.5, "wx_m": 0.3, "wy_m": 0.3},
            {"px": 0, "py": 60, "wx_m": -0.3, "wy_m": 0.3},
            {"px": 30, "py": 30, "wx_m": 0.0, "wy_m": 0.0},
        ]
        valid = json.dumps(entries).encode()
        accepted = 0
        for _ in range(3000):
            text = mutate(rng, valid).decode("latin-1")
            try:
                pixel_pts, world_pts = load_calibration(text)
            except ValueError:
                continue
            accepted += 1
            assert pixel_pts.shape == world_pts.shape == (len(pixel_pts), 2)
            assert np.isfinite(pixel_pts).all() and np.isfinite(world_pts).all()
        assert accepted > 0
