"""Image I/O and geometry, checked against the loop oracles in reference.py."""

import numpy as np
import pytest

from boneage.errors import ContractError, ImageIOError
from boneage.imaging import (
    GrayImage,
    crop,
    flip_horizontal,
    load_image,
    resize_bilinear,
    rotate,
    save_image,
    shift_crop,
)

from reference import (
    chain_gather_ref,
    chain_sample_ref,
    flip_h_ref,
    resize_bilinear_gather_ref,
    resize_bilinear_ref,
    rot90_ref,
    rotate_bilinear_ref,
    shift_ref,
)


def _random_image(rng, h, w):
    return GrayImage(rng.random((h, w), dtype=np.float32))


# ---------------------------------------------------------------------------
# GrayImage container
# ---------------------------------------------------------------------------


def test_grayimage_rejects_wrong_rank():
    with pytest.raises(ContractError):
        GrayImage(np.zeros((2, 2, 3), dtype=np.float32))
    with pytest.raises(ContractError):
        GrayImage(np.zeros(5, dtype=np.float32))


def test_grayimage_rejects_empty():
    with pytest.raises(ContractError):
        GrayImage(np.zeros((0, 4), dtype=np.float32))


def test_from_array_range_check_and_clip():
    with pytest.raises(ContractError):
        GrayImage.from_array([[0.0, 1.5]])
    with pytest.raises(ContractError):
        GrayImage.from_array([[-0.1, 0.5]])
    img = GrayImage.from_array([[-0.1, 1.5]], clip=True)
    assert img.pixels.tolist() == [[0.0, 1.0]]


def test_width_height_follow_array_shape():
    img = GrayImage(np.zeros((3, 7), dtype=np.float32))
    assert (img.width, img.height) == (7, 3)


# ---------------------------------------------------------------------------
# PGM / PNG round trips
# ---------------------------------------------------------------------------


def test_pgm_roundtrip_is_byte_faithful(tmp_path):
    rng = np.random.default_rng(0)
    img = _random_image(rng, 13, 9)
    p = tmp_path / "im.pgm"
    save_image(img, p)
    back = load_image(p)
    want = np.floor(img.pixels * 255.0 + 0.5) / 255.0
    np.testing.assert_allclose(back.pixels, want, atol=1e-7)
    # a second write of the loaded image reproduces the file exactly
    p2 = tmp_path / "im2.pgm"
    save_image(back, p2)
    assert p.read_bytes() == p2.read_bytes()


def test_save_rounds_half_up(tmp_path):
    # 0.5 * 255 = 127.5, which must round to 128, not banker's 127
    img = GrayImage(np.full((1, 1), 0.5, dtype=np.float32))
    p = tmp_path / "half.pgm"
    save_image(img, p)
    assert p.read_bytes().endswith(bytes([128]))


def test_pgm_header_comments_are_skipped(tmp_path):
    p = tmp_path / "c.pgm"
    p.write_bytes(b"P5\n# made by hand\n3 # width\n2\n255\n" + bytes(6))
    img = load_image(p)
    assert (img.width, img.height) == (3, 2)
    assert img.pixels.max() == 0.0


def test_pgm_rejects_wrong_maxval(tmp_path):
    p = tmp_path / "m.pgm"
    p.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
    with pytest.raises(ImageIOError, match="maxval"):
        load_image(p)


def test_pgm_rejects_truncated_pixels(tmp_path):
    p = tmp_path / "t.pgm"
    p.write_bytes(b"P5\n4 4\n255\n" + bytes(7))
    with pytest.raises(ImageIOError, match="truncated"):
        load_image(p)


@pytest.mark.parametrize("extents", [b"-1 -1", b"0 4", b"4 0"])
def test_pgm_rejects_extents_below_one(tmp_path, extents):
    p = tmp_path / "e.pgm"
    p.write_bytes(b"P5\n" + extents + b"\n255\n" + bytes(16))
    with pytest.raises(ImageIOError, match=r"e\.pgm: PGM extents must be >= 1"):
        load_image(p)


@pytest.mark.parametrize(
    "header",
    [b"P52 1 255\n", b"P5\n+2 1\n255\n", b"P5\n1_0 1\n255\n"],
    ids=["magic-glued-to-width", "signed-width", "underscored-width"],
)
def test_pgm_rejects_malformed_header(tmp_path, header):
    # each parses with int() alone; the header wants whitespace after
    # the magic and plain ASCII digits
    p = tmp_path / "h.pgm"
    p.write_bytes(header + bytes(10))
    with pytest.raises(ImageIOError, match=r"h\.pgm: malformed PGM header"):
        load_image(p)


def test_unknown_magic_rejected(tmp_path):
    p = tmp_path / "x.img"
    p.write_bytes(b"GIF89a...")
    with pytest.raises(ImageIOError, match="unsupported"):
        load_image(p)


def test_missing_file_raises_io_error(tmp_path):
    with pytest.raises(ImageIOError):
        load_image(tmp_path / "nope.pgm")


def test_png_luminance_conversion(tmp_path):
    PIL = pytest.importorskip("PIL.Image")
    rgb = np.zeros((2, 2, 3), dtype=np.uint8)
    rgb[0, 0] = (255, 0, 0)
    rgb[0, 1] = (0, 255, 0)
    rgb[1, 0] = (0, 0, 255)
    rgb[1, 1] = (255, 255, 255)
    p = tmp_path / "c.png"
    PIL.fromarray(rgb, mode="RGB").save(p)
    img = load_image(p)
    want = np.array([[0.299, 0.587], [0.114, 1.0]])
    np.testing.assert_allclose(img.pixels, want, atol=1e-6)


def test_png_grayscale_maps_to_v_over_255(tmp_path):
    PIL = pytest.importorskip("PIL.Image")
    gray = np.arange(4, dtype=np.uint8).reshape(2, 2) * 80
    p = tmp_path / "g.png"
    PIL.fromarray(gray, mode="L").save(p)
    img = load_image(p)
    np.testing.assert_allclose(img.pixels, gray / 255.0, atol=1e-7)


# ---------------------------------------------------------------------------
# resize
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(8))
def test_resize_matches_loop_oracle(seed):
    rng = np.random.default_rng(seed)
    h, w = int(rng.integers(2, 14)), int(rng.integers(2, 14))
    out_h, out_w = int(rng.integers(1, 20)), int(rng.integers(1, 20))
    img = _random_image(rng, h, w)
    got = resize_bilinear(img, out_w, out_h)
    want = resize_bilinear_ref(img.pixels, out_w, out_h)
    assert got.pixels.shape == (out_h, out_w)
    np.testing.assert_allclose(got.pixels, want, atol=1e-5)


def _assert_resize_matches_gather(img, out_w, out_h):
    got = resize_bilinear(img, out_w, out_h)
    want = resize_bilinear_gather_ref(img.pixels, out_w, out_h)
    assert got.pixels.dtype == np.float32
    assert got.pixels.shape == (out_h, out_w)
    assert got.pixels.tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", range(24))
def test_resize_is_byte_identical_to_gather_oracle(seed):
    rng = np.random.default_rng(100 + seed)
    # sizes from 1 pixel up, including same-size and single-axis resizes
    h, w = int(rng.integers(1, 40)), int(rng.integers(1, 40))
    out_h = h if seed % 6 == 0 else int(rng.integers(1, 60))
    out_w = w if seed % 4 == 0 else int(rng.integers(1, 60))
    _assert_resize_matches_gather(_random_image(rng, h, w), out_w, out_h)


@pytest.mark.parametrize(
    "src, dst",
    [
        ((1, 1), (37, 23)),  # 1-pixel source
        ((29, 41), (1, 1)),  # 1-pixel target
        ((1, 50), (9, 3)),
        ((50, 1), (3, 9)),
        ((5, 3), (211, 157)),  # strong upsampling
        ((300, 257), (7, 5)),  # strong downsampling
        ((300, 4), (3, 40)),  # down in y, up in x
    ],
)
def test_resize_extreme_scales_are_byte_identical(src, dst):
    rng = np.random.default_rng(sum(src) + sum(dst))
    _assert_resize_matches_gather(_random_image(rng, *src), dst[1], dst[0])


@pytest.mark.parametrize(
    "src_wh, dst_wh",
    [
        ((96, 64), (720, 480)),  # segment: masked net-size bone image to the working frame
        ((480, 720), (720, 960)),  # prepare_roi_input after the quarter turn
        ((720, 960), (96, 128)),  # predict_roi: localizer input
        ((173, 141), (64, 64)),  # crop_roi: box patch to the age-net patch
    ],
)
def test_resize_pipeline_shapes_are_byte_identical(src_wh, dst_wh):
    rng = np.random.default_rng(src_wh[0] * dst_wh[0])
    # masked bone images are mostly zero with a bright band, like the pipeline's
    px = rng.random((src_wh[1], src_wh[0]), dtype=np.float32)
    px[:, : src_wh[0] // 3] = 0.0
    _assert_resize_matches_gather(GrayImage(px), *dst_wh)


def test_resize_same_size_is_identity():
    rng = np.random.default_rng(3)
    img = _random_image(rng, 11, 17)
    out = resize_bilinear(img, 17, 11)
    assert out is img  # images are values: no copy
    assert np.max(np.abs(out.pixels - img.pixels)) <= 1e-6


def test_resize_rejects_degenerate_targets():
    img = GrayImage(np.zeros((4, 4), dtype=np.float32))
    with pytest.raises(ContractError):
        resize_bilinear(img, 0, 4)
    with pytest.raises(ContractError):
        resize_bilinear(img, 4, -1)


def test_resize_preserves_unit_interval():
    rng = np.random.default_rng(9)
    img = _random_image(rng, 6, 6)
    out = resize_bilinear(img, 23, 5)
    assert out.pixels.min() >= 0.0 and out.pixels.max() <= 1.0


# ---------------------------------------------------------------------------
# rotation
# ---------------------------------------------------------------------------


def test_rotate_quarter_turn_matches_permutation_oracle():
    rng = np.random.default_rng(1)
    img = _random_image(rng, 5, 8)
    got = rotate(img, 90.0)
    np.testing.assert_array_equal(got.pixels, rot90_ref(img.pixels).astype(np.float32))


def test_rotate_four_quarter_turns_is_exact_identity():
    rng = np.random.default_rng(2)
    img = _random_image(rng, 7, 4)
    out = img
    for _ in range(4):
        out = rotate(out, 90.0)
    np.testing.assert_array_equal(out.pixels, img.pixels)


def test_rotate_plus_minus_quarter_turn_cancels_exactly():
    rng = np.random.default_rng(4)
    img = _random_image(rng, 6, 9)
    out = rotate(rotate(img, 90.0), -90.0)
    np.testing.assert_array_equal(out.pixels, img.pixels)


def test_rotate_360_is_exact_identity():
    rng = np.random.default_rng(5)
    img = _random_image(rng, 3, 3)
    np.testing.assert_array_equal(rotate(img, 360.0).pixels, img.pixels)


@pytest.mark.parametrize("degrees", [15.0, -15.0, 7.3, 44.0])
def test_rotate_arbitrary_angle_matches_oracle(degrees):
    rng = np.random.default_rng(int(abs(degrees) * 10))
    img = _random_image(rng, 12, 10)
    got = rotate(img, degrees)
    want = rotate_bilinear_ref(img.pixels, degrees)
    np.testing.assert_allclose(got.pixels, want, atol=1e-5)


def test_rotate_preserves_unit_interval():
    rng = np.random.default_rng(6)
    img = _random_image(rng, 16, 16)
    out = rotate(img, 15.0)
    assert out.pixels.min() >= 0.0 and out.pixels.max() <= 1.0


# ---------------------------------------------------------------------------
# lazy images: crop, quarter turns and composed chains
# ---------------------------------------------------------------------------


def test_crop_is_the_pixel_rectangle():
    rng = np.random.default_rng(10)
    img = _random_image(rng, 9, 12)
    for x0, y0, x1, y1 in [(0, 0, 12, 9), (3, 2, 7, 8), (11, 8, 12, 9), (0, 5, 1, 6)]:
        out = crop(img, x0, y0, x1, y1)
        assert (out.width, out.height) == (x1 - x0, y1 - y0)
        assert out.pixels.tobytes() == img.pixels[y0:y1, x0:x1].tobytes()


@pytest.mark.parametrize(
    "rect", [(-1, 0, 3, 3), (0, 0, 13, 9), (0, 0, 12, 10), (4, 2, 4, 5), (0, 3, 5, 2)]
)
def test_crop_rejects_rectangles_off_the_image(rect):
    img = GrayImage(np.zeros((9, 12), dtype=np.float32))
    with pytest.raises(ContractError, match="crop"):
        crop(img, *rect)


@pytest.mark.parametrize("degrees", [-270.0, -90.0, 0.0, 90.0, 180.0, 270.0, 450.0])
def test_quarter_turns_of_lazy_images_match_rot90(degrees):
    rng = np.random.default_rng(11)
    eager = _random_image(rng, 7, 10)
    lazy = resize_bilinear(eager, 13, 5)
    for img in (eager, lazy):
        want = np.rot90(img.pixels, k=int(degrees // 90) % 4)
        assert rotate(img, degrees).pixels.tobytes() == np.ascontiguousarray(want).tobytes()


def _random_chain(rng, kinds=("resize", "turn", "crop"), length=4):
    """A random eager image, a chain of ``length`` steps (as the reference
    oracles spell them) and the lazy image the package builds from it."""
    h, w = int(rng.integers(1, 30)), int(rng.integers(1, 30))
    img = lazy = _random_image(rng, h, w)
    steps = []
    for _ in range(length):
        kind = kinds[int(rng.integers(0, len(kinds)))]
        if kind == "resize":
            out_w, out_h = int(rng.integers(1, 60)), int(rng.integers(1, 60))
            steps.append(("resize", out_w, out_h))
            lazy = resize_bilinear(lazy, out_w, out_h)
        elif kind == "turn":
            k = int(rng.integers(-3, 4))
            steps.append(("turn", k % 4))
            lazy = rotate(lazy, 90.0 * k)
        else:
            h, w = lazy.height, lazy.width
            y0, x0 = int(rng.integers(0, h)), int(rng.integers(0, w))
            y1, x1 = int(rng.integers(y0 + 1, h + 1)), int(rng.integers(x0 + 1, w + 1))
            steps.append(("crop", x0, y0, x1, y1))
            lazy = crop(lazy, x0, y0, x1, y1)
    return img, steps, lazy


@pytest.mark.parametrize("seed", range(12))
def test_composed_chain_is_one_gather_of_the_source(seed):
    img, steps, lazy = _random_chain(np.random.default_rng(700 + seed))
    want = chain_gather_ref(img.pixels, steps)
    assert (lazy.height, lazy.width) == want.shape
    assert lazy.pixels.dtype == np.float32
    assert lazy.pixels.tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", range(12))
def test_composed_chain_matches_the_loop_oracle(seed):
    img, steps, lazy = _random_chain(np.random.default_rng(700 + seed))
    np.testing.assert_allclose(lazy.pixels, chain_sample_ref(img.pixels, steps), atol=1e-5)


@pytest.mark.parametrize("seed", range(12))
def test_lazy_chain_is_byte_identical_to_the_eager_chain(seed):
    """Crops and quarter turns resample nothing, so a lazy chain of them is
    the eager chain of numpy slices and ``rot90`` byte for byte."""
    img, steps, lazy = _random_chain(np.random.default_rng(900 + seed), ("turn", "crop"), 6)
    px = img.pixels
    for step in steps:
        if step[0] == "turn":
            px = np.rot90(px, k=step[1])
        else:
            _, x0, y0, x1, y1 = step
            px = px[y0:y1, x0:x1]
    assert lazy.pixels.tobytes() == np.ascontiguousarray(px).tobytes()


def test_lazy_image_evaluates_once_and_leaves_its_source_alone():
    rng = np.random.default_rng(12)
    src = _random_image(rng, 6, 8)
    before = src.pixels.tobytes()
    out = resize_bilinear(rotate(src, 90.0), 20, 30)
    assert (out.width, out.height) == (20, 30)
    first = out.pixels
    assert out.pixels is first
    assert src.pixels.tobytes() == before


# ---------------------------------------------------------------------------
# flip and shift
# ---------------------------------------------------------------------------


def test_flip_matches_oracle_and_is_involution():
    rng = np.random.default_rng(7)
    img = _random_image(rng, 5, 6)
    once = flip_horizontal(img)
    np.testing.assert_array_equal(once.pixels, flip_h_ref(img.pixels).astype(np.float32))
    np.testing.assert_array_equal(flip_horizontal(once).pixels, img.pixels)


@pytest.mark.parametrize("dx,dy", [(0, 0), (3, 2), (-3, 2), (3, -2), (-1, -4), (7, 0)])
def test_shift_matches_oracle(dx, dy):
    rng = np.random.default_rng(dx * 10 + dy + 50)
    img = _random_image(rng, 8, 9)
    got = shift_crop(img, dx, dy)
    want = shift_ref(img.pixels, dx, dy)
    np.testing.assert_array_equal(got.pixels, want.astype(np.float32))


def test_shift_zero_is_identity():
    rng = np.random.default_rng(8)
    img = _random_image(rng, 4, 4)
    np.testing.assert_array_equal(shift_crop(img, 0, 0).pixels, img.pixels)


def test_shift_out_of_bounds_rejected():
    img = GrayImage(np.zeros((4, 6), dtype=np.float32))
    with pytest.raises(ContractError):
        shift_crop(img, 6, 0)
    with pytest.raises(ContractError):
        shift_crop(img, 0, -4)
    # one short of the extent is still legal
    shift_crop(img, 5, 3)
