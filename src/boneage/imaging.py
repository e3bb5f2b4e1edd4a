"""Grayscale images and the geometric transforms the pipeline needs.

A GrayImage is a (height, width) float32 array with values in [0, 1].
File formats: binary PGM (P5, maxval 255) both ways, 8-bit PNG read-only
(RGB collapsed with luminance weights 0.299/0.587/0.114).

Lazy images. ``resize_bilinear``, a quarter-turn ``rotate`` and ``crop``
return a lazy image: it holds the eager array its chain started from
(its source), one map (s, t, flip) per axis and a swap flag, not
pixels. Output index k along an axis of extent n samples the source
coordinate (k + 0.5) * s + t, or that of index n - 1 - k if the axis
is flipped, clamped to the source's extent; with the swap flag the
output's rows run along the source's columns. A resize scales s, a crop
shifts t, and a quarter turn swaps the axes and flips one or both, so a
chain of any length composes to one map per axis, and reading
``.pixels`` is one bilinear sample of the source (cached). A single
resize of an eager image uses t = -0.5 and s = n_in / n_out, the
half-pixel-center resize. The blend runs in the source's orientation
and is then transposed and reversed, so a quarter turn moves pixels
without changing them, and crops and quarter turns of an eager image
are exact pixel permutations. Where both maps are unit maps in float32
(s = 1, t = -0.5 and the source's extent, as for the localizer's
quarter-turned input at the segmenter's grid size), every blend weight
is 0, and that permutation is taken without blending. Images are
values: do not mutate ``.pixels`` in place, since a lazy image reads
its source when it is evaluated, and a resize to an image's own size
returns its input rather than a copy.

The bilinear blend (``_blend``) gives every output pixel the same
float32 operations in the same order as a direct 2-D gather (x-blend of
both tapped rows, y-blend, clip to [0, 1]); ``tests/test_imaging.py``
holds resizes and composed chains to such gathers byte for byte.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .errors import ContractError, ImageIOError

_RGB_WEIGHTS = np.array([0.299, 0.587, 0.114], dtype=np.float32)


# the map (s, t, flip) of an eager image's own pixels: index k reads source k
_IDENTITY = (1.0, -0.5, False)


class GrayImage:
    """Single-channel image, pixels row-major in [0, 1]; eager or lazy."""

    def __init__(self, pixels):
        a = np.asarray(pixels, dtype=np.float32)
        if a.ndim != 2:
            raise ContractError(f"GrayImage needs a 2-d array, got {a.ndim}-d")
        if a.size == 0:
            raise ContractError("GrayImage must have at least one pixel")
        self._pixels = self._source = a
        self._maps, self._swap = (_IDENTITY, _IDENTITY), False
        self.height, self.width = a.shape

    @classmethod
    def _lazy(cls, img: "GrayImage", ymap, xmap, swap: bool, height: int, width: int):
        """``img``'s source through the per-axis maps, not yet evaluated."""
        out = cls.__new__(cls)
        out._pixels, out._source = None, img._source
        out._maps, out._swap = (ymap, xmap), swap
        out.height, out.width = height, width
        return out

    @property
    def pixels(self) -> np.ndarray:
        if self._pixels is None:
            (ymap, xmap), h, w = self._maps, self.height, self.width
            if self._swap:  # sample in the source's orientation, then transpose
                ymap, xmap, h, w = xmap, ymap, w, h
            src = self._source
            if _is_unit(ymap, h, src.shape[0]) and _is_unit(xmap, w, src.shape[1]):
                # every blend weight is 0; adding 0.0 copies, and makes -0.0
                # cells 0.0 as the blend's zero-weighted taps do
                px = src[:: -1 if ymap[2] else 1, :: -1 if xmap[2] else 1] + np.float32(0.0)
                np.clip(px, 0.0, 1.0, out=px)
            else:
                px = _blend(src, *_map_taps(ymap, h, src.shape[0]), *_map_taps(xmap, w, src.shape[1]))
            self._pixels = np.ascontiguousarray(px.T) if self._swap else px
        return self._pixels

    def __repr__(self) -> str:
        state = "lazy" if self._pixels is None else "eager"
        return f"GrayImage({self.width}x{self.height}, {state})"


# ---------------------------------------------------------------------------
# file I/O
# ---------------------------------------------------------------------------

def _read_pgm(raw: bytes, path: Path) -> GrayImage:
    if not raw[2:3].isspace():  # "P5" ends at whitespace
        raise ImageIOError(f"{path}: malformed PGM header")
    # header tokens may be separated by whitespace and '#' comments
    pos = 2  # past "P5"
    fields = []
    while len(fields) < 3:
        while pos < len(raw) and raw[pos : pos + 1].isspace():
            pos += 1
        if pos < len(raw) and raw[pos : pos + 1] == b"#":
            while pos < len(raw) and raw[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ImageIOError(f"{path}: truncated PGM header")
        fields.append(raw[start:pos])
    pos += 1  # single whitespace byte after maxval
    # ASCII digits only: int() would also take "+2" or "1_0"; a leading
    # "-" passes here so a negative extent is reported as one below
    if not all(f.removeprefix(b"-").isdigit() for f in fields):
        raise ImageIOError(f"{path}: malformed PGM header")
    width, height, maxval = (int(f) for f in fields)
    if width < 1 or height < 1:
        raise ImageIOError(f"{path}: PGM extents must be >= 1, got {width}x{height}")
    if maxval != 255:
        raise ImageIOError(f"{path}: only maxval 255 PGM supported, got {maxval}")
    need = width * height
    data = raw[pos : pos + need]
    if len(data) != need:
        raise ImageIOError(f"{path}: PGM pixel data truncated ({len(data)} of {need} bytes)")
    arr = np.frombuffer(data, dtype=np.uint8).reshape(height, width)
    return GrayImage(arr.astype(np.float32) / np.float32(255.0))


def _read_png(path: Path) -> GrayImage:
    try:
        from PIL import Image
    except ImportError as exc:  # pragma: no cover
        raise ImageIOError(f"{path}: PNG support requires Pillow") from exc
    try:
        with Image.open(path) as im:
            if im.mode == "L":
                arr = np.asarray(im, dtype=np.float32)
                return GrayImage(arr / np.float32(255.0))
            rgb = np.asarray(im.convert("RGB"), dtype=np.float32)
    except (OSError, ValueError) as exc:
        raise ImageIOError(f"cannot read image {path}: {exc}") from exc
    lum = rgb @ _RGB_WEIGHTS
    return GrayImage(np.clip(lum / np.float32(255.0), 0.0, 1.0))


def load_image(path) -> GrayImage:
    """Read a PGM (P5) or PNG file; 8-bit values map to v/255."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise ImageIOError(f"cannot read image {path}: {exc}") from exc
    if raw[:2] == b"P5":
        return _read_pgm(raw, path)
    if raw[:8] == b"\x89PNG\r\n\x1a\n":
        return _read_png(path)
    raise ImageIOError(f"{path}: unsupported image format (need PGM P5 or PNG)")


def save_image(img: GrayImage, path) -> None:
    """Write binary PGM, pixel = round(255*p) with half-up rounding."""
    path = Path(path)
    bytes_ = np.floor(img.pixels * np.float32(255.0) + np.float32(0.5)).astype(np.uint8)
    header = f"P5\n{img.width} {img.height}\n255\n".encode("ascii")
    try:
        path.write_bytes(header + bytes_.tobytes())
    except OSError as exc:
        raise ImageIOError(f"cannot write image {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------

def _bilinear_sample(px: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Sample at float coords with edge clamping; xs/ys same shape."""
    h, w = px.shape
    xs = np.clip(xs, 0.0, w - 1.0)
    ys = np.clip(ys, 0.0, h - 1.0)
    x0 = np.floor(xs).astype(np.intp)
    y0 = np.floor(ys).astype(np.intp)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = (xs - x0).astype(np.float32)
    fy = (ys - y0).astype(np.float32)
    top = px[y0, x0] * (1.0 - fx) + px[y0, x1] * fx
    bot = px[y1, x0] * (1.0 - fx) + px[y1, x1] * fx
    return top * (1.0 - fy) + bot * fy


def _is_unit(axis_map, n_out: int, n_src: int) -> bool:
    """Whether an axis's map, in the float32 that ``_map_taps`` computes
    in, reads source index k (or n - 1 - k) at output index k."""
    s, t, _ = axis_map
    return n_out == n_src and np.float32(s) == 1.0 and np.float32(t) == -0.5


def _map_taps(axis_map, n_out: int, n_src: int):
    """Per output index along one axis: source taps i0, i1 and weight of i1."""
    s, t, flip = axis_map
    # Python floats keep the coordinates float32
    c = (np.arange(n_out, dtype=np.float32) + 0.5) * float(s) + float(t)
    c = np.clip(c, 0.0, n_src - 1.0)
    i0 = np.floor(c).astype(np.intp)
    i1 = np.minimum(i0 + 1, n_src - 1)
    taps = (i0, i1, (c - i0).astype(np.float32))
    return tuple(a[::-1] for a in taps) if flip else taps


def _blend(px, y0, y1, fy, x0, x1, fx) -> np.ndarray:
    """Bilinear blend of ``px`` at per-axis taps: x-blend of the rows,
    pick both tapped rows, y-blend, clip."""
    gx = 1.0 - fx
    rows = np.take(px, x0, axis=1)
    rows *= gx
    right = np.take(px, x1, axis=1)
    right *= fx
    rows += right
    top = np.take(rows, y0, axis=0)
    bot = np.take(rows, y1, axis=0)
    top *= (1.0 - fy)[:, None]
    bot *= fy[:, None]
    top += bot
    np.clip(top, 0.0, 1.0, out=top)
    return top


def _cropped(axis_map, lo: int, hi: int, n: int):
    """The map of indices [lo, hi) of an axis of extent ``n``."""
    s, t, flip = axis_map
    return s, t + (n - hi if flip else lo) * s, flip


def resize_bilinear(img: GrayImage, new_width: int, new_height: int) -> GrayImage:
    """Bilinear resize with independent axis scaling and edge clamping
    (lazy); a resize to the image's own size returns the image itself."""
    if new_width < 1 or new_height < 1:
        raise ContractError(f"target extents must be >= 1, got {new_width}x{new_height}")
    if (new_width, new_height) == (img.width, img.height):
        return img
    (sy, ty, fy), (sx, tx, fx) = img._maps
    return GrayImage._lazy(
        img, (sy * (img.height / new_height), ty, fy), (sx * (img.width / new_width), tx, fx),
        img._swap, new_height, new_width,
    )


def crop(img: GrayImage, x0: int, y0: int, x1: int, y1: int) -> GrayImage:
    """The pixel rectangle [x0, x1) x [y0, y1) of ``img`` (lazy)."""
    if not (0 <= x0 < x1 <= img.width and 0 <= y0 < y1 <= img.height):
        raise ContractError(
            f"crop [{x0}, {x1}) x [{y0}, {y1}) not inside a {img.width}x{img.height} image"
        )
    ymap, xmap = img._maps
    return GrayImage._lazy(
        img, _cropped(ymap, y0, y1, img.height), _cropped(xmap, x0, x1, img.width),
        img._swap, y1 - y0, x1 - x0,
    )


def rotate(img: GrayImage, degrees: float) -> GrayImage:
    """Rotate about the image center; out-of-frame samples are 0.

    Multiples of 90 degrees compose into the lazy image's maps, so they
    add no resampling (on an eager image they are exact pixel
    permutations; +90 maps the old top-right corner to the new top-left,
    as ``np.rot90`` does); other angles use bilinear sampling.
    """
    degrees = float(degrees)
    if degrees % 90.0 == 0.0:
        turns = int(degrees // 90) % 4
        (sy, ty, fy), (sx, tx, fx) = img._maps
        # turns 1 and 2 read the columns back to front, turns 2 and 3 the rows
        ymap, xmap = (sy, ty, fy != (turns in (2, 3))), (sx, tx, fx != (turns in (1, 2)))
        if turns % 2:  # output rows run along the input's columns
            return GrayImage._lazy(img, xmap, ymap, not img._swap, img.width, img.height)
        return GrayImage._lazy(img, ymap, xmap, img._swap, img.height, img.width)
    h, w = img.pixels.shape
    theta = math.radians(degrees)
    c, s = math.cos(theta), math.sin(theta)
    cx, cy = (w - 1) / 2.0, (h - 1) / 2.0
    xs = np.arange(w, dtype=np.float32) - cx
    ys = np.arange(h, dtype=np.float32) - cy
    gx, gy = np.meshgrid(xs, ys)
    src_x = c * gx - s * gy + cx
    src_y = s * gx + c * gy + cy
    inside = (src_x >= 0) & (src_x <= w - 1) & (src_y >= 0) & (src_y <= h - 1)
    out = _bilinear_sample(img.pixels, src_x, src_y)
    out = np.where(inside, out, np.float32(0.0))
    return GrayImage(np.clip(out, 0.0, 1.0))


def flip_horizontal(img: GrayImage) -> GrayImage:
    """Reverse column order."""
    return GrayImage(np.ascontiguousarray(img.pixels[:, ::-1]))


def shift_crop(img: GrayImage, dx: int, dy: int) -> GrayImage:
    """Translate content by (dx, dy); vacated pixels become 0.

    Positive dx moves content right, positive dy moves it down. Output
    extents equal input extents.
    """
    h, w = img.pixels.shape
    dx, dy = int(dx), int(dy)
    if abs(dx) >= w or abs(dy) >= h:
        raise ContractError(f"shift ({dx}, {dy}) out of bounds for {w}x{h} image")
    out = np.zeros_like(img.pixels)
    src_x = slice(max(0, -dx), min(w, w - dx))
    src_y = slice(max(0, -dy), min(h, h - dy))
    dst_x = slice(max(0, dx), min(w, w + dx))
    dst_y = slice(max(0, dy), min(h, h + dy))
    out[dst_y, dst_x] = img.pixels[src_y, src_x]
    return GrayImage(out)
