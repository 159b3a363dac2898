"""Radiograph preprocessing and the image-embedding file contract.

Preprocessing mirrors the training pipeline: global histogram equalization,
aspect-preserving resize so the short side hits the target, then a square
crop with optional small random rotation for augmentation. Downstream models
never see pixels, only fixed-width embedding vectors; the binary embedding
file format decouples this package from any particular frozen extractor, and
`stub_extract` provides a deterministic stand-in for tests.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable

import numpy as np

from ._util import atomic_write_bytes


class ImagingError(ValueError):
    pass


class FormatError(ImagingError):
    pass


class TooSmall(ImagingError):
    pass


@dataclass(frozen=True)
class GrayImage:
    """8-bit grayscale image; pixels shaped (height, width)."""

    pixels: np.ndarray

    def __post_init__(self):
        pixels = np.asarray(self.pixels, dtype=np.uint8)
        if pixels.ndim != 2 or pixels.shape[0] < 1 or pixels.shape[1] < 1:
            raise ImagingError("image pixels must be a non-empty 2-D array")
        object.__setattr__(self, "pixels", pixels)

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


class CropMode(str, Enum):
    RANDOM_TRAIN = "random_train"
    CENTER_EVAL = "center_eval"


@dataclass(frozen=True)
class ImageConfig:
    target_side: int = 512
    max_rotation_deg: float = 15.0
    crop_mode: CropMode = CropMode.CENTER_EVAL

    def __post_init__(self):
        if self.target_side < 1:
            raise ImagingError("target_side must be >= 1")
        if self.max_rotation_deg < 0:
            raise ImagingError("max_rotation_deg must be >= 0")


@dataclass(frozen=True)
class ImageEmbedding:
    study_image_id: str
    vector: np.ndarray

    def __post_init__(self):
        vector = np.asarray(self.vector, dtype=np.float32)
        if vector.ndim != 1 or vector.shape[0] < 1:
            raise ImagingError("embedding vector must be 1-D and non-empty")
        if not np.all(np.isfinite(vector)):
            raise ImagingError(f"embedding {self.study_image_id!r} has non-finite entries")
        object.__setattr__(self, "vector", vector)

    @property
    def width(self) -> int:
        return self.vector.shape[0]


def histogram_equalize(img: GrayImage) -> GrayImage:
    """Global histogram equalization over the 256-level intensity histogram.

    out(v) = round((cdf(v) - cdf_min) / (N - cdf_min) * 255), with cdf_min the
    smallest nonzero cdf value. A constant image maps to all zeros (the
    formula degenerates to 0/0 there).
    """
    hist = np.bincount(img.pixels.ravel(), minlength=256)
    cdf = np.cumsum(hist)
    n = img.pixels.size
    cdf_min = int(cdf[cdf > 0][0]) if n else 0
    denom = n - cdf_min
    if denom == 0:
        return GrayImage(np.zeros_like(img.pixels))
    lut = np.floor((cdf - cdf_min) / denom * 255.0 + 0.5)
    lut = np.clip(lut, 0, 255).astype(np.uint8)
    return GrayImage(lut[img.pixels])


def _bilinear_sample(pixels: np.ndarray, ys: np.ndarray, xs: np.ndarray, zero_fill: bool) -> np.ndarray:
    """Sample float coordinates bilinearly; out-of-bounds reads either clamp
    to the edge (resize) or contribute zero (rotation fill)."""
    h, w = pixels.shape
    y0 = np.floor(ys)
    x0 = np.floor(xs)
    wy = ys - y0
    wx = xs - x0
    y0 = y0.astype(int)
    x0 = x0.astype(int)
    y1 = y0 + 1
    x1 = x0 + 1

    def fetch(yy, xx):
        if zero_fill:
            valid = (yy >= 0) & (yy < h) & (xx >= 0) & (xx < w)
            out = np.zeros(yy.shape, dtype=float)
            out[valid] = pixels[yy[valid], xx[valid]]
            return out
        return pixels[np.clip(yy, 0, h - 1), np.clip(xx, 0, w - 1)].astype(float)

    top = fetch(y0, x0) * (1 - wx) + fetch(y0, x1) * wx
    bottom = fetch(y1, x0) * (1 - wx) + fetch(y1, x1) * wx
    return top * (1 - wy) + bottom * wy


def _round_to_u8(values: np.ndarray) -> np.ndarray:
    return np.clip(np.floor(values + 0.5), 0, 255).astype(np.uint8)


def resize_short_side(img: GrayImage, target: int) -> GrayImage:
    """Resize so the shorter side equals `target`, preserving aspect ratio.

    No-op when the short side already matches. Bilinear interpolation with
    pixel-center alignment and edge clamping.
    """
    if target < 1:
        raise ImagingError("resize target must be >= 1")
    h, w = img.height, img.width
    if min(h, w) == target:
        return GrayImage(img.pixels.copy())
    if w <= h:
        out_w = target
        out_h = int(math.floor(target * h / w + 0.5))
    else:
        out_h = target
        out_w = int(math.floor(target * w / h + 0.5))
    ys = (np.arange(out_h, dtype=float) + 0.5) * (h / out_h) - 0.5
    xs = (np.arange(out_w, dtype=float) + 0.5) * (w / out_w) - 0.5
    grid_y, grid_x = np.meshgrid(ys, xs, indexing="ij")
    return GrayImage(_round_to_u8(_bilinear_sample(img.pixels, grid_y, grid_x, zero_fill=False)))


def _rotate_about_center(pixels: np.ndarray, angle_deg: float) -> np.ndarray:
    """Rotate a square crop about its center; bilinear sampling, zero fill.

    Positive angles rotate the content clockwise as displayed (row 0 on top);
    augmentation draws symmetric angles so the sign convention is cosmetic.
    """
    side = pixels.shape[0]
    center = (side - 1) / 2.0
    theta = math.radians(angle_deg)
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    rows, cols = np.meshgrid(np.arange(side, dtype=float), np.arange(side, dtype=float), indexing="ij")
    dx = cols - center
    dy = rows - center
    src_x = cos_t * dx + sin_t * dy + center
    src_y = -sin_t * dx + cos_t * dy + center
    return _round_to_u8(_bilinear_sample(pixels, src_y, src_x, zero_fill=True))


def crop_and_rotate(img: GrayImage, cfg: ImageConfig, rng: np.random.Generator) -> GrayImage:
    """Square crop to `target_side`, with random offset + rotation in training mode.

    Training mode draws the row offset, column offset, and rotation angle (in
    that order) from `rng`; evaluation mode center-crops with no rotation.
    """
    t = cfg.target_side
    h, w = img.height, img.width
    if h < t or w < t:
        raise TooSmall(f"image {w}x{h} smaller than crop target {t}")
    if cfg.crop_mode is CropMode.CENTER_EVAL:
        y0 = (h - t) // 2
        x0 = (w - t) // 2
        return GrayImage(img.pixels[y0 : y0 + t, x0 : x0 + t].copy())
    y0 = int(rng.integers(0, h - t + 1))
    x0 = int(rng.integers(0, w - t + 1))
    crop = img.pixels[y0 : y0 + t, x0 : x0 + t]
    angle = float(rng.uniform(-cfg.max_rotation_deg, cfg.max_rotation_deg))
    if angle == 0.0:
        return GrayImage(crop.copy())
    return GrayImage(_rotate_about_center(crop, angle))


def stub_extract(img: GrayImage, width: int, image_id: str = "") -> ImageEmbedding:
    """Deterministic test extractor: grid-cell mean intensities scaled to [0, 1].

    The image splits into a g x g grid with g = ceil(sqrt(width)); cell means
    are read row-major and the first `width` values form the vector.
    """
    if width < 1:
        raise ImagingError("embedding width must be >= 1")
    g = math.ceil(math.sqrt(width))
    row_bounds = [int(math.floor(i * img.height / g + 0.5)) for i in range(g + 1)]
    col_bounds = [int(math.floor(j * img.width / g + 0.5)) for j in range(g + 1)]
    means = []
    for i in range(g):
        for j in range(g):
            cell = img.pixels[row_bounds[i] : row_bounds[i + 1], col_bounds[j] : col_bounds[j + 1]]
            means.append(float(cell.mean()) if cell.size else 0.0)
    vector = np.asarray(means[:width], dtype=np.float32) / 255.0
    return ImageEmbedding(study_image_id=image_id, vector=vector)


# --- embedding file format ---------------------------------------------------
#
# magic "ARFEMB1\0", u32 LE record count, u32 LE width, then per record:
# u16 LE id length, UTF-8 id, width x f32 LE.

EMBEDDING_MAGIC = b"ARFEMB1\x00"


def embeddings_to_bytes(embeddings: Iterable[ImageEmbedding]) -> bytes:
    records = list(embeddings)
    width = records[0].width if records else 0
    seen: set[str] = set()
    chunks = [EMBEDDING_MAGIC, struct.pack("<II", len(records), width)]
    for emb in records:
        if emb.width != width:
            raise FormatError(
                f"embedding {emb.study_image_id!r} has width {emb.width}, expected {width}"
            )
        if emb.study_image_id in seen:
            raise FormatError(f"duplicate embedding id {emb.study_image_id!r}")
        seen.add(emb.study_image_id)
        id_bytes = emb.study_image_id.encode("utf-8")
        chunks.append(struct.pack("<H", len(id_bytes)))
        chunks.append(id_bytes)
        chunks.append(emb.vector.astype("<f4").tobytes())
    return b"".join(chunks)


def write_embeddings(path, embeddings: Iterable[ImageEmbedding]) -> None:
    atomic_write_bytes(path, embeddings_to_bytes(embeddings))


def load_embeddings(path) -> dict[str, ImageEmbedding]:
    data = Path(path).read_bytes()
    if data[: len(EMBEDDING_MAGIC)] != EMBEDDING_MAGIC:
        raise FormatError("bad embedding file magic")
    offset = len(EMBEDDING_MAGIC)
    if len(data) < offset + 8:
        raise FormatError("truncated embedding header")
    count, width = struct.unpack_from("<II", data, offset)
    offset += 8
    out: dict[str, ImageEmbedding] = {}
    for _ in range(count):
        if len(data) < offset + 2:
            raise FormatError("truncated embedding record")
        (id_len,) = struct.unpack_from("<H", data, offset)
        offset += 2
        end = offset + id_len + 4 * width
        if len(data) < end:
            raise FormatError("truncated embedding record")
        image_id = data[offset : offset + id_len].decode("utf-8")
        offset += id_len
        vector = np.frombuffer(data, dtype="<f4", count=width, offset=offset).copy()
        offset = end
        if image_id in out:
            raise FormatError(f"duplicate embedding id {image_id!r}")
        out[image_id] = ImageEmbedding(study_image_id=image_id, vector=vector)
    if offset != len(data):
        raise FormatError("trailing bytes after final embedding record")
    return out


# --- PGM (P5) image files -----------------------------------------------------

def read_pgm(path) -> GrayImage:
    """Read a binary PGM (P5) file with maxval 255."""
    data = Path(path).read_bytes()
    if data[:2] != b"P5":
        raise FormatError("not a binary PGM (P5) file")
    pos = 2
    fields = []
    while len(fields) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise FormatError("malformed PGM header")
        fields.append(data[start:pos])
    try:
        width, height, maxval = (int(f) for f in fields)
    except ValueError as exc:
        raise FormatError("malformed PGM header") from exc
    if maxval != 255:
        raise FormatError(f"unsupported PGM maxval {maxval}; expected 255")
    pos += 1  # single whitespace byte after maxval
    expected = width * height
    raster = data[pos : pos + expected]
    if len(raster) != expected:
        raise FormatError("PGM raster truncated")
    pixels = np.frombuffer(raster, dtype=np.uint8).reshape(height, width)
    return GrayImage(pixels.copy())


def write_pgm(path, img: GrayImage) -> None:
    header = f"P5\n{img.width} {img.height}\n255\n".encode("ascii")
    atomic_write_bytes(path, header + img.pixels.tobytes())
