"""The image-embedding file contract.

Models never see pixels, only fixed-width embedding vectors from a frozen
extractor outside this package. The binary embedding file is the boundary:
`ImageEmbedding` records, their byte layout, and an atomic writer and a
validating loader.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from ._util import atomic_write_bytes


class ImagingError(ValueError):
    pass


class FormatError(ImagingError):
    pass


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

