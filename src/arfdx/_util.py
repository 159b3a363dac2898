"""Small shared helpers: seed derivation, atomic writes, provenance headers."""

from __future__ import annotations

import csv
import hashlib
import io
import os
import tempfile
from pathlib import Path
from typing import Iterable, Sequence


def stage_seed(seed: int, stage: str) -> int:
    """Derive a per-stage seed by hashing the stage name into the run seed.

    Stages stay independently reproducible: rerunning one stage with the same
    top-level seed regenerates exactly its randomness.
    """
    digest = hashlib.sha256(f"{seed}:{stage}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def config_hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def atomic_write_text(path, text: str) -> None:
    """`atomic_write_bytes` of the UTF-8 text, newlines written as given."""
    atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_bytes(path, data: bytes) -> None:
    """Write via a temp file in the same directory, then rename into place.

    Every file the package writes goes through here, so a reader never sees
    a partly written artifact. The file gets the mode a plain open() would
    give it (0o666 less the umask), not mkstemp's owner-only 0o600."""
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise


def csv_text(header_comment: str, columns: Sequence[str], rows: Iterable[Sequence]) -> str:
    """CSV with a leading provenance comment line and RFC-4180 quoting."""
    buffer = io.StringIO()
    buffer.write("# " + header_comment + "\n")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(list(columns))
    for row in rows:
        writer.writerow(["" if v is None else v for v in row])
    return buffer.getvalue()
