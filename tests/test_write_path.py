"""Every file the package writes goes through `_util.atomic_write_*`.

Walks the syntax tree of each `src/arfdx/*.py` module except `_util.py` and
fails on `.write_text(`, `.write_bytes(` or a write-mode `open(`, so a
non-atomic write cannot come back unnoticed. The writers themselves must
replace a file whole and keep the permissions a plain write would give it.
"""

import ast
import os
from pathlib import Path

import pytest

from arfdx._util import atomic_write_bytes, atomic_write_text

SRC = Path(__file__).resolve().parents[1] / "src" / "arfdx"
# modules whose open(...) takes the file first and the mode second, like the builtin
FILE_FIRST_OPENERS = {"builtins", "codecs", "io", "os"}


def _mode(call: ast.Call):
    for keyword in call.keywords:
        if keyword.arg == "mode":
            return keyword.value
    func = call.func
    file_first = isinstance(func, ast.Name) or (
        isinstance(func.value, ast.Name) and func.value.id in FILE_FIRST_OPENERS
    )
    position = 1 if file_first or func.attr == "fdopen" else 0  # Path.open(mode)
    return call.args[position] if len(call.args) > position else None


def is_write(call: ast.Call) -> bool:
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name in ("write_text", "write_bytes"):
        return True
    if name not in ("open", "fdopen"):
        return False
    mode = _mode(call)
    if mode is None:
        return False  # the default mode reads
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return True  # a computed mode cannot be shown to be read-only
    return bool(set(mode.value) & set("wax+"))


def writes_in(source: str) -> list[int]:
    return [
        node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Call) and is_write(node)
    ]


@pytest.mark.parametrize(
    "snippet",
    [
        'Path(p).write_text("x", encoding="utf-8")',
        "p.write_bytes(b'x')",
        'open(p, "w")',
        'open(p, mode="ab")',
        'io.open(p, "x")',
        'p.open("r+")',
        'os.fdopen(fd, "wb")',
        "p.open(mode)",
    ],
)
def test_detector_flags_writes(snippet):
    assert writes_in(snippet) == [1]


@pytest.mark.parametrize(
    "snippet",
    ['open(p)', 'open("data.txt", "r")', 'p.open("r", encoding="utf-8")', "p.read_text()", "handle.write(text)"],
)
def test_detector_passes_reads(snippet):
    assert writes_in(snippet) == []


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "_util.py"), ids=lambda p: p.name
)
def test_module_writes_only_through_util(path):
    assert writes_in(path.read_text(encoding="utf-8")) == [], f"{path.name}: write outside _util.atomic_write_*"


def test_atomic_writes_replace_the_file_with_plain_file_permissions(tmp_path):
    path = tmp_path / "artifact.csv"
    path.write_text("old")
    atomic_write_text(path, "new\n")
    assert path.read_bytes() == b"new\n"
    umask = os.umask(0)
    os.umask(umask)
    assert path.stat().st_mode & 0o777 == 0o666 & ~umask
    atomic_write_bytes(path, b"\x00")
    assert path.read_bytes() == b"\x00"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact.csv"]
