"""`tools/same_bytes.py`'s `compare`, on which a byte-identity claim rests.

Each case builds a parent and a change output directory and checks the count
of identical files, the count of files in either, and the lines naming each
file that differs or is missing from one side.
"""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "same_bytes.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("same_bytes", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


FILES = {"labels.csv": b"# arfdx\nid\np01\n", "features.ndjson": b"{}\n", "empty.txt": b""}


@pytest.mark.parametrize(
    "parent_edits, change_edits, expected",
    [
        ({}, {}, (3, 3, [])),
        ({}, {"labels.csv": b"# arfdx\nid\np02\n"}, (2, 3, ["differs: labels.csv"])),
        ({}, {"empty.txt": b"\n"}, (2, 3, ["differs: empty.txt"])),
        ({"old.csv": b"x\n"}, {}, (3, 4, ["only in parent: old.csv"])),
        ({}, {"new.csv": b"x\n"}, (3, 4, ["only in change: new.csv"])),
        ({"a.csv": b"1\n"}, {"b.csv": b"1\n", "features.ndjson": b"[]\n"},
         (2, 5, ["only in parent: a.csv", "only in change: b.csv", "differs: features.ndjson"])),
    ],
    ids=["identical", "one-differs", "empty-file-differs", "only-in-parent", "only-in-change", "all-three"],
)
def test_compare(tmp_path, parent_edits, change_edits, expected):
    for side, edits in (("parent", parent_edits), ("change", change_edits)):
        (tmp_path / side).mkdir()
        for name, data in {**FILES, **edits}.items():
            (tmp_path / side / name).write_bytes(data)
    assert load_tool().compare(tmp_path / "parent", tmp_path / "change") == expected
