"""The benchmark's traced pass wraps program functions by (module, attribute).

`bench/layers.py` lists them in `TARGETS`. A name the program no longer has
is only reported as absent there, and its per-layer metrics read 0, so a
rename would go unnoticed. This test reads the table with `ast`, without
importing the benchmark, and resolves each pair against the package.
"""

import ast
import importlib
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"

# Hooked names the package has deleted or renamed; the benchmark's hook table
# still lists them (ROADMAP item 1 drops them).
ABSENT = {
    ("arfdx.cli", "load_included_stays"),
    ("arfdx.featurize", "latest_value"),
    ("arfdx.featurize", "read_features"),
    ("arfdx.models", "train"),
    ("arfdx.models", "loss"),
    ("arfdx.models", "predict_patient"),
}


def hooked_names() -> list[tuple[str, str]]:
    """The (module, attribute) of each `TARGETS` entry, in table order."""
    tree = ast.parse(LAYERS.read_text(encoding="utf-8"))
    [table] = [
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]
    ]
    return [(entry.elts[1].value, entry.elts[2].value) for entry in table.elts]


def test_every_hooked_name_resolves_but_the_known_absent_ones():
    names = hooked_names()
    assert len(names) == 42
    unresolved = {(module, attr) for module, attr in names if not hasattr(importlib.import_module(module), attr)}
    assert unresolved == ABSENT
