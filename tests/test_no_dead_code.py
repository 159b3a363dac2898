"""Every top-level name and method in the package has a caller inside the package.

Walks the syntax tree of each `src/arfdx/*.py` module and collects its
top-level functions, classes and assigned names, and the methods and
properties (not dunders) of its top-level classes. A name counts as used
when some module refers to it as a Name, as an Attribute (`module.name`,
`obj.method`) or in an import, anywhere outside the name's own definition.
A helper that only tests call belongs in the tests; one nothing calls should
be deleted.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "arfdx"


def top_level_definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """Top-level function, class and assigned names, each with its statement."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in bound_names(target):
                    defined[name] = node
    return defined


def method_definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """`Class.method` for each method and property of each top-level class, with its statement."""
    return {
        f"{cls.name}.{node.name}": node
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def bound_names(target: ast.expr) -> list[str]:
    """Names an assignment binds; `obj.attr = ...` and `obj[i] = ...` bind none."""
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        return [name for element in target.elts for name in bound_names(element)]
    if isinstance(target, ast.Starred):
        return bound_names(target.value)
    return []


def references(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names referred to in `tree` as a Name, an Attribute or an import,
    not counting what sits inside `skip`."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rsplit(".", 1)[-1])
        stack.extend(ast.iter_child_nodes(node))
    return found


def unreferenced(sources: dict[str, str]) -> list[str]:
    """`module.name` for each top-level name, and `module.Class.method` for each
    method, that no module refers to outside its own definition."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    refs = {module: references(tree) for module, tree in trees.items()}
    dead = []
    for module, tree in trees.items():
        for qualified, node in {**top_level_definitions(tree), **method_definitions(tree)}.items():
            name = qualified.rsplit(".", 1)[-1]
            if name.startswith("__") or any(name in refs[other] for other in trees if other != module):
                continue
            if name not in references(tree, skip=node):
                dead.append(f"{module}.{qualified}")
    return sorted(dead)


def test_detector_flags_a_name_used_only_by_itself():
    sources = {
        "a": "import b\nLIMIT = 3\n\ndef used():\n    return LIMIT\n\ndef recursive(n):\n    return recursive(n - 1)\n",
        "b": "from a import used\n\nclass Kept:\n    pass\n\nKept.x = 1\n",
    }
    assert unreferenced(sources) == ["a.recursive"]


def test_detector_counts_attribute_and_import_references():
    sources = {
        "a": "def by_attribute():\n    pass\n\ndef by_import():\n    pass\n",
        "b": "from . import a\nfrom .a import by_import\n\na.by_attribute()\n",
    }
    assert unreferenced(sources) == []


def test_detector_flags_a_method_no_one_calls():
    sources = {
        "a": (
            "class Box:\n"
            "    def __len__(self):\n        return 0\n\n"
            "    def helper(self):\n        return 1\n\n"
            "    def api(self):\n        return self.helper()\n\n"
            "    @property\n    def size(self):\n        return 2\n\n"
            "    def unused(self):\n        return self.unused()\n"
        ),
        "b": "from a import Box\n\nBox().api()\nprint(Box().size)\n",
    }
    assert unreferenced(sources) == ["a.Box.unused"]


def test_every_top_level_name_has_a_caller():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert unreferenced(sources) == [], "no module of the package refers to these names"
