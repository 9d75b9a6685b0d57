"""No module of the package or of the tests imports a name it never uses.

No linter is a dependency, so this is a small AST scan: a name bound by
an import counts as used when the module reads it, names it in a string
annotation, or lists it in ``__all__``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted([*(ROOT / "src" / "foldsat").glob("*.py"),
                *(ROOT / "tests").glob("*.py")])


def imported_names(tree):
    """(bound name, line) for every import outside ``__future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def used_names(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for ann in _annotations(tree):
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            used |= used_names(ast.parse(ann.value, mode="eval"))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return used


def unused_imports(text):
    """(name, line) of each import in ``text`` that the module never
    uses."""
    tree = ast.parse(text)
    used = used_names(tree)
    return [(name, line) for name, line in imported_names(tree)
            if name not in used]


def test_unused_imports_are_found():
    text = ("import os\nimport os.path\nfrom math import pi, tau, e\n"
            "__all__ = ['tau']\n\ndef f(x: 'e') -> str:\n"
            "    return os.sep + 'pi'\n")
    assert unused_imports(text) == [("pi", 3)]


def test_no_unused_imports():
    assert FILES
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in FILES
             for name, line in unused_imports(path.read_text())]
    assert not found, "\n".join(found)
