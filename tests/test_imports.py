"""No module of the package or of the tests imports a name it never uses,
no function or class of the package goes unread, and every error class
of the package is used by the package.

No linter is a dependency, so this is a small AST scan: a name bound by
an import counts as used when the module reads it, names it in a string
annotation, or lists it in ``__all__``.  A top-level function or class of
the package counts as read when some module of the package or of the
benchmark names it or reads it as an attribute; a module-level
``__getattr__`` or ``__dir__`` is read by the import system (PEP 562).
A public one may also be listed in the package's ``__all__`` instead:
what the tests alone read lives in the tests.  A class of
``errors.py`` counts as used when another module of the package raises
it, catches it or derives a class from it, or when it is the base of a
used class.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "foldsat").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))
FILES = sorted([*SOURCES, *(ROOT / "tests").glob("*.py")])


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
    return used | all_names(tree)


def all_names(tree):
    """The names the module's ``__all__`` lists."""
    return {name for node in ast.walk(tree)
            if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets)
            for name in ast.literal_eval(node.value)}


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


# module-level functions that attribute access and dir() on the module call
IMPORT_HOOKS = {"__getattr__", "__dir__"}


def definitions(tree):
    """(name, line) of each top-level function or class, other than the
    import system's hooks."""
    return [(node.name, node.lineno) for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and node.name not in IMPORT_HOOKS]


def read_names(tree):
    """Every name the module reads, as a name or as an attribute."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}


def unread(texts, readers, exported):
    """(module, name, line) of each definition of ``texts`` (a map from
    module name to source) that no source of ``texts`` or ``readers``
    reads and that ``exported`` does not list."""
    trees = {name: ast.parse(text) for name, text in texts.items()}
    read = set().union(*map(read_names, trees.values()),
                       *(read_names(ast.parse(text)) for text in readers),
                       exported)
    return [(module, name, line) for module, tree in trees.items()
            for name, line in definitions(tree) if name not in read]


def dead_helpers(texts, readers=()):
    """The unread definitions named with a leading ``_``."""
    return [d for d in unread(texts, readers, ()) if d[1].startswith("_")]


def read_by_tests_alone(texts, readers, exported):
    """The unread, unexported definitions with a public name."""
    return [d for d in unread(texts, readers, exported)
            if not d[1].startswith("_")]


def test_dead_helpers_are_found():
    texts = {"a": "def _used():\n    pass\n\ndef _dead():\n    pass\n\n"
                  "class _Gone:\n    def _method(self):\n        pass\n",
             "b": "import a\n\ndef public():\n    return a._used()\n",
             "c": "def __getattr__(name):\n    return name\n\n"
                  "def __dir__():\n    return []\n\ndef __other__():\n"
                  "    pass\n"}
    assert dead_helpers(texts) == [("a", "_dead", 4), ("a", "_Gone", 7),
                                   ("c", "__other__", 7)]
    assert dead_helpers(texts, ["import a\n\na._dead()\n"]) \
        == [("a", "_Gone", 7), ("c", "__other__", 7)]


def test_no_dead_helpers():
    assert SOURCES and BENCH
    found = [f"src/foldsat/{module}.py:{line}: {name}"
             for module, name, line in dead_helpers(
                 {path.stem: path.read_text() for path in SOURCES},
                 [path.read_text() for path in BENCH])]
    assert not found, "\n".join(found)


def test_names_read_by_tests_alone_are_found():
    texts = {"a": "def used():\n    pass\n\ndef benched():\n    pass\n\n"
                  "def exported():\n    pass\n\nclass Oracle:\n    pass\n\n"
                  "def _private():\n    pass\n",
             "b": "from a import used\n\ndef lone():\n    return used()\n"}
    bench = ["import a\n\nprint(a.benched())\n"]
    assert read_by_tests_alone(texts, bench, {"exported"}) \
        == [("a", "Oracle", 10), ("b", "lone", 3)]
    assert read_by_tests_alone(texts, [], {"exported", "lone"}) \
        == [("a", "benched", 4), ("a", "Oracle", 10)]


def test_no_public_name_is_read_by_tests_alone():
    assert SOURCES and BENCH
    exported = all_names(ast.parse(
        (ROOT / "src" / "foldsat" / "__init__.py").read_text()))
    found = [f"src/foldsat/{module}.py:{line}: {name}"
             for module, name, line in read_by_tests_alone(
                 {path.stem: path.read_text() for path in SOURCES},
                 [path.read_text() for path in BENCH], exported)]
    assert not found, "\n".join(found)


def _names(node):
    """The names an expression such as ``E``, ``E(...)``, ``m.E`` or
    ``(E, F)`` refers to."""
    if isinstance(node, ast.Call):
        return _names(node.func)
    if isinstance(node, ast.Tuple):
        return {n for elt in node.elts for n in _names(elt)}
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    return set()


def error_uses(tree):
    """The names a module raises, catches or derives a class from."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            used |= _names(node.exc)
        elif isinstance(node, ast.ExceptHandler) and node.type is not None:
            used |= _names(node.type)
        elif isinstance(node, ast.ClassDef):
            for base in node.bases:
                used |= _names(base)
    return used


def unused_errors(errors, others):
    """(name, line) of each class in the ``errors`` source that no
    source in ``others`` raises, catches or derives a class from, and
    that is no base of a class that one does."""
    used = set().union(*(error_uses(ast.parse(text)) for text in others))
    classes = [node for node in ast.parse(errors).body
               if isinstance(node, ast.ClassDef)]
    for node in reversed(classes):  # a base is defined before its subclass
        if node.name in used:
            used |= {n for base in node.bases for n in _names(base)}
    return [(node.name, node.lineno) for node in classes
            if node.name not in used]


def test_unused_errors_are_found():
    errors = ("class Base(Exception):\n    pass\n\nclass Raised(Base):\n"
              "    pass\n\nclass Caught(Base):\n    pass\n\n"
              "class Dead(Base):\n    pass\n")
    user = ("from errors import Caught, Dead, Raised\n\n"
            "def f(x):\n    try:\n        raise Raised(x)\n"
            "    except (KeyError, Caught):\n        return Dead\n")
    assert unused_errors(errors, [user]) == [("Dead", 10)]
    assert unused_errors(errors, ["raise Dead"]) == [("Raised", 4),
                                                    ("Caught", 7)]
    assert unused_errors(errors, ["class Mine(Raised):\n    pass\n"]) \
        == [("Caught", 7), ("Dead", 10)]


def test_every_error_class_is_used():
    errors = ROOT / "src" / "foldsat" / "errors.py"
    found = [f"src/foldsat/errors.py:{line}: {name}"
             for name, line in unused_errors(
                 errors.read_text(),
                 [path.read_text() for path in SOURCES if path != errors])]
    assert not found, "\n".join(found)
