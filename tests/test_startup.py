"""Start-up: a command loads only the modules it runs.

Each check runs a fresh interpreter, since this process has imported
every module of the package already.  A command's modules are compared
with those of a bare interpreter in the same environment, whose site
hooks may load modules of their own.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# runs foldsat.cli as `python -m foldsat.cli ARGS` does, then prints the
# loaded modules on stderr at exit
WRAPPER = """\
import atexit, runpy, sys
atexit.register(lambda: print(*sorted(sys.modules), file=sys.stderr))
runpy.run_module("foldsat.cli", run_name="__main__", alter_sys=True)
"""

SHOW_MODULES = "import sys\nprint(*sorted(sys.modules), file=sys.stderr)\n"

# what neither a signature command nor the package's import needs
NOT_AT_START = {"dataclasses", "inspect", "foldsat.finsem", "foldsat.homspan",
                "foldsat.isogen", "foldsat.pretty"}


def python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, cwd=ROOT, env=env, timeout=60)


def modules(run):
    return set(run.stderr.splitlines()[-1].split())


@pytest.fixture(scope="module")
def bare():
    return modules(python("-c", SHOW_MODULES))


@pytest.mark.parametrize("command, out", [
    ("levels", "comp:1 I:1 eqA:1 A:2 O:3\n"),
    ("check-sig", "ok: lcat (height 3)\n"),
])
def test_signature_commands_load_no_search_module(bare, command, out):
    run = python("-c", WRAPPER, command, "corpus/lcat.folds")
    assert (run.returncode, run.stdout) == (0, out)
    added = modules(run) - bare
    assert "foldsat.sigcore" in added
    assert not added & NOT_AT_START, sorted(added & NOT_AT_START)


def test_builtin_signature_loads_no_search_module(bare):
    """A built-in signature is parsed from its text: ``stdlib`` imports
    ``finsem`` only to build a structure."""
    run = python("-c", "from foldsat import builtin_signature\n"
                       "builtin_signature('lcat')\n" + SHOW_MODULES)
    assert run.returncode == 0, run.stderr
    added = modules(run) - bare
    assert "foldsat.stdlib" in added
    assert not added & NOT_AT_START, sorted(added & NOT_AT_START)


def test_package_loads_its_modules_on_first_use(bare):
    """Importing the package loads none of its modules; each name of
    ``__all__`` then imports, from the module that defines it."""
    run = python("-c", "import foldsat\n" + SHOW_MODULES)
    assert run.returncode == 0
    assert modules(run) - bare == {"foldsat"}
    run = python("-c", "import importlib, foldsat\n"
                       "from foldsat import *\n"
                       "for name in foldsat.__all__:\n"
                       "    value = getattr(foldsat, name)\n"
                       "    if name == '__version__':\n"
                       "        continue\n"
                       "    home = importlib.import_module(value.__module__)\n"
                       "    assert getattr(home, name) is value, name\n"
                       "assert set(foldsat.__all__) <= set(dir(foldsat))\n")
    assert (run.returncode, run.stderr) == (0, "")
