"""The output manifest: CLI runs with their exit code and the sha256 of
their stdout and stderr, one tab-separated line per run.

``tests/golden/sweep.tsv`` holds, each as text and as ``--json``:

- ``check-sig`` and ``levels`` on every corpus and golden signature;
- ``gen-iso --verbose`` on every sort of every corpus and golden
  signature;
- ``compat`` on each ``_COMPAT`` run, a signature with a context;
- ``sat``, ``sat --total`` and ``sat --level n`` for each level, on
  every corpus and golden structure, lcat's, ``Fork`` over fork and
  ``Parallel`` over parallel;
- ``eval --card`` of each ``EQUIV_FORMULAS``, the ``~=`` on lcat's ``A``
  and ``O`` whose ``Ind`` a count reads only in part, and of each
  ``GUARDED_FORMULAS``, the ``forall`` chains whose antecedents the
  evaluator tests early, on every corpus and golden structure;
- ``check-model`` with ``corpus/tcat.thy`` on every corpus and golden
  structure;
- ``hom``, ``hom --fibsurj``, ``hsip``, ``equiv`` and ``equiv
  --max-apex 3`` on every ordered pair of corpus structures, and on
  each ``_GOLDEN_PAIRS`` pair;
- the malformed inputs under ``tests/golden``.

Paths are relative to the repository, and every run is made there, in
process, through ``cli.main``.  ``test_sweep.py`` replays the manifest;
after a change that alters output on purpose, rewrite it with
``PYTHONPATH=src python tests/sweep.py`` and say which lines changed.
"""

import hashlib
import io
import os
import shlex
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from foldsat.cli import main, parse_signature

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "tests" / "golden" / "sweep.tsv"

_LCAT = "corpus/lcat.folds"
_THEORY = "corpus/tcat.thy"
_SIGNATURES = ("corpus/lcat.folds", "corpus/lrg.folds", "corpus/lrg_eq.folds",
               "tests/golden/diamond3.folds", "tests/golden/par3.folds",
               "tests/golden/fork.folds", "tests/golden/parallel.folds")
_CORPUS = tuple(f"corpus/{n}.str" for n in (
    "Arrow2", "Chain3", "Disc1", "Disc2", "Disc3", "DoubledI",
    "SquarePoset", "TermCat", "WalkIso", "Z2Cat"))
_GOLDEN = tuple(f"tests/golden/{n}.str" for n in (
    "Disc3Rev", "ParallelPair", "SquarePosetRev", "Z12"))
# structures over other signatures: over fork, whose R takes K at p2 but
# not at p1 when K's two positions differ; over parallel, whose equation
# relates two parallel paths, S3 sitting over one of S2's two elements
_OTHER = (("tests/golden/fork.folds", "tests/golden/Fork.str"),
          ("tests/golden/parallel.folds", "tests/golden/Parallel.str"))
# pairs with a golden structure, for the hom and span searches; the
# last three search homs into Z12, whose twelve arrows share one fiber,
# so only the forward check on comp cuts them
_GOLDEN_PAIRS = (("corpus/SquarePoset.str", "tests/golden/SquarePosetRev.str"),
                 ("corpus/Disc3.str", "tests/golden/Disc3Rev.str"),
                 ("tests/golden/Z12.str", "corpus/Z2Cat.str"),
                 ("corpus/Z2Cat.str", "tests/golden/Z12.str"),
                 ("corpus/SquarePoset.str", "tests/golden/Z12.str"),
                 ("tests/golden/SquarePosetRev.str", "tests/golden/Z12.str"),
                 ("tests/golden/Z12.str", "tests/golden/Z12.str"))
# compat's signatures and contexts: on fork, R takes x at p2 but not at
# p1; on apart, x:O and x:B each have one sort above them
_COMPAT = (("corpus/lrg.folds", "x:O"),
           ("corpus/lrg.folds", "x:O", "f:A(x,x)"),
           (_LCAT, "x:O", "y:O", "f:A(x,y)"),
           ("tests/golden/fork.folds", "s:S", "t:S", "x:K(s,t)"),
           ("tests/golden/apart.folds", "x:O"),
           ("tests/golden/apart.folds", "x:B"))
_MALFORMED = (("check-sig", "tests/golden/BadChar.folds"),
              ("levels", "tests/golden/BadChar.folds"),
              ("sat", _LCAT, "tests/golden/Arrow2Dup.str"),
              ("sat", _LCAT, "tests/golden/Arrow2Dup.str", "--total"))

# ~= on A (level 2) and on O (level 3), whose Ind holds ~= on A in turn
EQUIV_FORMULAS = (
    "forall x:O. forall y:O. A(x,y) ~= A(y,x)",
    "sum x:O. sum y:O. A(x,y) ~= A(x,y)",
    "sum x:O. sum y:O. sum f:A(x,y). sum g:A(x,y). eqA(f,g) ~= eqA(g,f)",
    "O ~= O",
)

# forall chains guarded by ->, each antecedent conjunct tested after the
# last chain binder it mentions (see finsem._guarded_chain)
GUARDED_FORMULAS = (
    # a guard over variables bound outside the chain only
    "sum x:O. sum f:A(x,x). forall y:O. forall g:A(x,y). "
    "I(f) -> comp(f,g,g)",
    # outer and inner guards mixed, one of them already in place
    "sum x:O. forall y:O. forall f:A(x,y). forall g:A(y,x). "
    "forall h:A(x,x). A(x,x) & eqA(f,f) & comp(f,g,h) -> "
    "(sum k:A(x,x). I(k) & eqA(h,k))",
    # an untruncated guard, so the exponent G can exceed one
    "forall x:O. forall y:O. (sum f:A(x,x). true) & A(y,y) -> "
    "(sum g:A(x,y). sum g2:A(x,y). true)",
    # a guarded chain under sum, and guards in two implications
    "sum x:O. sum y:O. forall f:A(x,y). A(y,y) -> (forall g:A(y,x). "
    "eqA(f,f) -> (sum h:A(x,x). comp(f,g,h)))",
    # the guard moves out past a binder whose fiber may be empty
    "sum x:O. sum y:O. forall f:A(y,x). A(x,x) -> false",
    # shadowed binders: the guard reads the outer y, and the inner x
    "sum y:O. forall x:O. (A(x,y) -> (forall y:O. A(y,x)))",
    "sum x:O. forall y:O. forall x:O. A(y,y) & A(x,y) -> A(y,x)",
)


def commands():
    """Every argv of the manifest, in its order."""
    runs = []
    for path in _SIGNATURES:
        runs += [("check-sig", path), ("levels", path)]
    for path in _SIGNATURES:
        sig = parse_signature((ROOT / path).read_text(encoding="utf-8"))
        runs += [("gen-iso", path, K, "--verbose") for K in sig.sorts]
    runs += [("compat",) + argv for argv in _COMPAT]
    height = parse_signature(
        (ROOT / _LCAT).read_text(encoding="utf-8")).height
    for M in _CORPUS + _GOLDEN:
        runs += [("sat", _LCAT, M), ("sat", _LCAT, M, "--total")]
        runs += [("sat", _LCAT, M, "--level", str(n))
                 for n in range(1, height + 1)]
    for pair in _OTHER:
        sig = parse_signature((ROOT / pair[0]).read_text(encoding="utf-8"))
        runs += [("sat",) + pair, ("sat",) + pair + ("--total",)]
        runs += [("sat",) + pair + ("--level", str(n))
                 for n in range(1, sig.height + 1)]
    for M in _CORPUS + _GOLDEN:
        runs += [("eval", _LCAT, M, "-e", text, "--card")
                 for text in EQUIV_FORMULAS + GUARDED_FORMULAS]
    runs += [("check-model", _LCAT, _THEORY, M) for M in _CORPUS + _GOLDEN]
    pairs = [(M, N) for M in _CORPUS for N in _CORPUS] + list(_GOLDEN_PAIRS)
    for M, N in pairs:
        runs += [("hom", _LCAT, M, N), ("hom", _LCAT, M, N, "--fibsurj"),
                 ("hsip", _LCAT, _THEORY, M, N),
                 ("equiv", _LCAT, M, N),
                 ("equiv", _LCAT, M, N, "--max-apex", "3")]
    runs += _MALFORMED
    return [flag + list(argv) for argv in runs for flag in ([], ["--json"])]


def run(argv):
    """``(exit code, sha256 of stdout, sha256 of stderr)`` of one
    in-process run from the repository's root."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return (code,) + tuple(hashlib.sha256(s.getvalue().encode()).hexdigest()
                           for s in (out, err))


def line(argv, outcome) -> str:
    return "\t".join([shlex.join(argv), *map(str, outcome)])


def read():
    """The manifest's ``(argv, line)`` pairs."""
    return [(shlex.split(text.split("\t", 1)[0]), text)
            for text in MANIFEST.read_text(encoding="utf-8").splitlines()]


if __name__ == "__main__":
    lines = [line(argv, run(argv)) for argv in commands()]
    MANIFEST.write_text("".join(f"{t}\n" for t in lines), encoding="utf-8")
    print(f"{len(lines)} runs written to {MANIFEST.relative_to(ROOT)}",
          file=sys.stderr)
