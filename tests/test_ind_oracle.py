"""``Ind`` generated and compiled only as far as a count reads it, against
the whole formula.

``finsem._Evaluator._ind_count`` multiplies the counts of Ind(x, y)'s
conjuncts in order and stops at the first 0, generating each (R, p)
group of conjuncts only when the product reaches it.  The oracle is the
evaluator before that change: ``ind`` generates every conjunct and the
whole ``And`` is compiled and counted.  It runs on a copy of each
structure, so the two share no compiled count.
"""

import gc
import weakref
from collections import Counter
from itertools import product
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from foldsat import finsem, isogen
from foldsat.cli import main, parse_formula, parse_signature, parse_structure
from foldsat.errors import FunctorialityError
from foldsat.finsem import (FinStructure, boundary_instances, card_iso_elems,
                            eval_card, fiber, saturation_profile,
                            validate_structure)
from foldsat.isogen import ind, variables_over
from foldsat.stdlib import category_to_structure, corpus
from test_finsem_oracle import (cyclic, duplicate, eager_profile,
                                fresh_ind_tables, lcat_structures, relabel)
from test_sigcore_oracle import (_codomains_first, dag_signatures,
                                 draw_structure)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

# ~= on A (level 2) and on O (level 3), whose Ind holds ~= on A in turn
EQUIV_FORMULAS = (
    "forall x:O. forall y:O. A(x,y) ~= A(y,x)",
    "sum x:O. sum y:O. A(x,y) ~= A(x,y)",
    "sum x:O. sum y:O. sum f:A(x,y). sum g:A(x,y). eqA(f,g) ~= eqA(g,f)",
    "O ~= O",
)


def eager_ind_count(ev, x, y):
    """Ind(x, y) generated in full by ``ind`` and compiled as one ``And``."""
    return ev._count(ind(ev.sig, x, y))


def eager_copy(M):
    """A copy of M whose evaluator counts every ``Ind`` eagerly."""
    N = FinStructure(M.sig, M.carriers, M.maps)
    ev = N.evaluator()
    ev._ind_count = lambda x, y: eager_ind_count(ev, x, y)
    return N


def check_lazy_counts(M, texts=EQUIV_FORMULAS):
    """Ind(x*, y*) over every ordered pair of non-empty fibers of every
    sort above level 1, each element pair counted by the fiber counter,
    then by ``eval_card`` of the eager ``ind`` on a copy of M; and each
    formula of ``texts`` counted on M and on that copy.  Every lazy
    count is made before the first eager one, so the lazy counts are the
    ones that find ``Ind`` partly generated.  Returns the number of
    element pairs checked."""
    fresh_ind_tables(M.sig)
    sig = M.sig
    lazy, cases = {}, []
    for K in sig.sorts:
        if sig.level(K) == 1:
            continue
        deltas = [d for d in boundary_instances(M, K) if fiber(M, K, d)]
        for da, db in product(deltas, repeat=2):
            card = finsem._ind_counter(M, K, da, db)
            for a, b in product(fiber(M, K, da), fiber(M, K, db)):
                lazy[K, a, b] = card(a, b)
                cases.append((K, da, db, a, b))
    formulas = [parse_formula(text, sig) for text in texts]
    lazy_equiv = [eval_card(M, phi) for phi in formulas]
    N = eager_copy(M)
    for K, da, db, a, b in cases:
        (xv, yv), value_of = variables_over(sig, K, (da, db), ("x*", "y*"))
        asg = {**value_of, xv: a, yv: b}
        assert lazy[K, a, b] == eval_card(N, ind(sig, xv, yv), asg), (K, a, b)
    assert lazy_equiv == [eval_card(N, phi) for phi in formulas]
    return len(cases)


def test_lazy_counts_match_eager_ind_on_corpus():
    """The corpus, and each structure with the first element of a sort
    above level 1 duplicated, so that a fiber holds two elements that no
    conjunct tells apart."""
    checked = 0
    for M in corpus().values():
        checked += check_lazy_counts(M)
        for K in M.sig.sorts:
            if M.sig.level(K) > 1 and M.carrier(K):
                checked += check_lazy_counts(duplicate(M, K, M.carrier(K)[0]))
    assert checked > 500


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(lcat_structures())
def test_lazy_counts_match_eager_ind_on_lcat(M):
    check_lazy_counts(M)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(dag_signatures(), st.data())
def test_lazy_counts_match_eager_ind_on_dag_signatures(raw, data):
    """Every sort above level 1 of a random signature; the ``~=``
    formulas name lcat's sorts, so only the fiber pairs are checked.
    Signatures with more than three positions into one sort are skipped,
    as in the other oracles: ``Ind`` grows steeply with that number."""
    order, sig = _codomains_first(raw)
    if any(n > 3 for K in sig.sorts
           for n in Counter(q.cod for q in sig.out(K)).values()):
        return
    try:
        M = validate_structure(sig, dict(zip(
            ("carriers", "maps"), draw_structure(sig, order, data))))
    except FunctorialityError:
        return
    check_lazy_counts(M, ())


@pytest.mark.parametrize("name", sorted(p.stem for p in CORPUS.glob("*.str")))
def test_lazy_equiv_matches_eager_in_eval_card(monkeypatch, capsys, name):
    """``eval --card`` of ``~=`` formulas prints the same count when every
    ``Ind`` it reaches is generated and compiled in full."""
    def printed():
        out = []
        for text in EQUIV_FORMULAS:
            code = main(["eval", str(CORPUS / "lcat.folds"),
                         str(CORPUS / f"{name}.str"), "-e", text, "--card"])
            out.append((code, capsys.readouterr().out))
        return out

    lazy = printed()
    monkeypatch.setattr(finsem._Evaluator, "_ind_count", eager_ind_count)
    assert printed() == lazy
    assert all(code == 0 for code, _ in lazy)


def spy_on_groups(monkeypatch):
    """(x, y) -> the number of (R, p) groups of Ind(x, y) generated from
    now on."""
    drawn = Counter()
    real = isogen._ind

    def spy(sig, x, y):
        groups = real(sig, x, y)

        def counted():
            for group in groups:
                drawn[x, y] += 1
                yield group
        return counted()

    fresh_ind_tables()
    monkeypatch.setattr(isogen, "_ind", spy)
    return drawn


@pytest.mark.parametrize("n", range(2, 9))
def test_level2_generates_only_the_first_group(monkeypatch, n):
    """Z_n's one ``A`` fiber holds n loops, and every two distinct ones
    are told apart by a conjunct of the first (R, p) group of
    Ind(x*, y*): level-2 saturation generates no later group, and the
    profile is the one every sort's full check gives."""
    want = eager_profile(category_to_structure(cyclic(n)))
    M = category_to_structure(cyclic(n))
    drawn = spy_on_groups(monkeypatch)
    assert saturation_profile(M) == want
    level2 = [xy for xy in drawn if xy[0].sort == "A" and xy[0].name == "x*"]
    assert level2 and all(drawn[xy] == 1 for xy in level2)
    monkeypatch.undo()
    assert all(len(list(isogen._ind(M.sig, *xy))) > 1 for xy in level2)


def test_partly_generated_ind_does_not_keep_its_signature():
    """Z_2's two loops are told apart in the first group of their
    ``Ind``, which leaves later groups to generate.  That entry of the
    signature's ``ind_table`` holds the signature, and the two still go
    together."""
    sig = parse_signature((CORPUS / "lcat.folds").read_text())
    M = parse_structure((CORPUS / "Z2Cat.str").read_text(), sig)
    assert card_iso_elems(M, "A", *M.carrier("A")) == 0
    assert any(c.more() for c in sig.ind_table.values())
    gone = weakref.ref(sig)
    del sig, M
    gc.collect()
    assert gone() is None


# DoubledI's level-1 violation settles its profile before any Ind
@pytest.mark.parametrize("name", sorted(p.stem for p in CORPUS.glob("*.str")
                                        if p.stem != "DoubledI"))
def test_structures_over_one_signature_share_its_ind(monkeypatch, name):
    """Saturating a relabelled copy of a corpus structure, its carriers
    reversed, generates no ``Ind(x, y)`` that saturating the structure
    itself generated: both read the one ``ind_table`` of their
    signature, as ``hsip`` and ``equiv`` do for their two structures."""
    generated = []
    real = isogen._ind

    def spy(sig, x, y):
        generated.append((x, y))
        return real(sig, x, y)

    sig = parse_signature((CORPUS / "lcat.folds").read_text())
    M = parse_structure((CORPUS / f"{name}.str").read_text(), sig)
    monkeypatch.setattr(isogen, "_ind", spy)
    saturation_profile(M)
    first = set(generated)
    generated.clear()
    saturation_profile(relabel(M, lambda K, carrier: carrier[::-1]))
    assert first and not first & set(generated)
