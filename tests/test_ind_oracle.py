"""``Ind`` generated and compiled only as far as a count reads it, against
the whole formula.

``finsem._Evaluator._ind_count`` multiplies the counts of Ind(x, y)'s
conjuncts in order and stops at the first 0, generating each (R, p)
group of conjuncts only when the product reaches it.  The oracle is the
evaluator before that change: ``ind`` generates every conjunct and the
whole ``And`` is compiled and counted.  It runs on a copy of each
structure, so the two share no compiled count.

A count reads the groups fail-first and unsorted, and ``_ind`` walks no
position that ``synkit.seat`` rules out; ``ind`` must still print the
formula it printed before: ``print_order_ind`` is that generation,
group by group in (R, p) order.  ``seat`` itself must hold exactly
where the brute-force enumeration of fillers finds a conjunct, and
``compatible_sorts`` must be its every-position closure.
"""

import gc
import weakref
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
from foldsat.isogen import generic_context, ind, variables_over
from foldsat.pretty import pformat
from foldsat.sigcore import validate_signature
from foldsat.stdlib import builtin_signature, category_to_structure, corpus
from foldsat.synkit import compatible_sorts, conj, seat
from sweep import EQUIV_FORMULAS
from test_finsem_oracle import (cyclic, duplicate, eager_profile,
                                fresh_ind_tables, lcat_structures, relabel)
from test_isogen_oracle import enumerate_fillers, few_parallel_positions
from test_sigcore_oracle import (_codomains_first, dag_signatures,
                                 diamond_stack, draw_structure)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


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
    Signatures with more than four positions into one sort are skipped,
    as in the other oracles: ``Ind`` grows steeply with that number."""
    order, sig = _codomains_first(raw)
    if not few_parallel_positions(sig):
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
    """(x, y) -> the (R, p) groups of Ind(x, y) generated from now on, in
    the order they are generated."""
    drawn = {}
    real = isogen._fillers

    def spy(sig, R, side, *pool):
        p, xy = next(iter(side.items()))
        drawn.setdefault(xy, []).append((R, p))
        return real(sig, R, side, *pool)

    fresh_ind_tables()
    monkeypatch.setattr(isogen, "_fillers", spy)
    return drawn


@pytest.mark.parametrize("n", range(2, 9))
def test_level2_generates_only_the_first_group(monkeypatch, n):
    """Z_n's one ``A`` fiber holds n loops.  Ind(x*, y*) reads the sorts
    with fewest positions first: ``I``'s one group, then ``eqA``'s two,
    then ``comp``'s three.  Every two distinct loops are told apart by
    the first group of ``I`` (on Z_2) or of ``eqA``: level-2 saturation
    generates no later group and no group of ``comp``, and the profile
    is the one every sort's full check gives."""
    want = eager_profile(category_to_structure(cyclic(n)))
    M = category_to_structure(cyclic(n))
    drawn = spy_on_groups(monkeypatch)
    assert saturation_profile(M) == want
    sig = M.sig
    first = [(R, sig.hom(R, "A")[0]) for R in ("I", "eqA")]
    level2 = [xy for xy in drawn if xy[0].sort == "A" and xy[0].name == "x*"]
    assert level2 and all(drawn[xy] == first[:1 if n == 2 else 2]
                          for xy in level2)
    monkeypatch.undo()
    assert all(len(list(isogen._ind(sig, *xy))) == 6 for xy in level2)


def factored(sig, R):
    """The positions of R that factor through another: each q∘g, for q a
    position of R and g a generator out of q's codomain."""
    return {t for _, below in sig.filling(R) for _, t in below}


def print_order_ind(sig, x, y):
    """Ind(x, y) as ``isogen`` printed and generated it before counts
    read it fail-first: the (R, p) groups for every sort R above x's, in
    declaration and ``sig.hom`` order, each sorted by ``pformat``, with
    only the ``factored`` skip, and each group enumerated by the
    brute-force oracle, which finds a position that no filler can take
    on each branch."""
    parts = []
    for R in sig.sorts:
        if sig.level(R) >= sig.level(x.sort):
            continue
        skip = factored(sig, R) if x != y else ()
        for p in sig.hom(R, x.sort):
            if p not in skip:
                parts += sorted(enumerate_fillers(sig, R, p, x, y),
                                key=pformat)
    return conj(parts)


@settings(max_examples=150, deadline=None)
@given(dag_signatures())
def test_generic_pair_sits_exactly_off_factored_positions(raw):
    """Each sort's generic (x, y) differ only at the identity, so
    ``seat`` rules p out exactly when p = q∘g for another position q, or
    when x alone cannot sit at p: ``_ind`` skips the positions it
    skipped when it read ``factored``.  Each p whose path has two
    generators or more is one, which ``seat`` rules out first."""
    sig = validate_signature(raw)
    for K in sig.sorts:
        x, y = generic_context(sig, K)
        for R in sig.sorts:
            skip = factored(sig, R)
            for p in sig.hom(R, K) if R != K else ():
                alone = seat(sig, p, x, x) is not None
                assert (seat(sig, p, x, y) is None) \
                    == (p in skip or not alone), p
                assert len(p.path) == 1 or p in skip, p


def check_print_order(sig, pairs):
    """``ind`` of each pair, and its printed form, against
    ``print_order_ind``, each ``Ind`` generated afresh."""
    sig.ind_table.clear()
    for x, y in pairs:
        want = print_order_ind(sig, x, y)
        assert ind(sig, x, y) == want, (x, y)
        assert pformat(ind(sig, x, y)) == pformat(want)


def generic_pairs(sig):
    """Each sort's generic context (x, y) and (x, x)."""
    for K in sig.sorts:
        x, y = generic_context(sig, K)
        yield from ((x, y), (x, x))


def element_pairs(M):
    """(x*, y*) over every ordered pair of non-empty boundary instances
    of each sort above level 1 of M."""
    for K in M.sig.sorts:
        if M.sig.level(K) == 1:
            continue
        deltas = [d for d in boundary_instances(M, K) if fiber(M, K, d)]
        for da, db in product(deltas, repeat=2):
            yield variables_over(M.sig, K, (da, db), ("x*", "y*"))[0]


def test_ind_matches_print_order_on_builtins_and_diamonds():
    """Among lcat's element pairs, those over different boundaries
    reach positions that ``seat`` rules out although they do not
    factor through another."""
    for name in ("lrg", "lrg_eq", "lcat"):
        sig = builtin_signature(name)
        check_print_order(sig, generic_pairs(sig))
    for M in corpus().values():
        check_print_order(M.sig, element_pairs(M))
    for k in (1, 2, 3):
        sig = validate_signature(diamond_stack(k))
        check_print_order(sig, generic_pairs(sig))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(dag_signatures(), st.data())
def test_ind_matches_print_order_on_dag_signatures(raw, data):
    order, sig = _codomains_first(raw)
    if not few_parallel_positions(sig):
        return
    check_print_order(sig, generic_pairs(sig))
    try:
        M = validate_structure(sig, dict(zip(
            ("carriers", "maps"), draw_structure(sig, order, data))))
    except FunctorialityError:
        return
    check_print_order(sig, element_pairs(M))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(dag_signatures(), st.data())
def test_seat_holds_exactly_where_fillers_exist(raw, data):
    """At every position p of every sort above x's, ``seat(sig, p, x,
    y)`` holds exactly when the enumeration finds a conjunct, for each
    sort's generic pairs and the element pairs of a random structure,
    each also with y = x; and ``compatible_sorts(sig, x)`` lists the
    sorts that have a position of x's sort and take (x, x) at every
    one."""
    order, sig = _codomains_first(raw)
    if not few_parallel_positions(sig):
        return
    pairs = list(generic_pairs(sig))
    try:
        M = validate_structure(sig, dict(zip(
            ("carriers", "maps"), draw_structure(sig, order, data))))
        pairs += [xy for x, y in element_pairs(M) for xy in ((x, y), (x, x))]
    except FunctorialityError:
        pass
    for x, y in dict.fromkeys(pairs):
        K, fits = x.sort, {}
        for R in sig.sorts:
            for p in sig.hom(R, K) if R != K else ():
                fits[p] = bool(enumerate_fillers(sig, R, p, x, y))
                assert (seat(sig, p, x, y) is not None) == fits[p], (p, x, y)
        if x == y:
            assert compatible_sorts(sig, x) == tuple(
                R for R in sig.sorts if R != K and sig.hom(R, K)
                and all(fits[q] for q in sig.hom(R, K)))


def test_partly_generated_ind_does_not_keep_its_signature():
    """Z_2's two loops are told apart in the first group of their
    ``Ind``, which leaves later groups to generate.  That entry of the
    signature's ``ind_table`` holds the signature, and the two still go
    together."""
    sig = parse_signature((CORPUS / "lcat.folds").read_text())
    M = parse_structure((CORPUS / "Z2Cat.str").read_text(), sig)
    assert card_iso_elems(M, "A", *M.carrier("A")) == 0
    assert any(len(c._by_index) < len(list(isogen._ind(sig, *xy)))
               for xy, c in sig.ind_table.items())
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
