"""Ind filler generation against the enumeration it pruned.

``isogen._ind`` calls ``isogen._fillers`` only at a position p of R
where ``synkit.seat`` holds, with what ``seat`` puts at p and at the
positions p forces.  ``seat`` rules p out where no filler fits: where p
sends two positions of x's sort, along which x or y projects apart, to
one position of R, or where x and y differ below a position that one
variable fills on both sides.  When x and y differ only at the identity,
the latter are the positions that factor through another.  The oracle
is the enumeration without ``seat``, kept here: it finds the first clash
by brute force over the pairs of positions of x's sort, and the second
only on each branch of its walk over the shared positions.  Every
``_fillers`` call made while generating ``Ind`` for the built-in
signatures, diamond stacks and random DAG signatures, the saturation of
the corpus, of random lcat structures and of random structures over DAG
signatures, and ``~=`` between different fibers must return the
oracle's conjuncts, and the oracle must find none at every position
``_ind`` skipped.

``_ind`` keeps every conjunct ``_fillers`` returns, with no
deduplication: each coincidence pattern of the fillers gives one
conjunct, and fresh variables are named in a fixed order, so no two
conjuncts of one position are alpha-equal.  ``alpha_eq`` is
the oracle for that on random DAG signatures.

``_fillers`` and ``variables_over`` build their variables without
``mk_var``'s check.  ``mk_var`` is the oracle for that: rebuilt from its
own projections, every variable of ``iso_formula``, and of the ``Ind``
its ``~=`` nodes expand to, and every variable over a pair of natural
boundaries of a structure, must come back equal, on the corpus and
golden signatures and on random DAG signatures with equations.
"""

from collections import Counter
from itertools import product
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from foldsat import isogen
from foldsat.cli import parse_formula, parse_signature, parse_structure
from foldsat.errors import FunctorialityError
from foldsat.finsem import (boundary_instances, check_saturation, eval_card,
                            saturation_profile, validate_structure)
from foldsat.isogen import (_fresh_name, generic_context, ind, iso_formula,
                            variables_over)
from foldsat.pretty import pformat
from foldsat.sigcore import validate_signature
from foldsat.stdlib import builtin_signature
from foldsat.synkit import Equiv, Forall, Formula, Variable, mk_var
from paper_checks import alpha_eq, corpus
from test_finsem_oracle import fresh_ind_tables, lcat_structures
from test_sigcore_oracle import (_codomains_first, dag_signatures,
                                 diamond_stack, draw_structure)


def enumerate_fillers(sig, R, p, x, y):
    """The conjuncts of Ind_R at position p, one per filler pattern, by
    backtracking over the shared positions, deepest codomain first: each
    is ``R(α) ~= R(β)`` under a ``forall`` for each fresh filler.  There
    is none when x or y cannot sit at p: when p sends two positions of
    x's sort to one position of R, and the variable projects to
    different variables along them."""
    K = x.sort
    if any(sig.compose(p, a) == sig.compose(p, b)
           and z.proj_along(a.path) != z.proj_along(b.path)
           for a in sig.out(K) for b in sig.out(K) for z in (x, y)):
        return []
    derived = {sig.compose(p, g): g for g in sig.out(K)}
    shared = [q for q in sig.out(R) if q != p and q not in derived]
    shared.sort(key=lambda q: (-sig.level(q.cod), sig.out(R).index(q)))
    pool = sorted(x.dep() | y.dep(),
                  key=lambda v: (-sig.level(v.sort), v.name, repr(v)))
    used_names = {v.name for v in pool}

    def val_of(z, q, val):
        if q == p:
            return z
        if q in derived:
            return z.proj_along(derived[q].path)
        return val[q]

    results = []

    def assign(i, val, fresh):
        if i == len(shared):
            results.append((dict(val), tuple(fresh)))
            return
        q = shared[i]
        S = q.cod
        req = {}
        for gen in sig.out_gens(S):
            t = sig.compose(q, sig.cls((gen.name,)))
            av, bv = val_of(x, t, val), val_of(y, t, val)
            if av != bv:
                return
            req[gen.name] = av
        for v in [v for v in pool + fresh if v.sort == S
                  and all(dict(v.proj)[g] == w for g, w in req.items())]:
            val[q] = v
            assign(i + 1, val, fresh)
            del val[q]
        name = _fresh_name(S, used_names | {v.name for v in fresh})
        try:
            newv = mk_var(sig, name, S, req)
        except FunctorialityError:
            return
        val[q] = newv
        assign(i + 1, val, fresh + [newv])
        del val[q]

    assign(0, {}, [])
    conjuncts = []
    gen_classes = {g.name: sig.cls((g.name,)) for g in sig.out_gens(R)}
    for val, fresh in results:
        taken = used_names | {v.name for v in fresh}
        aname = _fresh_name(R, taken)
        bname = _fresh_name(R, taken | {aname})
        alpha = mk_var(sig, aname, R, {g: val_of(x, c, val)
                                       for g, c in gen_classes.items()})
        beta = mk_var(sig, bname, R, {g: val_of(y, c, val)
                                      for g, c in gen_classes.items()})
        gamma = (alpha.boundary() | beta.boundary()) - (x.dep() | y.dep())
        order = sorted(gamma, key=lambda v: (-sig.level(v.sort), v.name))
        out = Equiv(R, alpha, beta)
        for v in reversed(order):
            out = Forall(v, out)
        conjuncts.append(out)
    return conjuncts


@pytest.fixture
def checked(monkeypatch):
    """Route every ``_fillers`` call through the oracle, and run the
    oracle at every position of a sort above x's that ``_ind`` did not
    pass to ``_fillers``, where it must find no conjunct.  ``_ind``
    yields its groups lazily, so the wrapper drains them all before it
    reads which positions were reached.  Yields the list of
    ``_fillers`` results, one per call, and the list of skipped
    ``(R, p)``."""
    real_fillers, real_ind = isogen._fillers, isogen._ind
    calls, reached, skipped = [], set(), []

    def both(sig, R, side, *pool):
        p, (x, y) = next(iter(side.items()))
        got = real_fillers(sig, R, side, *pool)
        assert got == enumerate_fillers(sig, R, p, x, y), (R, p, x, y)
        calls.append(got)
        reached.add((R, p))
        return got

    def ind(sig, x, y):
        reached.clear()
        groups = list(real_ind(sig, x, y))
        for R in sig.sorts:
            if sig.level(R) >= sig.level(x.sort):
                continue
            for p in sig.hom(R, x.sort):
                if (R, p) not in reached:
                    assert enumerate_fillers(sig, R, p, x, y) == [], (
                        R, p, x, y)
                    skipped.append((R, p))
        return iter(groups)

    monkeypatch.setattr(isogen, "_fillers", both)
    monkeypatch.setattr(isogen, "_ind", ind)
    fresh_ind_tables()
    yield calls, skipped
    fresh_ind_tables()


def test_pruned_fillers_match_enumeration(checked):
    calls, skipped = checked
    sigs = [builtin_signature(n) for n in ("lrg", "lrg_eq", "lcat")]
    sigs += [validate_signature(diamond_stack(k)) for k in (1, 2, 3)]
    for sig in sigs:
        for K in sig.sorts:
            iso_formula(sig, K)
    for M in corpus().values():
        saturation_profile(M)
        phi = parse_formula("forall x:O. forall y:O. A(x,y) ~= A(y,x)",
                            M.sig)
        eval_card(M, phi)
    # 45 positions take fillers; ``_ind`` skips 103 that no filler can
    # take, ``seat`` ruling each out before ``_fillers`` is called
    assert len(calls) == 45 and all(calls)
    assert len(skipped) == 103


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(lcat_structures())
def test_pruned_fillers_match_enumeration_in_saturation(checked, M):
    """The profile generates no ``Ind`` for level-1 sorts, so the sorts
    above level 1 are checked in full as well."""
    fresh_ind_tables(M.sig)
    saturation_profile(M)
    for K in M.sig.sorts:
        if M.sig.level(K) >= 2:
            check_saturation(M, K)
    assert checked[0]


def few_parallel_positions(sig):
    """No sort has more than four positions into one sort: ``Ind`` grows
    steeply with that number, as the saturation oracles note."""
    return all(n <= 4 for K in sig.sorts
               for n in Counter(q.cod for q in sig.out(K)).values())


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(dag_signatures(), st.data())
def test_pruned_fillers_match_enumeration_on_dag_signatures(checked, raw,
                                                            data):
    """Equations and parallel arrows: each sort's generic ``Ind``, then
    the ``Ind`` over element pairs that saturation evaluates on a random
    structure, for every sort above level 1."""
    order, sig = _codomains_first(raw)
    if not few_parallel_positions(sig):
        return
    for K in sig.sorts:
        iso_formula(sig, K)
    try:
        M = validate_structure(sig, dict(zip(
            ("carriers", "maps"), draw_structure(sig, order, data))))
    except FunctorialityError:
        return
    for K in sig.sorts:
        if sig.level(K) >= 2:
            check_saturation(M, K)


# sort O; sort S { d: O }; sort R { p1: S, p2: S, p3: S }
PAR3 = {"sorts": ["O", "S", "R"],
        "arrows": [("d", "S", "O"), ("p1", "R", "S"), ("p2", "R", "S"),
                   ("p3", "R", "S")],
        "equations": []}


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@example(PAR3)
@given(dag_signatures())
def test_no_two_filler_patterns_are_alpha_equal(raw):
    """Signatures where one sort has more than four positions of one
    sort are skipped, as in the saturation oracles: ``Ind`` grows
    steeply with that number."""
    sig = validate_signature(raw)
    if not few_parallel_positions(sig):
        return
    real = isogen._fillers

    def distinct(sig, R, side, *pool):
        formulas = real(sig, R, side, *pool)
        for i, f in enumerate(formulas):
            for g in formulas[:i]:
                assert not alpha_eq(f, g), (R, side, pformat(f))
        return formulas

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(isogen, "_fillers", distinct)
        for K in sig.sorts:
            list(isogen._ind(sig, *generic_context(sig, K)))


DIRS = [Path(__file__).resolve().parent.parent / "corpus",
        Path(__file__).resolve().parent / "golden"]
# every signature file but the malformed one, with the structures over
# it but the rejected Arrow2Dup and Z12, whose 1728 boundaries of comp
# make three million pairs
SIGNATURES = {path: [M for d in DIRS for M in sorted(d.glob("*.str"))
                     if M.stem not in ("Arrow2Dup", "Z12")
                     and f"over {path.stem} " in M.read_text()]
              for d in DIRS for path in sorted(d.glob("*.folds"))
              if path.stem != "BadChar"}


def assert_checked(sig, variables):
    """Each variable, with its dependency closure, rebuilt by ``mk_var``
    from its own projections: no equation may break, and the rebuilt
    variable must equal it."""
    for v in set().union(*(v.dep() for v in variables)):
        assert mk_var(sig, v.name, v.sort, dict(v.proj)) == v, v


def assert_ind_checked(sig, x, y, seen):
    """``assert_checked`` on x, y and every binder and ``~=`` argument of
    Ind(x, y), then on the ``Ind`` of each ``~=`` node, over the copies
    of its arguments that the evaluator makes; ``seen`` holds the ``~=``
    nodes already expanded."""
    found, stack = [x, y], [ind(sig, x, y)]
    while stack:
        phi = stack.pop()
        if isinstance(phi, Equiv) and phi not in seen:
            seen.add(phi)
            if sig.level(phi.sort) > 1:
                assert_ind_checked(
                    sig, Variable("a*", phi.sort, phi.alpha.proj),
                    Variable("b*", phi.sort, phi.beta.proj), seen)
        for field in phi._fields:
            value = getattr(phi, field)
            if isinstance(value, Variable):
                found.append(value)
            elif isinstance(value, Formula):
                stack.append(value)
            elif isinstance(value, tuple):
                stack.extend(value)
    assert_checked(sig, found)


@pytest.mark.parametrize("path", SIGNATURES, ids=lambda p: p.name)
def test_ind_variables_pass_mk_var_on_corpus_and_golden(path):
    """Every sort's ``Ind``, and ``variables_over`` on every pair of
    natural boundaries of each structure over the signature."""
    sig = parse_signature(path.read_text())
    seen = set()
    for K in sig.sorts:
        assert_ind_checked(sig, *generic_context(sig, K), seen)
    for M in (parse_structure(f.read_text(), sig) for f in SIGNATURES[path]):
        for K in sig.sorts:
            deltas = boundary_instances(M, K)
            for da, db in product(deltas, repeat=2):
                assert_checked(sig, variables_over(
                    sig, K, (da, db), ("x*", "y*"))[0])


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(dag_signatures())
def test_ind_variables_pass_mk_var_on_dag_signatures(raw):
    """Equations between parallel paths included; the signatures that
    ``few_parallel_positions`` rejects are skipped, as above."""
    sig = validate_signature(raw)
    if not few_parallel_positions(sig):
        return
    seen = set()
    for K in sig.sorts:
        assert_ind_checked(sig, *generic_context(sig, K), seen)
