"""Fast paths of the finite semantics against their brute-force oracles.

Each oracle is the routine the fast path replaced, kept here: the fiber
by a scan of the carrier, boundary instances by backtracking over whole
carriers, ``Ind`` over element-named variables, the permanent over every
bijection and over column subsets, and witness counts by direct recursion
with no memo.  The inputs are random small lcat structures (preorders
and cyclic groups, some with one element duplicated, which breaks
saturation) and the corpus.
"""

import random
import time
from collections import Counter
from itertools import permutations
from math import factorial, log2, prod

import pytest
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

from foldsat import finsem, isogen
from foldsat.cli import _ATOM_VAR, parse_formula
from foldsat.errors import FoldsError, FunctorialityError, InvalidBoundary
from foldsat.finsem import (_permanent, _saturated, boundary_instances,
                            boundary_key, card_iso_elems, check_saturation,
                            eval_card, fiber, satisfies, saturation_profile,
                            validate_structure)
from foldsat.isogen import ind, iso_formula
from foldsat.pretty import pformat
from foldsat.stdlib import (FiniteCategory, _poset_category,
                            builtin_signature, category_to_structure, corpus,
                            tcat_axioms)
from foldsat.synkit import (And, Atom, Bottom, Equiv, Exists, Forall,
                            Formula, Iff, Implies, Or, Top, Variable,
                            conj, mk_var)
from paper_checks import boundary_of, element_variable
from sweep import GUARDED_FORMULAS
from test_sigcore_oracle import (_codomains_first, dag_signatures,
                                 draw_structure)

SETTINGS = settings(max_examples=30, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


# -- oracles ---------------------------------------------------------------

def scan_fiber(M, K, delta):
    """The fiber by validating the boundary, then scanning the carrier."""
    sig = M.sig
    classes = sig.out(K)
    if set(delta) != set(classes):
        raise InvalidBoundary(
            f"boundary for {K!r} must assign exactly its positions")
    for q in classes:
        e = delta[q]
        if e not in M.carrier(q.cod):
            raise InvalidBoundary(f"{e!r} is not in the carrier of "
                                  f"{q.cod!r}")
        for g in sig.out_gens(q.cod):
            want = delta[sig.compose(q, sig.cls((g.name,)))]
            if M.apply_gen(g.name, e) != want:
                raise InvalidBoundary(
                    f"boundary for {K!r} violates {g.name!r} naturality "
                    f"at position {q.name!r}")
    return tuple(e for e in M.carrier(K) if boundary_of(M, K, e) == delta)


def full_boundary_fibers(M, K):
    """The fiber index keyed as it first was: each element by its images
    along every position out of K, not only along K's generators."""
    groups = {}
    for e in M.carrier(K):
        key = tuple(M.apply(q.path, e) for q in M.sig.out(K))
        groups.setdefault(key, []).append(e)
    return {key: tuple(es) for key, es in groups.items()}


def eager_profile(M):
    """Every sort checked in full by the brute-force violation list, then
    each level read off: the profile before levels were decided
    bottom-up, and before level 1 was read off the fiber sizes."""
    sig = M.sig
    by_sort = {K: not violations(M, K, named_card_iso) for K in sig.sorts}
    profile = {}
    for n in range(1, sig.height + 1):
        profile[n] = all(by_sort[K] for K in sig.sorts
                         if sig.level(K) <= n)
    profile["total"] = profile[sig.height]
    return profile


def backtrack_boundary_instances(M, K):
    """Every consistent boundary, trying each carrier element at each
    position."""
    sig = M.sig
    classes = sorted(sig.out(K), key=lambda a: (-sig.level(a.cod),
                                                sig.out(K).index(a)))
    results = []

    def assign(i, val):
        if i == len(classes):
            results.append(dict(val))
            return
        q = classes[i]
        for e in M.carrier(q.cod):
            if all(M.apply_gen(g.name, e) == val[sig.compose(q, sig.cls(
                    (g.name,)))] for g in sig.out_gens(q.cod)):
                val[q] = e
                assign(i + 1, val)
                del val[q]

    assign(0, {})
    return results


def pair_context(M, K, a, b):
    """x*, y* over the boundaries of a and b, with boundary variables
    named after their elements, plus the assignment realizing them."""
    cache = {}
    va = element_variable(M, K, a, cache)
    vb = element_variable(M, K, b, cache)
    xv = Variable("x*", K, va.proj)
    yv = Variable("y*", K, vb.proj)
    asg = {v: e for (s, e, _), v in cache.items()}
    asg[xv] = a
    asg[yv] = b
    return xv, yv, asg


def named_card_iso(M, K, a, b, count=eval_card):
    xv, yv, asg = pair_context(M, K, a, b)
    phi = ind(M.sig, xv, yv)
    fv = phi.free_vars()
    return count(M, phi, {v: e for v, e in asg.items() if v in fv})


def subset_permanent(rows):
    """The permanent by dynamic programming over the set of columns the
    first rows use: 2**n sets at most rather than n! bijections."""
    ways = {0: 1}
    for row in rows:
        nxt = {}
        for used, n in ways.items():
            for j, w in enumerate(row):
                bit = 1 << j
                if w and not used & bit:
                    nxt[used | bit] = nxt.get(used | bit, 0) + n * w
        ways = nxt
    return sum(ways.values())


def brute_permanent(rows):
    n = len(rows)
    return sum(prod(rows[i][j] for i, j in enumerate(image))
               for image in permutations(range(n)))


def oracle_power(b, a):
    """``b ** a``, or the evaluator's error when that would pass its bit
    bound, judged by the logarithm."""
    if b > 1 and a > finsem._MAX_BITS / log2(b):
        raise FoldsError(f"a witness count exceeds {finsem._MAX_BITS} bits")
    return b ** a


def naive_card(M, phi, asg=None):
    """Witness count by direct recursion: no memo, fibers by scanning,
    and ``~=`` as a sum over every bijection of the fibers.  It counts
    every subformula, also where the evaluator stops early, so a power
    past the evaluator's bit bound is an error here too."""
    def fib(var, asg):
        return scan_fiber(M, var.sort, {q: asg[var.proj_along(q.path)]
                                        for q in M.sig.out(var.sort)})

    def rec(f, asg):
        if isinstance(f, Top):
            return 1
        if isinstance(f, Bottom):
            return 0
        if isinstance(f, Atom):
            return int(bool(fib(f.var, asg)))
        if isinstance(f, And):
            return prod(rec(a, asg) for a in f.args)
        if isinstance(f, Or):
            return int(any(rec(a, asg) for a in f.args))
        if isinstance(f, Implies):
            return oracle_power(rec(f.rhs, asg), rec(f.lhs, asg))
        if isinstance(f, Iff):
            a, b = rec(f.lhs, asg), rec(f.rhs, asg)
            return oracle_power(b, a) * oracle_power(a, b)
        if isinstance(f, (Forall, Exists)):
            counts = [rec(f.body, {**asg, f.var: e})
                      for e in fib(f.var, asg)]
            if isinstance(f, Forall):
                return prod(counts)
            return sum(counts) if f.untruncated else int(any(counts))
        if isinstance(f, Equiv):
            f1, f2 = fib(f.alpha, asg), fib(f.beta, asg)
            if len(f1) != len(f2):
                return 0
            xv = Variable("a*", f.sort, f.alpha.proj)
            yv = Variable("b*", f.sort, f.beta.proj)
            inner = ind(M.sig, xv, yv)
            return sum(prod(rec(inner, {**asg, xv: a, yv: b})
                            for a, b in zip(f1, image))
                       for image in permutations(f2))
        raise TypeError(f)

    return rec(phi, dict(asg or {}))


def fresh_hash(term):
    """The structural hash recomputed over the whole tree, as a plain
    frozen dataclass would compute it."""
    class Hashed:
        def __init__(self, h):
            self.h = h

        def __hash__(self):
            return self.h

    def mirror(x):
        names = getattr(type(x), "_fields", None)
        if names is not None:
            return Hashed(hash(tuple(mirror(getattr(x, n)) for n in names)))
        if isinstance(x, tuple):
            return tuple(mirror(a) for a in x)
        return x

    return hash(mirror(term))


def fresh_dep(v):
    out = {v}
    for _, w in v.proj:
        out |= fresh_dep(w)
    return out


def fresh_free_vars(f):
    if isinstance(f, (Top, Bottom)):
        return set()
    if isinstance(f, Atom):
        return fresh_dep(f.var) - {f.var}
    if isinstance(f, (And, Or)):
        return set().union(*(fresh_free_vars(a) for a in f.args))
    if isinstance(f, (Implies, Iff)):
        return fresh_free_vars(f.lhs) | fresh_free_vars(f.rhs)
    if isinstance(f, (Forall, Exists)):
        return (fresh_free_vars(f.body) | fresh_dep(f.var)) - {f.var}
    if isinstance(f, Equiv):
        return ((fresh_dep(f.alpha) - {f.alpha})
                | (fresh_dep(f.beta) - {f.beta}))
    raise TypeError(f)


# -- inputs ----------------------------------------------------------------

def cyclic(n):
    g = [f"g{i}" for i in range(n)]
    comp = {(g[a], g[b]): g[(a + b) % n] for a in range(n) for b in range(n)}
    return FiniteCategory(f"Z{n}", ("o",), tuple((x, "o", "o") for x in g),
                          comp, {"o": g[0]})


def duplicate(M, K, e):
    """M with a copy of element e of sort K over the same boundary."""
    carriers = {s: list(M.carrier(s)) for s in M.sig.sorts}
    maps = {g: dict(m) for g, m in M.maps.items()}
    carriers[K].append(f"{e}'")
    for g in M.sig.out_gens(K):
        maps[g.name][f"{e}'"] = maps[g.name][e]
    return validate_structure(M.sig, {"carriers": carriers, "maps": maps})


def drop(M, K, e):
    """M without element e of a level-1 sort K."""
    carriers = {s: [x for x in M.carrier(s) if (s, x) != (K, e)]
                for s in M.sig.sorts}
    maps = {g.name: {x: v for x, v in M.maps[g.name].items()
                     if (g.dom, x) != (K, e)}
            for g in M.sig.gens}
    return validate_structure(M.sig, {"carriers": carriers, "maps": maps})


def level1_mutants(M):
    """M with the first or the last element of each level-1 sort dropped
    or duplicated."""
    out = []
    for K in M.sig.sorts:
        if M.sig.level(K) == 1:
            for e in dict.fromkeys(M.carrier(K)[:1] + M.carrier(K)[-1:]):
                out += [drop(M, K, e), duplicate(M, K, e)]
    return out


@st.composite
def lcat_structures(draw, size=3):
    """A preorder on at most ``size`` objects or a cyclic group of order
    at most ``size``, sometimes with one element duplicated."""
    if draw(st.booleans()):
        C = cyclic(draw(st.integers(1, size)))
    else:
        objs = [f"p{i}" for i in range(draw(st.integers(1, size)))]
        pairs = [(a, b) for a in objs for b in objs if a != b]
        covers = draw(st.lists(st.sampled_from(pairs), unique=True,
                               max_size=3)) if pairs else []
        C = _poset_category("P", objs, covers)
    M = category_to_structure(C)
    if draw(st.booleans()):
        K = draw(st.sampled_from([K for K in M.sig.sorts if M.carrier(K)]))
        M = duplicate(M, K, draw(st.sampled_from(M.carrier(K))))
    return M


# names the formulas below bind, few enough that binders shadow each other
NAMES = ("x", "y", "f", "g")


def _application(draw, sig, env, name, sorts=None):
    """A variable named ``name`` of one of ``sorts`` (any sort if None),
    applied to variables of the scope ``env``; None when no sort can be
    applied or the drawn arguments break an equation of ``sig``."""
    scope = list(env.values())
    sorts = [K for K in (sorts or sig.sorts)
             if all(any(v.sort == g.cod for v in scope)
                    for g in sig.out_gens(K))]
    if not sorts:
        return None
    K = draw(st.sampled_from(sorts))
    fillers = {g.name: draw(st.sampled_from([v for v in scope
                                              if v.sort == g.cod]))
               for g in sig.out_gens(K)}
    try:
        return mk_var(sig, name, K, fillers)
    except FoldsError:
        return None


@st.composite
def formulas(draw, sig, env=None, depth=3):
    """A formula over ``sig`` in the form the parser builds: ``env`` maps
    each name in scope to its variable, a binder shadows an outer
    variable of its name unless the sort of another variable in scope
    depends on it (the parser rejects that binder), atoms and the sides
    of ``~=`` carry the parser's placeholder name, and ``&``/``|`` have
    two or three arguments.  Closed when ``env`` is empty."""
    env = env or {}
    base = next(K for K in sig.sorts if not sig.out_gens(K))
    kinds = ["true", "false", "atom", "~="]
    if depth:
        kinds += ["&", "|", "->", "<->", "forall", "exists", "sum"]
    kind = draw(st.sampled_from(kinds))

    def sub(scope=env):
        return draw(formulas(sig, scope, depth - 1))

    if kind == "true":
        return Top()
    if kind == "false":
        return Bottom()
    if kind in ("atom", "~="):
        alpha = (_application(draw, sig, env, _ATOM_VAR)
                 or mk_var(sig, _ATOM_VAR, base))
        if kind == "atom":
            return Atom(alpha)
        beta = _application(draw, sig, env, _ATOM_VAR, [alpha.sort]) or alpha
        return Equiv(alpha.sort, alpha, beta)
    if kind in ("&", "|"):
        args = tuple(sub() for _ in range(draw(st.integers(2, 3))))
        return And(args) if kind == "&" else Or(args)
    if kind in ("->", "<->"):
        return (Implies if kind == "->" else Iff)(sub(), sub())
    # the variable bound last has no dependent, so some name is free
    name = draw(st.sampled_from([
        n for n in NAMES
        if not any(env.get(n) in w.dep() for w in env.values()
                   if w is not env.get(n))]))
    v = _application(draw, sig, env, name) or mk_var(sig, name, base)
    body = sub({**env, name: v})
    if kind == "forall":
        return Forall(v, body)
    return Exists(v, body, untruncated=kind == "sum")


def relabel(M, order):
    """M with fresh element names, each carrier in the order ``order``
    picks (a permutation seed per sort)."""
    ren = {K: {e: f"{K}#{i}" for i, e in enumerate(
        order(K, M.carrier(K)))} for K in M.sig.sorts}
    carriers = {K: [ren[K][e] for e in order(K, M.carrier(K))]
                for K in M.sig.sorts}
    maps = {g.name: {ren[g.dom][e]: ren[g.cod][v]
                     for e, v in M.maps[g.name].items()}
            for g in M.sig.gens}
    return validate_structure(M.sig, {"carriers": carriers, "maps": maps})


def pairs_in_fibers(M, K):
    for delta in backtrack_boundary_instances(M, K):
        F = scan_fiber(M, K, delta)
        for a in F:
            for b in F:
                yield a, b


def violations(M, K, card):
    """check_saturation's list, with the cards from ``card``."""
    out = []
    for delta in backtrack_boundary_instances(M, K):
        F = scan_fiber(M, K, delta)
        for a in F:
            for b in F:
                c = card(M, K, a, b)
                if c != (1 if a == b else 0):
                    out.append({"sort": K,
                                "boundary": {q.name: e
                                             for q, e in delta.items()},
                                "pair": (a, b), "card": c})
    return out


# -- fiber index and boundary instances -------------------------------------

def check_fibers(M, rnd):
    """Every boundary instance, then random boundaries: some miss a
    position, hold a stray element, break naturality or assign the
    identity too."""
    sig = M.sig
    for K in sig.sorts:
        assert boundary_instances(M, K) == backtrack_boundary_instances(M, K)
        for delta in backtrack_boundary_instances(M, K):
            assert fiber(M, K, delta) == scan_fiber(M, K, delta)
        for _ in range(4):
            delta = {}
            for q in sig.out(K):
                if rnd.randrange(10):
                    delta[q] = rnd.choice(M.carrier(q.cod) + ("stray",))
            if rnd.randrange(10) == 0:
                delta[sig.hom(K, K)[0]] = "stray"
            try:
                want = scan_fiber(M, K, delta)
            except InvalidBoundary as exc:
                with pytest.raises(InvalidBoundary) as got:
                    fiber(M, K, delta)
                assert str(got.value) == str(exc)
            else:
                # twice: a lookup adds nothing to the index
                assert fiber(M, K, delta) == want
                assert fiber(M, K, delta) == want


@SETTINGS
@given(lcat_structures(), st.randoms(use_true_random=False))
def test_fiber_index_matches_carrier_scan(M, rnd):
    check_fibers(M, rnd)


def test_fiber_index_matches_carrier_scan_on_corpus():
    rnd = random.Random(0)
    for M in corpus().values():
        for _ in range(5):
            check_fibers(M, rnd)


def check_index_keys(M):
    """The index holds the fibers of the full-boundary grouping, in its
    order, each under the ``boundary_key`` of its boundary."""
    sig = M.sig
    for K in sig.sorts:
        full = full_boundary_fibers(M, K)
        assert list(M.fibers(K).values()) == list(full.values()), K
        for key, F in full.items():
            delta = dict(zip(sig.out(K), key))
            assert M.fibers(K)[boundary_key(sig, K, delta)] == F, K


def check_composite_faults(M):
    """Each element's boundary with one position that is not a generator
    position changed to another element of its sort: ``fiber`` raises
    what the carrier scan raises, although the generator positions still
    hold a key of the index.  Returns the number of boundaries tried."""
    sig = M.sig
    tried = 0
    for K in sig.sorts:
        gen_positions = {sig.cls((g.name,)) for g in sig.out_gens(K)}
        for e in M.carrier(K):
            delta = boundary_of(M, K, e)
            for q in sig.out(K):
                if q in gen_positions:
                    continue
                for other in M.carrier(q.cod):
                    if other == delta[q]:
                        continue
                    bad = {**delta, q: other}
                    with pytest.raises(InvalidBoundary) as want:
                        scan_fiber(M, K, bad)
                    with pytest.raises(InvalidBoundary) as got:
                        fiber(M, K, bad)
                    assert str(got.value) == str(want.value), (K, e, q)
                    tried += 1
    return tried


@SETTINGS
@given(lcat_structures())
def test_fiber_index_keys_and_composite_faults_on_lcat(M):
    check_index_keys(M)
    check_composite_faults(M)


def test_fiber_index_keys_and_composite_faults_on_corpus():
    tried = 0
    for M in corpus().values():
        check_index_keys(M)
        tried += check_composite_faults(M)
    assert tried > 100


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(dag_signatures(), st.data())
def test_fiber_index_keys_on_dag_signatures(raw, data):
    order, sig = _codomains_first(raw)
    try:
        M = validate_structure(sig, dict(zip(
            ("carriers", "maps"), draw_structure(sig, order, data))))
    except FunctorialityError:
        return
    check_index_keys(M)


# -- Ind over name-free pair contexts ---------------------------------------

@SETTINGS
@given(lcat_structures())
def test_name_free_card_iso_matches_named(M):
    for K in M.sig.sorts:
        for a, b in pairs_in_fibers(M, K):
            assert card_iso_elems(M, K, a, b) == named_card_iso(M, K, a, b)


def test_name_free_card_iso_and_violations_on_corpus():
    for name, M in corpus().items():
        for K in M.sig.sorts:
            for a, b in pairs_in_fibers(M, K):
                assert card_iso_elems(M, K, a, b) \
                    == named_card_iso(M, K, a, b), (name, K, a, b)
        fresh = corpus()[name]
        for K in M.sig.sorts:
            assert check_saturation(fresh, K) \
                == violations(fresh, K, named_card_iso), (name, K)


def check_violations(M):
    """Every pair of every fiber of every sort: ``_violations``, with one
    ``Ind`` counter per fiber, lists the violations the element-named
    oracle finds, with the same cards."""
    def by_pair(vs):
        return {(frozenset(v["boundary"].items()), v["pair"]): v["card"]
                for v in vs}

    for K in M.sig.sorts:
        got = list(finsem._violations(M, K))
        want = violations(M, K, named_card_iso)
        assert len(got) == len(want) and by_pair(got) == by_pair(want), K


@settings(SETTINGS, max_examples=100)
@given(lcat_structures())
def test_fiber_counters_match_named_card_iso_on_lcat(M):
    check_violations(M)


def test_fiber_counters_match_named_card_iso_on_corpus_mutants():
    """Each corpus structure with the first or the last element of one
    sort duplicated: a fiber of two next to other fibers of the same
    sort, at every level, which a counter bound to the wrong boundary
    miscounts."""
    for M in corpus().values():
        for K in M.sig.sorts:
            for e in dict.fromkeys(M.carrier(K)[:1] + M.carrier(K)[-1:]):
                check_violations(duplicate(M, K, e))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(dag_signatures(), st.data())
def test_fiber_counters_match_named_card_iso_on_dag_signatures(raw, data):
    """Skips the signatures the level-2 rule's test skips, for the same
    reason."""
    order, sig = _codomains_first(raw)
    if any(n > 3 for K in sig.sorts
           for n in Counter(q.cod for q in sig.out(K)).values()):
        return
    try:
        M = validate_structure(sig, dict(zip(
            ("carriers", "maps"), draw_structure(sig, order, data))))
    except FunctorialityError:
        return
    check_violations(M)


@SETTINGS
@given(lcat_structures(), st.randoms(use_true_random=False))
def test_saturation_profile_invariant_under_relabelling(M, rnd):
    def shuffled(K, elems):
        elems = list(elems)
        rnd.shuffle(elems)
        return elems

    N = relabel(M, shuffled)
    assert saturation_profile(N) == saturation_profile(M)
    for K in M.sig.sorts:
        assert len(check_saturation(N, K)) == len(check_saturation(M, K))


@SETTINGS
@given(lcat_structures())
def test_saturation_profile_matches_eager_profile(M):
    assert saturation_profile(M) == eager_profile(M)


def test_saturation_profile_matches_eager_profile_on_corpus_and_mutants():
    checked = unsaturated = 0
    for M in corpus().values():
        for N in [M] + level1_mutants(M):
            profile = saturation_profile(N)
            assert profile == eager_profile(N)
            checked += 1
            unsaturated += not profile[1]
    assert checked > 100 and 0 < unsaturated < checked


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(dag_signatures(), st.data())
def test_level1_saturation_by_fiber_size_on_dag_signatures(raw, data):
    """On random DAG signatures and structures: a level-1 sort's ``Ind``
    is ``Top``, the profile's rule for a level-1 sort is the brute-force
    verdict, and the fiber index holds exactly the non-empty fibers over
    the boundary instances.  The rule is called per sort, not through
    ``saturation_profile``: the profile goes on to generate ``Ind`` for
    the sorts above level 1, which on some of these signatures (parallel
    arrows into one sort) takes far longer than the test should."""
    order, sig = _codomains_first(raw)
    try:
        M = validate_structure(sig, dict(zip(
            ("carriers", "maps"), draw_structure(sig, order, data))))
    except FunctorialityError:
        return
    level1 = [K for K in sig.sorts if sig.level(K) == 1]
    for K in level1:
        assert iso_formula(sig, K)[2] == Top()
        for a in M.carrier(K):
            for b in M.carrier(K):
                xv, yv, _ = pair_context(M, K, a, b)
                assert ind(sig, xv, yv) == Top(), (K, a, b)
        assert _saturated(M, K) \
            == (not violations(M, K, named_card_iso)), K
    for K in sig.sorts:
        over = [scan_fiber(M, K, d) for d in boundary_instances(M, K)]
        assert sorted(F for F in over if F) \
            == sorted(F for F in M.fibers(K).values() if F), K


def fresh_ind_tables(*sigs):
    """Empty the ``Ind`` tables of ``sigs`` and of the builtin signatures,
    which ``stdlib`` builds once and every corpus structure shares, so
    that each ``Ind`` read from now on is generated again."""
    for sig in sigs + tuple(map(builtin_signature, ("lrg", "lrg_eq", "lcat"))):
        sig.ind_table.clear()


def spy_on_ind(monkeypatch):
    """The sorts of the ``Ind`` formulas generated from now on."""
    generated = []
    real = isogen._ind

    def spy(sig, x, y):
        generated.append(x.sort)
        return real(sig, x, y)

    fresh_ind_tables()
    monkeypatch.setattr(isogen, "_ind", spy)
    return generated


def spy_on_card_iso(monkeypatch):
    """The ``(sort, a, b)`` of the pairs whose ``Ind`` is counted from
    now on inside ``finsem``: the calls of the counters that
    ``_ind_counter`` returns."""
    asked = []
    real = finsem._ind_counter

    def spy(M, K, da, db):
        card = real(M, K, da, db)

        def counted(a, b):
            asked.append((K, a, b))
            return card(a, b)
        return counted

    monkeypatch.setattr(finsem, "_ind_counter", spy)
    return asked


@pytest.mark.parametrize("name, K", [("DoubledI", None), ("Chain3", "comp")])
def test_profile_generates_no_ind_above_a_failed_level(monkeypatch, name, K):
    """A level-1 violation settles every level, and level 1 is decided
    by fiber sizes: the profile generates no ``Ind`` at all, while
    ``check_saturation`` still lists every violation of every sort and
    generates ``Ind`` for the sorts above level 1 only."""
    M = corpus()[name]
    if K is not None:
        M = duplicate(M, K, M.carrier(K)[0])
    generated = spy_on_ind(monkeypatch)
    assert saturation_profile(M) == {1: False, 2: False, 3: False,
                                     "total": False}
    assert generated == []
    got = {sort: check_saturation(M, sort) for sort in M.sig.sorts}
    assert {M.sig.level(s) for s in generated} == {2, 3}
    for sort in M.sig.sorts:
        assert got[sort] == violations(M, sort, named_card_iso)


def check_level2_rule(M):
    """On a structure saturated at level 1, for each level-2 sort: card
    Ind(a, a) is 1 on the general path, and the profile's level-2 rule
    is the brute-force verdict.  Returns the number of sorts checked."""
    sig = M.sig
    if not all(_saturated(M, K) for K in sig.sorts if sig.level(K) == 1):
        return 0
    level2 = [K for K in sig.sorts if sig.level(K) == 2]
    for K in level2:
        for a in M.carrier(K):
            assert card_iso_elems(M, K, a, a) == 1, (K, a)
        assert _saturated(M, K) \
            == (not violations(M, K, named_card_iso)), K
    return len(level2)


@SETTINGS
@given(lcat_structures())
def test_level2_rule_matches_brute_force_on_lcat(M):
    check_level2_rule(M)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(dag_signatures(), st.data())
def test_level2_rule_matches_brute_force_on_dag_signatures(raw, data):
    """Signatures where one sort has more than three positions of one
    sort are skipped: ``Ind`` grows steeply with that number (with
    three, four and five parallel arrows into a sort it has 57, 424 and
    3415 conjuncts, and ``iso_formula`` takes 0.01, 0.07 and 0.6-1.0 s
    on a 2-core x86-64 machine).  lcat has three, the ``A`` positions of
    ``comp``."""
    order, sig = _codomains_first(raw)
    if any(n > 3 for K in sig.sorts
           for n in Counter(q.cod for q in sig.out(K)).values()):
        return
    try:
        M = validate_structure(sig, dict(zip(
            ("carriers", "maps"), draw_structure(sig, order, data))))
    except FunctorialityError:
        return
    check_level2_rule(M)


def test_level2_rule_on_corpus_and_mutants():
    checked = 0
    for M in corpus().values():
        for N in [M] + level1_mutants(M):
            checked += check_level2_rule(N)
    assert checked > 10


@pytest.mark.parametrize("name", ["Chain3", "SquarePoset", "Arrow2"])
def test_profile_generates_no_ind_for_singleton_fibers(monkeypatch, name):
    """Every ``A`` fiber of a poset is a singleton: with level 1
    saturated, level 2 needs no ``Ind`` at all.  The first ``Ind`` the
    profile generates is the object's, at level 3, whose ``~=`` over
    ``A`` fibers go on to generate ``A``'s inside the evaluator."""
    M = corpus()[name]
    assert all(len(F) == 1 for F in M.fibers("A").values())
    generated = spy_on_ind(monkeypatch)
    asked = spy_on_card_iso(monkeypatch)
    assert saturation_profile(M)[2]
    assert generated[0] == "O"
    assert not [key for key in asked if key[0] == "A"]


def test_profile_checks_no_diagonal_pair_at_level2(monkeypatch):
    """Z_2's one ``A`` fiber has two elements: only its two distinct
    pairs are checked, never an element against itself."""
    M = corpus()["Z2Cat"]
    asked = spy_on_card_iso(monkeypatch)
    assert saturation_profile(M) == {1: True, 2: True, 3: False,
                                     "total": False}
    level2 = sorted(key for key in asked if key[0] == "A")
    assert level2 == [("A", "e", "s"), ("A", "s", "e")]


# -- the evaluator ------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(st.integers(0, 5).flatmap(lambda n: st.lists(
    st.lists(st.integers(0, 3), min_size=n, max_size=n),
    min_size=n, max_size=n)))
def test_permanent_matches_bijection_sum(rows):
    assert _permanent(rows) == brute_permanent(rows)


@st.composite
def typed_matrices(draw):
    """An n x n matrix, n <= 7, whose entry (i, j) is read from a small
    table by the type of row i and of column j, so rows and columns
    repeat, then with a few entries perturbed and a block zeroed."""
    n = draw(st.integers(0, 7))
    k = draw(st.integers(1, 3))
    table = draw(st.lists(st.lists(st.integers(0, 3), min_size=k,
                                   max_size=k), min_size=k, max_size=k))
    row_type = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    col_type = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    rows = [[table[r][c] for c in col_type] for r in row_type]
    if n:
        for _ in range(draw(st.integers(0, 2))):
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            rows[i][j] = draw(st.integers(0, 5))
        r0, r1 = sorted(draw(st.lists(st.integers(0, n), min_size=2,
                                      max_size=2)))
        c0, c1 = sorted(draw(st.lists(st.integers(0, n), min_size=2,
                                      max_size=2)))
        for i in range(r0, r1):
            rows[i][c0:c1] = [0] * (c1 - c0)
    return rows


@settings(max_examples=300, deadline=None)
@given(typed_matrices())
def test_column_type_permanent_matches_subset_and_bijection_sums(rows):
    assert _permanent(rows) == subset_permanent(rows) \
        == brute_permanent(rows)


def test_column_type_permanent_on_an_all_equal_matrix():
    """2**20 column subsets, but one column type: 21 states."""
    assert _permanent([[3] * 20] * 20) == factorial(20) * 3 ** 20
    assert _permanent([]) == 1


# every connective, counts above one under a truncated existential, ~=
# between fibers of different sizes, the guarded forall chains of the
# output manifest, whose antecedents the evaluator tests as early as their
# variables allow (see finsem._guarded_chain), and a subformula that
# mentions no enclosing binder, counted again for each of their values
FORMULAS = (
    "exists x:O. sum f:A(x,x). eqA(f,f)",
    "sum x:O. exists f:A(x,x). I(f)",
    "sum x:O. sum y:O. (A(x,y) <-> A(y,x)) | false",
    "forall x:O. forall y:O. A(x,y) ~= A(y,x)",
    "sum x:O. sum f:A(x,x). (I(f) -> (sum g:A(x,x). comp(f,g,f)))",
    "forall x:O. A(x,x) ~= A(x,x) & true",
    *GUARDED_FORMULAS,
    "sum x:O. sum y:O. (sum u:O. sum v:O. A(u,v)) & A(x,y)",
)

# ~= on the level-1 sorts, whose Ind is Top: fibers of equal size, which
# a duplicated witness makes 2 or more, and of unequal or zero size
LEVEL1_EQUIV = (
    "sum x:O. sum f:A(x,x). I(f) ~= I(f)",
    "sum x:O. sum f:A(x,x). sum g:A(x,x). I(f) ~= I(g)",
    "sum x:O. sum f:A(x,x). sum g:A(x,x). eqA(f,g) ~= eqA(g,f)",
    "sum x:O. sum y:O. sum f:A(x,y). sum g:A(x,y). eqA(f,f) ~= eqA(f,g)",
    "sum x:O. sum f:A(x,x). sum g:A(x,x). sum h:A(x,x). "
    "comp(f,g,h) ~= comp(g,f,h)",
)
FORMULAS += LEVEL1_EQUIV


def shadowing_formula(sig):
    """sum x:O. (sum x:O. true) & (sum y:O. A(x,y)), with one variable
    bound twice: the inner x must not leak into the count over y."""
    x, y = Variable("x", "O"), Variable("y", "O")
    f = Variable("f", "A", (("d", x), ("c", y)))
    return Exists(x, And((Exists(x, Top(), untruncated=True),
                          Exists(y, Atom(f), untruncated=True))),
                  untruncated=True)


@settings(SETTINGS, max_examples=15)
@given(lcat_structures(size=2))
def test_evaluator_matches_direct_recursion(M):
    for name, phi in tcat_axioms():
        assert eval_card(M, phi) == naive_card(M, phi), name
    for text in FORMULAS:
        phi = parse_formula(text, M.sig)
        assert eval_card(M, phi) == naive_card(M, phi), text
    phi = shadowing_formula(M.sig)
    assert eval_card(M, phi) == naive_card(M, phi)
    for K in M.sig.sorts:
        for a, b in pairs_in_fibers(M, K):
            assert card_iso_elems(M, K, a, b) \
                == named_card_iso(M, K, a, b, naive_card), (K, a, b)


def check_against_oracle(M, phi):
    """``eval_card`` against ``naive_card``.  A nested ``->`` or ``<->``
    can ask for a power tower such as 64 ** (64 ** 64); a formula whose
    count passes the bit bound in either is not compared."""
    try:
        got, want = eval_card(M, phi), naive_card(M, phi)
    except FoldsError as exc:
        assert f"exceeds {finsem._MAX_BITS} bits" in str(exc)
        reject()
    assert got == want, pformat(phi)


@settings(SETTINGS, max_examples=200)
@given(lcat_structures(size=2), st.data())
def test_evaluator_matches_direct_recursion_on_random_formulas(M, data):
    check_against_oracle(M, data.draw(formulas(M.sig, depth=4)))


@st.composite
def guarded_chains(draw, sig):
    """``sum`` over 0-2 objects, then a chain of 1-6 ``forall`` binders
    over dependent sorts, some of which rebind a name in scope, ending in
    a small formula.  Each antecedent conjunct is built over the scope of
    some level of the chain (none of its binders, at level 0) and written
    at that level or deeper: an atom or ``~=``, or an untruncated ``sum``
    whose count can exceed one.  The fibers of ``A(x,y)`` and of the
    sorts above it may be empty, so guards are moved past empty binders.
    In a drawn share of chains, a binder rebinds on purpose a variable
    on which the sort of another in scope depends, so that a guard or
    the final formula written past it can read a rebound dependency.
    """
    base = next(K for K in sig.sorts if not sig.out_gens(K))
    env, outer = {}, []
    for name in draw(st.lists(st.sampled_from(NAMES[:2]), max_size=2,
                              unique=True)):
        env[name] = mk_var(sig, name, base)
        outer.append(env[name])
    scopes, binders = [env], []
    rebind = draw(st.booleans())
    for _ in range(draw(st.integers(1, 6))):
        depended = [n for n in NAMES
                    if any(env.get(n) in w.dep() for w in env.values()
                           if w is not env.get(n))]
        if rebind and depended:
            name = draw(st.sampled_from(depended))
            v = env[name]
        else:
            name = draw(st.sampled_from(
                [n for n in NAMES if n not in depended]))
            v = (_application(draw, sig, env, name)
                 or mk_var(sig, name, base))
        env = {**env, name: v}
        binders.append(v)
        scopes.append(env)

    def guard(scope):
        if draw(st.booleans()):
            return draw(formulas(sig, scope, depth=0))
        w = _application(draw, sig, scope, "k") or mk_var(sig, "k", base)
        return Exists(w, draw(formulas(sig, {**scope, "k": w}, depth=0)),
                      untruncated=True)

    written = [[] for _ in scopes]
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(binders)))
        written[draw(st.integers(at, len(binders)))].append(
            guard(scopes[at]))
    phi = draw(formulas(sig, env, depth=1))
    for at in range(len(binders), -1, -1):
        # one antecedent per level, or one implication per conjunct
        if draw(st.booleans()):
            written[at] = [conj(written[at])] if written[at] else []
        for g in reversed(written[at]):
            phi = Implies(g, phi)
        if at:
            phi = Forall(binders[at - 1], phi)
    for v in reversed(outer):
        phi = Exists(v, phi, untruncated=True)
    return phi


def rebinds_a_dependency(f) -> bool:
    """Whether a binder of f rebinds a variable on which the sort of one
    free in its body depends, by recursion, free variables recomputed."""
    if isinstance(f, (Forall, Exists)):
        return any(f.var in fresh_dep(w) - {w}
                   for w in fresh_free_vars(f.body)) \
            or rebinds_a_dependency(f.body)
    if isinstance(f, (And, Or)):
        return any(rebinds_a_dependency(a) for a in f.args)
    if isinstance(f, (Implies, Iff)):
        return rebinds_a_dependency(f.lhs) or rebinds_a_dependency(f.rhs)
    return False


@settings(SETTINGS, max_examples=100)
@given(lcat_structures(size=2), st.data())
def test_guarded_chain_counts_match_direct_recursion(M, data):
    """A chain that rebinds a variable on which the sort of one free past
    the binder depends has no consistent boundaries: ``eval_card`` raises
    on it, whatever the fibers, and counts every other chain as the
    oracle does."""
    phi = data.draw(guarded_chains(M.sig))
    if rebinds_a_dependency(phi):
        with pytest.raises(InvalidBoundary):
            eval_card(M, phi)
    else:
        check_against_oracle(M, phi)


@SETTINGS
@given(lcat_structures(), st.randoms(use_true_random=False))
def test_eval_card_invariant_under_relabelling(M, rnd):
    """Closed formulas, and Ind over every pair of every fiber, count the
    same witnesses after the elements are renamed and reordered."""
    orders = {K: rnd.sample(M.carrier(K), len(M.carrier(K)))
              for K in M.sig.sorts}
    N = relabel(M, lambda K, elems: orders[K])
    ren = {K: {e: f"{K}#{i}" for i, e in enumerate(orders[K])}
           for K in M.sig.sorts}
    for name, phi in tcat_axioms():
        assert eval_card(N, phi) == eval_card(M, phi), name
    for text in FORMULAS:
        phi = parse_formula(text, M.sig)
        assert eval_card(N, phi) == eval_card(M, phi), text
    for K in M.sig.sorts:
        for a, b in pairs_in_fibers(M, K):
            assert card_iso_elems(N, K, ren[K][a], ren[K][b]) \
                == card_iso_elems(M, K, a, b), (K, a, b)


def test_satisfies_matches_direct_recursion_on_corpus_and_mutants():
    """The tcat report of every corpus structure, and of each one with
    the first or the last element of a level-1 sort dropped or
    duplicated, against the report from unguarded, unmemoized
    evaluation."""
    axioms = tcat_axioms()
    checked = failed = 0
    for M in corpus().values():
        for N in [M] + level1_mutants(M):
            want = [{"axiom": name, "ok": naive_card(N, phi) > 0}
                    for name, phi in axioms]
            ok, report = satisfies(N, axioms)
            assert report == want
            assert ok == all(r["ok"] for r in want)
            checked += 1
            failed += not ok
    assert checked > 100 and 0 < failed < checked


def test_level1_equiv_counts_every_bijection():
    """~= between level-1 fibers of three witnesses, where n! and n
    first differ past the empty fiber, against the bijection sum."""
    for name in ("Z2Cat", "DoubledI", "Chain3"):
        M = corpus()[name]
        for K in ("I", "eqA", "comp"):
            e = M.carrier(K)[0]
            N = duplicate(duplicate(M, K, e), K, f"{e}'")
            assert max(map(len, N.fibers(K).values())) >= 3
            for text in LEVEL1_EQUIV:
                phi = parse_formula(text, N.sig)
                assert eval_card(N, phi) == naive_card(N, phi), \
                    (name, K, text)


def test_tcat_on_z10_within_a_second():
    M = category_to_structure(cyclic(10))
    start = time.perf_counter()
    ok, _ = satisfies(M, tcat_axioms())
    assert ok and time.perf_counter() - start < 1.0


# -- cached term data ----------------------------------------------------------

def terms():
    """Every node and variable of the generated isomorphism formulas of
    the corpus signature, of the category axioms, and of quantifiers
    whose body does not mention the bound variable's boundary."""
    M = corpus()["Z2Cat"]
    roots = [phi for _, phi in tcat_axioms()]
    f = Variable("f", "A", (("d", Variable("x", "O")),
                            ("c", Variable("y", "O"))))
    roots += [Forall(f, Top()), Exists(f, Bottom(), untruncated=True),
              shadowing_formula(M.sig)]
    for K in M.sig.sorts:
        x, y, phi = iso_formula(M.sig, K)
        roots.append(phi)
    stack = list(roots)
    while stack:
        node = stack.pop()
        yield node
        for name in type(node)._fields:
            value = getattr(node, name)
            for v in (value if isinstance(value, tuple) else (value,)):
                if isinstance(v, tuple):
                    v = v[1]  # a (generator, variable) projection
                if isinstance(v, (Formula, Variable)):
                    stack.append(v)


def test_cached_term_data_matches_fresh_computation():
    seen = 0
    for t in terms():
        assert hash(t) == fresh_hash(t)
        if isinstance(t, Variable):
            assert t.dep() == fresh_dep(t)
            assert t.boundary() == fresh_dep(t) - {t}
        else:
            assert t.free_vars() == fresh_free_vars(t)
        seen += 1
    assert seen > 1000


def test_equal_terms_built_apart_share_hash():
    def build():
        o = Variable("o", "O")
        f = Variable("f", "A", (("d", o), ("c", o)))
        return Forall(o, Exists(f, And((Atom(Variable("e", "I",
                                                      (("i", f),))),
                                        Top()))))

    a, b = build(), build()
    assert a is not b and a == b and hash(a) == hash(b)
    assert a.free_vars() == b.free_vars() == frozenset()
    assert {a: 1}[b] == 1
