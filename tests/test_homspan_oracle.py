"""The colour-refined isomorphism search, the iterative hom search, the
fiberwise-surjectivity check and the span search against the versions
they replaced.

The forward-checked ``homspan._hom_search`` must yield exactly the maps
of ``unpruned_hom_search``, the search before it, which looks each
fiber up only at its element's own depth, plain and bijective; and
``colour_refinement``, which may stop at the first round whose colour
counts differ, must agree with ``stable_colours``, the refinement run to
its stable colours: the same partition whenever its counts agree, and
differing counts exactly when the stable ones differ.

The search oracle is the recursive backtracking over whole carriers that
``homspan._hom_search`` was before colour refinement, kept here.
``structure_iso`` must return exactly its first bijection, or ``None``
exactly when it finds none, and the non-bijective search must yield the
same maps in the same order.  Inputs are random small lcat structures
(preorders and cyclic groups, some with one element duplicated), the
corpus, Z_4 and Z_6, and random structures over random DAG signatures;
the span searches also take Z_1-Z_5, the indiscrete categories on 2 and
3 objects and the golden structures (``span_inputs``).

The fiberwise-surjectivity oracle looks both fibers up through the
validating ``finsem.fiber``, with the target boundary pushed forward
position by position, and keeps the least-preimage sections the check
once stored; only its verdict is compared.  The span oracle checks
every leg it returns, identities included, takes its apex bound per
sort, and builds the product apex to check its projections, which
``find_span`` decides from the factors alone.  Both must give the same
answers, and every leg ``find_span`` returns must be a hom the oracle
accepts.
"""

from collections import Counter
from itertools import count, islice, permutations, product
from math import factorial
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from foldsat import homspan
from foldsat.cli import parse_signature, parse_structure
from foldsat.errors import FunctorialityError, SortMismatch
from foldsat.finsem import (boundary_instances, fiber, saturation_profile,
                            validate_structure)
from foldsat.homspan import (Hom, Span, SpanResult, _hom_search,
                             _product_structure, _projections_fibsurj,
                             colour_refinement, fibsurj_homs, find_span,
                             identity_hom, is_fibsurj, structure_iso)
from foldsat.stdlib import (_poset_category, builtin_signature,
                            category_to_structure)
from paper_checks import corpus, is_hom
from test_finsem_oracle import cyclic, duplicate, relabel
from test_isogen_oracle import few_parallel_positions
from test_sigcore_oracle import (_codomains_first, dag_signatures,
                                 draw_structure)

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


# -- the oracle ------------------------------------------------------------

def oracle_hom_search(M, N, bijective=False):
    """All natural map families M -> N by recursive backtracking, each
    image tried over N's whole carrier in carrier order."""
    sig = M.sig
    sorts = sorted(sig.sorts, key=lambda K: (-sig.level(K),
                                             sig.sorts.index(K)))
    elems = [(K, e) for K in sorts for e in M.carrier(K)]

    def consistent(maps, K, e, v):
        for g in sig.out_gens(K):
            w = maps[g.cod].get(M.apply_gen(g.name, e))
            if w is not None and N.apply_gen(g.name, v) != w:
                return False
        return True

    def assign(i, maps):
        if i == len(elems):
            yield {K: dict(maps[K]) for K in sig.sorts}
            return
        K, e = elems[i]
        for v in N.carrier(K):
            if bijective and v in maps[K].values():
                continue
            if not consistent(maps, K, e, v):
                continue
            maps[K][e] = v
            yield from assign(i + 1, maps)
            del maps[K][e]

    if bijective and any(len(M.carrier(K)) != len(N.carrier(K))
                         for K in sig.sorts):
        return
    yield from assign(0, {K: {} for K in sig.sorts})


def oracle_iso(M, N):
    return next(oracle_hom_search(M, N, bijective=True), None)


def push_boundary(h, delta):
    return {q: h.maps[q.cod][e] for q, e in delta.items()}


def oracle_is_fibsurj(h: Hom):
    """Fiberwise surjectivity over every boundary instance of the
    domain, with deterministic least-preimage sections."""
    M, N = h.src, h.dst
    sections = {}
    for K in M.sig.sorts:
        for delta in boundary_instances(M, K):
            src_fiber = fiber(M, K, delta)
            dst_delta = push_boundary(h, delta)
            dst_fiber = fiber(N, K, dst_delta)
            images = {}
            for e in src_fiber:
                images.setdefault(h.maps[K][e], e)
            if any(b not in images for b in dst_fiber):
                return False, None
            key = (K, tuple(sorted((q.name, e)
                                   for q, e in delta.items())))
            sections[key] = {b: images[b] for b in dst_fiber}
    return True, sections


def oracle_span_through(P, M, N, lmaps, rmaps):
    left, right = Hom(P, M, lmaps), Hom(P, N, rmaps)
    if oracle_is_fibsurj(left)[0] and oracle_is_fibsurj(right)[0]:
        return Span(P, left, right)
    return None


def oracle_find_span(M, N, apex_bound=None, search=_hom_search):
    """A span of fiberwise surjections joining M and N, searched over a
    deterministic family of candidate apexes, with the legs out of M and
    N drawn from ``search``."""
    if M.sig is not N.sig:
        raise SortMismatch("structures are over different signatures")
    if (saturation_profile(M)["total"]
            and saturation_profile(N)["total"]):
        iso = structure_iso(M, N)
        if iso is None:
            return SpanResult("absent")
        span = oracle_span_through(M, M, N, identity_hom(M).maps, iso)
        return SpanResult("found", span)
    # apex M: identity left leg, checked once, and a searched
    # fiberwise-surjective right leg
    left = Hom(M, M, identity_hom(M).maps)
    if oracle_is_fibsurj(left)[0]:
        for maps in search(M, N):
            right = Hom(M, N, maps)
            if oracle_is_fibsurj(right)[0]:
                return SpanResult("found", Span(M, left, right))
    # apex N, symmetric
    right = Hom(N, N, identity_hom(N).maps)
    if oracle_is_fibsurj(right)[0]:
        for maps in search(N, M):
            left = Hom(N, M, maps)
            if oracle_is_fibsurj(left)[0]:
                return SpanResult("found", Span(N, left, right))
    # apex M x N with the projections, unless it exceeds a given bound
    if not apex_bound or all(
            len(M.carrier(K)) * len(N.carrier(K)) <= apex_bound.get(K, 0)
            for K in M.sig.sorts):
        P = _product_structure(M, N)
        lmaps = {K: {p: p[0] for p in P.carrier(K)} for K in P.sig.sorts}
        rmaps = {K: {p: p[1] for p in P.carrier(K)} for K in P.sig.sorts}
        span = oracle_span_through(P, M, N, lmaps, rmaps)
        if span is not None:
            return SpanResult("found", span)
    return SpanResult("bound_exceeded")


# -- inputs ----------------------------------------------------------------

@st.composite
def small_structures(draw, objects=None):
    """A preorder on up to four objects (exactly ``objects`` if given)
    or a cyclic group of order up to three, sometimes with one element
    duplicated."""
    if objects is None and draw(st.booleans()):
        C = cyclic(draw(st.integers(1, 3)))
    else:
        n = objects or draw(st.integers(1, 4))
        objs = [f"p{i}" for i in range(n)]
        pairs = [(a, b) for a in objs for b in objs if a != b]
        covers = draw(st.lists(st.sampled_from(pairs), unique=True,
                               max_size=3)) if pairs else []
        C = _poset_category("P", objs, covers)
    M = category_to_structure(C)
    if draw(st.booleans()):
        K = draw(st.sampled_from([K for K in M.sig.sorts if M.carrier(K)]))
        M = duplicate(M, K, draw(st.sampled_from(M.carrier(K))))
    return M


def indiscrete(n):
    """The category with exactly one arrow between any two of n
    objects."""
    objs = [f"o{i}" for i in range(n)]
    return _poset_category(f"I{n}", objs,
                           [(a, b) for a in objs for b in objs if a != b])


GOLDEN = Path(__file__).resolve().parent / "golden"


def span_inputs(golden=False):
    """The corpus, Z_1-Z_5 and the indiscrete categories on 2 and 3
    objects; with ``golden``, also every golden structure over lcat but
    Z12 and the two crowns, whose products with the others are large,
    and Arrow2Dup, which is rejected.  Fork, Parallel and Par6Split are
    over other signatures."""
    models = dict(corpus())
    if golden:
        lcat = builtin_signature("lcat")
        models.update((path.stem, parse_structure(path.read_text(), lcat))
                      for path in sorted(GOLDEN.glob("*.str"))
                      if path.stem not in ("Z12", "Crown6", "Crown33",
                                           "Arrow2Dup", "Fork", "Parallel",
                                           "Par6Split"))
    models.update((f"Z{n}", category_to_structure(cyclic(n)))
                  for n in range(1, 6))
    models.update((f"I{n}", category_to_structure(indiscrete(n)))
                  for n in (2, 3))
    return models


def shuffler(rnd):
    def order(K, elems):
        elems = list(elems)
        rnd.shuffle(elems)
        return elems
    return order


# -- structure_iso -----------------------------------------------------------

@SETTINGS
@given(small_structures(), st.randoms(use_true_random=False))
def test_iso_of_relabelled_copy_matches_oracle(M, rnd):
    N = relabel(M, shuffler(rnd))
    iso = structure_iso(M, N)
    assert iso is not None
    assert iso == oracle_iso(M, N)


@SETTINGS
@given(st.integers(1, 4).flatmap(
    lambda n: st.tuples(small_structures(n), small_structures(n))),
    st.randoms(use_true_random=False))
def test_iso_of_random_pair_matches_oracle(pair, rnd):
    M, N = pair[0], relabel(pair[1], shuffler(rnd))
    assert structure_iso(M, N) == oracle_iso(M, N)
    assert structure_iso(N, M) == oracle_iso(N, M)
    # renaming and reordering M too does not change whether one exists
    found = structure_iso(relabel(M, shuffler(rnd)), N) is not None
    assert found == (oracle_iso(M, N) is not None)


def test_iso_after_backtracking_matches_oracle():
    # two disjoint chains a < b and c < d: every bottom has one colour and
    # every top another, so under most object orders of the copy the
    # first choices pair a bottom with the wrong top, and the search
    # backtracks from the arrows into the objects
    M = category_to_structure(_poset_category(
        "P", ["a", "b", "c", "d"], [("a", "b"), ("c", "d")]))
    for objects in permutations(M.carrier("O")):
        def order(K, elems):
            return objects if K == "O" else elems
        N = relabel(M, order)
        iso = structure_iso(M, N)
        assert iso is not None
        assert iso == oracle_iso(M, N)


def test_iso_matches_oracle_on_corpus():
    models = corpus()
    for M, N in product(models.values(), repeat=2):
        assert structure_iso(M, N) == oracle_iso(M, N)


@SETTINGS
@given(small_structures(), st.randoms(use_true_random=False))
def test_colours_are_invariant_under_relabelling(M, rnd):
    N = relabel(M, shuffler(rnd))
    mcol, ncol = colour_refinement(M, N)
    iso = structure_iso(M, N)
    assert all(mcol[K, e] == ncol[K, iso[K][e]]
               for K in M.sig.sorts for e in M.carrier(K))


# -- the non-bijective search ------------------------------------------------

Z4, Z6 = (category_to_structure(cyclic(n)) for n in (4, 6))


@SETTINGS
@example(Z4, Z6)
@example(Z6, Z4)
@given(small_structures(), small_structures())
def test_hom_search_order_matches_oracle(M, N):
    want = list(islice(oracle_hom_search(M, N), 60))
    assert list(islice(_hom_search(M, N), 60)) == want


# -- forward checking and the early-exit colouring ---------------------------

def stable_colours(M, N):
    """The jointly refined stable colours, each round ranked over a
    sorted palette of every element's key, recomputed from the
    structures, with no early exit."""
    sig = M.sig
    structs = (M, N)
    colours = [{(K, e): i for i, K in enumerate(sig.sorts)
                for e in S.carrier(K)} for S in structs]
    preimages = [{x: [] for x in col} for col in colours]
    for S, pre in zip(structs, preimages):
        for g in sig.gens:
            for d in S.carrier(g.dom):
                pre[g.cod, S.apply_gen(g.name, d)].append((g.name,
                                                           (g.dom, d)))
    count = len({c for col in colours for c in col.values()})
    while True:
        keys = [{(K, e): (c,
                          tuple(col[g.cod, S.apply_gen(g.name, e)]
                                for g in sig.out_gens(K)),
                          tuple(sorted((name, col[y])
                                       for name, y in pre[K, e])))
                 for (K, e), c in col.items()}
                for S, col, pre in zip(structs, colours, preimages)]
        palette = sorted(set(keys[0].values()) | set(keys[1].values()))
        if len(palette) == count:
            return colours
        rank = {key: i for i, key in enumerate(palette)}
        colours = [{x: rank[key] for x, key in by_elem.items()}
                   for by_elem in keys]
        count = len(palette)


def unpruned_hom_search(M, N, bijective=False):
    """The iterative search with no forward check: an element's fiber is
    looked up at its own depth, and, when ``bijective``, filtered by the
    ``stable_colours``."""
    sig = M.sig
    sorts = sorted(sig.sorts, key=lambda K: (-sig.level(K),
                                             sig.sorts.index(K)))
    elems = [(K, e, tuple((g.cod, M.apply_gen(g.name, e))
                          for g in sig.out_gens(K)))
             for K in sorts for e in M.carrier(K)]
    if bijective:
        mcol, ncol = stable_colours(M, N)
        if Counter(mcol.values()) != Counter(ncol.values()):
            return
    maps = {K: {} for K in sig.sorts}

    def candidates(i):
        K, e, below = elems[i]
        over = N.fibers(K).get(tuple(maps[c][b] for c, b in below), ())
        if bijective:
            return (v for v in over
                    if v not in used[K] and ncol[K, v] == mcol[K, e])
        return iter(over)

    if not elems:
        yield maps
        return
    used = {K: set() for K in sig.sorts}
    end = object()
    stack = [candidates(0)]
    while stack:
        i = len(stack) - 1
        K, e, _ = elems[i]
        v = next(stack[-1], end)
        if v is end:
            stack.pop()
            if stack:
                K, e, _ = elems[i - 1]
                used[K].discard(maps[K].pop(e))
            continue
        maps[K][e] = v
        if bijective:
            used[K].add(v)
        if i + 1 < len(elems):
            stack.append(candidates(i + 1))
            continue
        yield {K: dict(maps[K]) for K in sig.sorts}
        del maps[K][e]
        used[K].discard(v)


def vee(up):
    """V (two objects below a third) or Λ (two above it): not
    isomorphic, told apart by the first round of colours."""
    covers = [("a", "c"), ("b", "c")] if up else [("c", "a"), ("c", "b")]
    return category_to_structure(_poset_category("V" if up else "L",
                                                 ["a", "b", "c"], covers))


V, LAMBDA = vee(True), vee(False)
LCAT = builtin_signature("lcat")
# the crown posets of one 12-cycle and of two 6-cycles: no isomorphism,
# and every round gives both the same colour counts
CROWN6, CROWN33 = (parse_structure((GOLDEN / f"{name}.str").read_text(),
                                   LCAT) for name in ("Crown6", "Crown33"))


def assert_colours_match_stable(M, N):
    """``colour_refinement`` either runs to the stable colours, or stops
    early, at colours the stable ones refine, and only when the stable
    colour counts of M and N differ."""
    got, want = colour_refinement(M, N), stable_colours(M, N)
    assert [list(c) for c in got] == [list(c) for c in want]
    new = [c for col in got for c in col.values()]
    stable = [c for col in want for c in col.values()]
    # every round's colours are coarser than the stable ones
    assert len(set(zip(new, stable))) == len(set(stable))
    counts = [Counter(col.values()) for col in got]
    if counts[0] == counts[1]:
        assert len(set(new)) == len(set(stable))
    stable_counts = [Counter(col.values()) for col in want]
    assert (counts[0] == counts[1]) == (stable_counts[0] == stable_counts[1])


same_sized_pairs = st.integers(1, 4).flatmap(
    lambda n: st.tuples(small_structures(n), small_structures(n)))
copies = st.tuples(small_structures(), st.randoms(
    use_true_random=False)).map(lambda p: (p[0], relabel(p[0],
                                                          shuffler(p[1]))))


@SETTINGS
@example((V, LAMBDA))
@example((LAMBDA, V))
@example((CROWN6, CROWN33))
@given(st.one_of(st.tuples(small_structures(), small_structures()),
                 same_sized_pairs, copies))
def test_colours_match_stable_colours(pair):
    assert_colours_match_stable(*pair)


@SETTINGS
@example((V, LAMBDA))
@example((LAMBDA, V))
@example((V, V))
@example((Z4, Z6))
@given(st.one_of(st.tuples(small_structures(), small_structures()),
                 same_sized_pairs, copies))
def test_forward_checked_search_matches_unpruned_search(pair):
    M, N = pair
    for bijective in (False, True):
        want = list(islice(unpruned_hom_search(M, N, bijective), 60))
        assert list(islice(_hom_search(M, N, bijective), 60)) == want


def test_crowns_are_not_isomorphic():
    assert structure_iso(CROWN6, CROWN33) is None
    assert structure_iso(CROWN33, CROWN6) is None
    assert structure_iso(CROWN6, CROWN6) == identity_hom(CROWN6).maps


MARKED = parse_signature(
    "signature marked { sort V; sort E { s: V, t: V }; sort P { e: E }; }")


def marked_cycles(name, cycles):
    """A complete digraph over ``sum(cycles)`` vertices whose edges to
    each vertex's successor on its cycle are marked by an element of P."""
    succ = {f"v{c}_{i}": f"v{c}_{(i + 1) % k}"
            for c, k in enumerate(cycles) for i in range(k)}
    edges = [f"e_{x}_{y}({x},{y})" for x in succ for y in succ if x != y]
    marks = [f"p_{x}(e_{x}_{y})" for x, y in succ.items()]
    return parse_structure(
        f"structure {name} over marked {{ V = {{ {', '.join(succ)} }}; "
        f"E = {{ {', '.join(edges)} }}; P = {{ {', '.join(marks)} }}; }}",
        MARKED)


def test_forward_check_cuts_by_colour():
    """Every edge's fiber is non-empty, and every vertex has one colour,
    so only the edges' colours (marked or not) can cut a map of the
    vertices before every vertex has an image: an 8-cycle against two
    4-cycles is rejected in far fewer fiber lookups than the 8! maps of
    the vertices that a search cutting only empty fibers completes."""
    M, N = marked_cycles("C8", (8,)), marked_cycles("C44", (4, 4))
    lookups = []
    fibers = N.fibers
    N.fibers = lambda K: lookups.append(K) or fibers(K)
    assert structure_iso(M, N) is None
    assert len(lookups) < factorial(8)
    assert structure_iso(M, marked_cycles("C8copy", (8,))) is not None


# -- random DAG signatures ---------------------------------------------------

def structures_over(sig, order, data, n):
    """``n`` random structures over ``sig``, or None when a drawn one
    breaks an equation."""
    out = []
    for _ in range(n):
        try:
            out.append(validate_structure(sig, dict(zip(
                ("carriers", "maps"), draw_structure(sig, order, data)))))
        except FunctorialityError:
            return None
    return out


# composite positions are rare among small random signatures
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(dag_signatures(), st.data(), st.randoms(use_true_random=False))
def test_searches_match_oracle_on_dag_signatures(raw, data, rnd):
    """Equations, composite positions and parallel arrows: a fiber key
    holds an element's images along every position, not only along the
    generators the oracle checks.  Signatures with more than three
    positions into one sort are skipped, as in the saturation oracles."""
    order, sig = _codomains_first(raw)
    if not few_parallel_positions(sig):
        return
    pair = structures_over(sig, order, data, 2)
    if pair is None:
        return
    M, N = pair
    for A, B in ((M, N), (N, M), (M, relabel(M, shuffler(rnd)))):
        want = list(islice(oracle_hom_search(A, B), 60))
        assert list(islice(_hom_search(A, B), 60)) == want
        assert structure_iso(A, B) == oracle_iso(A, B)
        assert list(islice(_hom_search(A, B, True), 60)) == list(
            islice(unpruned_hom_search(A, B, True), 60))
        assert_colours_match_stable(A, B)
        for maps in want:
            h = Hom(A, B, maps)
            assert is_fibsurj(h) == oracle_is_fibsurj(h)[0]
    for A in (M, N):
        assert is_fibsurj(identity_hom(A))
        assert oracle_is_fibsurj(identity_hom(A))[0]
    for A, B in ((M, N), (N, M)):
        assert _projections_fibsurj(A, B) == all(
            oracle_is_fibsurj(h)[0] for h in projections(A, B))


# -- fiberwise surjections and spans -----------------------------------------

def test_fibsurj_matches_oracle_on_identities():
    for M in [*corpus().values(), Z4, Z6]:
        h = identity_hom(M)
        assert is_fibsurj(h)
        assert oracle_is_fibsurj(h)[0]


def projections(M, N):
    P = _product_structure(M, N)
    return [Hom(P, S, {K: {p: p[i] for p in P.carrier(K)}
                       for K in P.sig.sorts})
            for i, S in enumerate((M, N))]


def test_fibsurj_matches_oracle_on_product_projections():
    """Each projection out of M x N, and the product rule of
    ``find_span``, which decides both from M and N alone."""
    for M, N in product(span_inputs(golden=True).values(), repeat=2):
        verdicts = [oracle_is_fibsurj(h)[0] for h in projections(M, N)]
        assert [is_fibsurj(h) for h in projections(M, N)] == verdicts
        assert _projections_fibsurj(M, N) == all(verdicts)


def test_fibsurj_homs_match_oracle_on_corpus():
    for M, N in product(corpus().values(), repeat=2):
        want = [maps for maps in oracle_hom_search(M, N)
                if oracle_is_fibsurj(Hom(M, N, maps))[0]]
        got = list(fibsurj_homs(M, N))
        assert all(h.src is M and h.dst is N for h in got)
        assert [h.maps for h in got] == want


def span_facts(res):
    """Status, apex and legs of a span search result."""
    span = res.span
    if span is None:
        return res.status, None
    apex = span.apex
    return (res.status, (apex.carriers, apex.maps),
            [(h.src is apex, h.dst, h.maps) for h in (span.left, span.right)])


def replayed(search):
    """``search`` run at most once per (M, N, bijective): each run is
    kept as it goes and replayed to every later caller."""
    runs = {}

    def replay(M, N, bijective=False):
        it, seen = runs.setdefault((id(M), id(N), bijective),
                                   (search(M, N, bijective), []))
        for i in count():
            if i == len(seen):
                maps = next(it, None)
                if maps is None:
                    return
                seen.append(maps)
            yield seen[i]
    return replay


def test_find_span_matches_oracle_on_corpus(monkeypatch):
    """Every leg ``find_span`` returns is checked here, since it checks
    none of the identity, isomorphism and projection legs itself.
    ``find_span`` and the oracle replay one run of each hom search for
    all four bounds: the search from SquarePoset into Z_5 lists 125
    homs."""
    search = replayed(_hom_search)
    monkeypatch.setattr(homspan, "_hom_search", search)
    models = span_inputs()
    for M, N in product(models.values(), repeat=2):
        for bound in (None, 1, 3, 8):
            got = find_span(M, N, max_apex=bound)
            want = oracle_find_span(
                M, N, None if bound is None
                else {K: bound for K in M.sig.sorts}, search)
            assert span_facts(got) == span_facts(want)
            if got.span is None:
                continue
            for h in (got.span.left, got.span.right):
                assert is_hom(h.src, h.dst, h.maps)
                assert oracle_is_fibsurj(h)[0]
            if got.span.apex in (M, N):
                assert got.span.apex is want.span.apex
