"""The colour-refined isomorphism search and the iterative hom search
against the search they replaced.

The oracle is the recursive backtracking over whole carriers that
``homspan._hom_search`` was before colour refinement, kept here.
``structure_iso`` must return exactly its first bijection, or ``None``
exactly when it finds none, and the non-bijective search must yield the
same maps in the same order.  Inputs are random small lcat structures
(preorders and cyclic groups, some with one element duplicated) and the
corpus.
"""

from itertools import islice, permutations, product

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from foldsat.homspan import _hom_search, colour_refinement, structure_iso
from foldsat.stdlib import _poset_category, category_to_structure, corpus
from test_finsem_oracle import cyclic, duplicate, relabel

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

@SETTINGS
@given(small_structures(), small_structures())
def test_hom_search_order_matches_oracle(M, N):
    want = list(islice(oracle_hom_search(M, N), 60))
    assert list(islice(_hom_search(M, N), 60)) == want
