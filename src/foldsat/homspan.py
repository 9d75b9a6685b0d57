"""Homomorphisms, fiberwise surjections, spans and the structure
identity decision.

A homomorphism is a natural family of carrier maps.  The search for
one runs fiber by fiber: an element's images are the elements of the
target's fiber over the images of its generator images, read from the
target's fiber index (``FinStructure.fibers``), which the search never
writes.  Fiberwise surjectivity is a predicate, checked over every
boundary instance of the domain.  Two structures are equivalent when a
span of fiberwise surjections joins them; for totally saturated
structures of a height-3 signature this coincides with the existence of
a structure isomorphism, which is what the decision procedure computes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import HeightOutOfScope, NotSaturated, SortMismatch
from .finsem import (FinStructure, boundary_instances, boundary_key,
                     saturation_profile)


@dataclass(frozen=True)
class Hom:
    """A homomorphism of structures: per-sort total maps."""

    src: FinStructure
    dst: FinStructure
    maps: dict  # sort -> {element: element}


def identity_hom(M: FinStructure) -> Hom:
    return Hom(M, M, {K: {e: e for e in M.carrier(K)} for K in M.sig.sorts})


def is_fibsurj(h: Hom) -> bool:
    """Whether h maps each fiber of its domain onto the target's fiber
    over the image boundary.  ``h`` must be a homomorphism: it sends
    natural boundaries to natural ones, so both fibers are read from the
    fiber indexes by key, and a map family that is not natural is not
    rejected."""
    M, N = h.src, h.dst
    sig = M.sig
    for K in sig.sorts:
        gens, hK = sig.out_gens(K), h.maps[K]
        for delta in boundary_instances(M, K):
            over = boundary_key(sig, K, delta)
            images = {hK[e] for e in M.fibers(K).get(over, ())}
            dst_fiber = N.fibers(K).get(
                tuple(h.maps[g.cod][e] for g, e in zip(gens, over)), ())
            if not images.issuperset(dst_fiber):
                return False
    return True


def colour_refinement(M: FinStructure, N: FinStructure):
    """Stable colours of the elements of M and N, refined jointly.

    An element starts with the index of its sort.  In each round its new
    colour ranks, over both structures, the triple of its old colour,
    the colours of its images along ``out_gens`` in declaration order
    and the sorted (generator, colour) pairs of the elements that map
    onto it.  Rounds stop when the number of colours stops growing (McKay
    & Piperno, "Practical graph isomorphism, II", 2014).  A colour
    depends on structure only, so an isomorphism preserves it.  Returns
    one map per structure: (sort, element) -> colour.
    """
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


def _hom_search(M: FinStructure, N: FinStructure, bijective=False):
    """All natural map families M -> N, deterministically: depth first
    over M's elements, sorts by decreasing level, so an element's
    generator images are mapped before the element.  Its images are
    tried from N's fiber over theirs, in carrier order: the elements
    that keep the family natural along every generator.

    ``bijective`` restricts to per-sort bijections and keeps from each
    fiber only the elements with the stable colour of the element
    mapped (``colour_refinement``).  An isomorphism preserves colours,
    so this cuts only branches that hold none, and the bijections come
    in the same order as without the colours.  The search keeps its own
    stack, so its depth is not bounded by the recursion limit.
    """
    if M.sig is not N.sig:
        raise SortMismatch("structures are over different signatures")
    sig = M.sig
    sorts = sorted(sig.sorts, key=lambda K: (-sig.level(K),
                                             sig.sorts.index(K)))
    # each element with its fiber's key, as (sort, element) per generator
    elems = [(K, e, tuple((g.cod, M.apply_gen(g.name, e))
                          for g in sig.out_gens(K)))
             for K in sorts for e in M.carrier(K)]
    if bijective:
        mcol, ncol = colour_refinement(M, N)
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
    used = {K: set() for K in sig.sorts}  # images taken, when bijective
    end = object()
    stack = [candidates(0)]  # untried images of elems[i] at depth i
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


def fibsurj_homs(M: FinStructure, N: FinStructure):
    """The fiberwise-surjective homs M -> N (``is_fibsurj``), in the
    order ``_hom_search`` yields them."""
    for maps in _hom_search(M, N):
        h = Hom(M, N, maps)
        if is_fibsurj(h):
            yield h


def structure_iso(M: FinStructure, N: FinStructure):
    """A natural family of per-sort bijections, or None after
    exhaustive search."""
    return next(_hom_search(M, N, bijective=True), None)


@dataclass(frozen=True)
class Span:
    """A FOLDS-equivalence witness: fiberwise surjections out of apex."""

    apex: FinStructure
    left: Hom
    right: Hom


@dataclass(frozen=True)
class SpanResult:
    status: str  # "found" | "absent" | "bound_exceeded"
    span: Span = None


def _product_structure(M: FinStructure, N: FinStructure) -> FinStructure:
    sig = M.sig
    carriers = {K: [(a, b) for a in M.carrier(K) for b in N.carrier(K)]
                for K in sig.sorts}
    maps = {g.name: {(a, b): (M.apply_gen(g.name, a),
                              N.apply_gen(g.name, b))
                     for (a, b) in carriers[g.dom]}
            for g in sig.gens}
    return FinStructure(sig, carriers, maps)


def _projections_fibsurj(M: FinStructure, N: FinStructure) -> bool:
    """Whether both projections out of M x N are fiberwise surjective,
    decided from the factors (see ``find_span``)."""
    return not any(A.carrier(K)
                   and len(boundary_instances(B, K)) > len(B.fibers(K))
                   for A, B in ((M, N), (N, M)) for K in M.sig.sorts)


def find_span(M: FinStructure, N: FinStructure, max_apex=None):
    """A span of fiberwise surjections joining M and N, searched over a
    deterministic family of candidate apexes: M with its identity, N
    with its identity, then the product M x N with its projections,
    unless some sort of the product would have more than ``max_apex``
    elements (an int, or None for no bound).

    The product is built only for the witness.  Its natural boundaries
    over a sort K are the pairs (dM, dN) of natural boundaries of M and
    N, and its fiber over one is M(dM) x N(dN).  So the projection onto
    M is fiberwise surjective iff no K has an element of M and a natural
    boundary of N with an empty fiber; the projection onto N is the
    mirror image.

    Absence is definitive only on the totally saturated fast path; when
    the bounded search is exhausted elsewhere, the result is reported as
    bound_exceeded rather than absent.
    """
    # Identity and isomorphism legs are not checked: an identity is
    # fiberwise surjective, and so is a natural bijection, because its
    # inverse is a hom.
    if (saturation_profile(M)["total"]
            and saturation_profile(N)["total"]):
        iso = structure_iso(M, N)
        if iso is None:
            return SpanResult("absent")
        return SpanResult("found", Span(M, identity_hom(M),
                                        Hom(M, N, iso)))
    for h in fibsurj_homs(M, N):
        return SpanResult("found", Span(M, identity_hom(M), h))
    for h in fibsurj_homs(N, M):
        return SpanResult("found", Span(N, h, identity_hom(N)))
    if ((max_apex is None or all(
            len(M.carrier(K)) * len(N.carrier(K)) <= max_apex
            for K in M.sig.sorts))
            and _projections_fibsurj(M, N)):
        P = _product_structure(M, N)
        legs = [Hom(P, S, {K: {p: p[i] for p in P.carrier(K)}
                           for K in P.sig.sorts})
                for i, S in enumerate((M, N))]
        return SpanResult("found", Span(P, *legs))
    return SpanResult("bound_exceeded")


def hsip_decide(M: FinStructure, N: FinStructure) -> bool:
    """For height-3 signatures and totally saturated structures:
    equivalence coincides with structure isomorphism."""
    if M.sig.height != 3:
        raise HeightOutOfScope(
            f"signature height {M.sig.height} is out of scope")
    if not saturation_profile(M)["total"]:
        raise NotSaturated("left structure is not totally saturated")
    if not saturation_profile(N)["total"]:
        raise NotSaturated("right structure is not totally saturated")
    return structure_iso(M, N) is not None
