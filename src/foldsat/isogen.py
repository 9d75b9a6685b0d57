"""Generation of the indistinguishability and equivalence formulas.

For variables x, y of a sort K the formula Ind(x, y) says that no sort
above K can tell x from y in any position, up to the generated
equivalence of fibers; the two are produced by mutual induction on level.
Filler enumeration works over the hom-classes out of the distinguishing
sort: the two argument tuples agree on every position except the
distinguished one (and the positions it forces), and fresh fillers are
enumerated over all coincidence patterns and named in a fixed order.
Each coincidence pattern gives one filler pattern, so no two of them are
alpha-equal and nothing is deduplicated (a property test pins this).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

from .errors import BoundaryMismatch, FunctorialityError, SortMismatch
from .pretty import pformat
from .sigcore import Arrow, Signature
from .synkit import (And, Equiv, Exists, Forall, Formula, Implies, Top,
                     Variable, compatible_sorts, conj, mk_var,
                     universal_closure)


@dataclass(frozen=True)
class FillerPattern:
    """One way of plugging x and y into position p of a sort R."""

    alpha: Variable
    beta: Variable
    quantified: tuple  # fresh variables, outermost first


def _fillers(sig: Signature, R: str, p: Arrow, x: Variable,
             y: Variable) -> list:
    """All filler patterns for Ind_R at position p, one per coincidence
    pattern of the fillers; p must be a position of R over x's sort and R
    compatible with both x and y."""
    K = x.sort
    # classes out of R forced by the distinguished position
    derived = {}
    for g in sig.out(K):
        derived[sig.compose(p, g)] = g
    # out(R) order breaks ties in level: the sort is stable
    shared = [q for q in sig.out(R) if q != p and q not in derived]
    shared.sort(key=lambda q: -sig.level(q.cod))

    pool = _by_level_and_name(sig, x.dep() | y.dep())
    used_names = {v.name for v in pool}

    def a_val(q, val):
        if q == p:
            return x
        if q in derived:
            return x.proj_along(derived[q].path)
        return val[q]

    def b_val(q, val):
        if q == p:
            return y
        if q in derived:
            return y.proj_along(derived[q].path)
        return val[q]

    # a shared position over p, or over a position p forces, needs x and
    # y to agree there, whatever the other positions hold
    for q in shared:
        for gen in sig.out_gens(q.cod):
            t = sig.compose(q, sig.cls((gen.name,)))
            if (t == p or t in derived) and a_val(t, None) != b_val(t, None):
                return []

    results = []

    def assign(i, val, fresh):
        if i == len(shared):
            results.append((dict(val), tuple(fresh)))
            return
        q = shared[i]
        S = q.cod
        req = {}
        ok = True
        for gen in sig.out_gens(S):
            t = sig.compose(q, sig.cls((gen.name,)))
            av, bv = a_val(t, val), b_val(t, val)
            if av != bv:
                ok = False
                break
            req[gen.name] = av
        if not ok:
            return
        candidates = [v for v in pool + fresh if v.sort == S
                      and all(v.proj_map()[g] == w for g, w in req.items())]
        for v in candidates:
            val[q] = v
            assign(i + 1, val, fresh)
            del val[q]
        # one genuinely new filler with exactly the forced boundary
        name = _fresh_name(S, used_names | {v.name for v in fresh})
        try:
            newv = mk_var(sig, name, S, req)
        except FunctorialityError:
            return
        val[q] = newv
        assign(i + 1, val, fresh + [newv])
        del val[q]

    assign(0, {}, [])

    patterns = []
    gen_classes = {g.name: sig.cls((g.name,)) for g in sig.out_gens(R)}
    for val, fresh in results:
        a_fill = {g: a_val(c, val) for g, c in gen_classes.items()}
        b_fill = {g: b_val(c, val) for g, c in gen_classes.items()}
        aname = _fresh_name(R, used_names | {v.name for v in fresh})
        bname = _fresh_name(R, used_names | {v.name for v in fresh}
                            | {aname})
        alpha = mk_var(sig, aname, R, a_fill)
        beta = mk_var(sig, bname, R, b_fill)
        gamma = (alpha.boundary() | beta.boundary()) - (x.dep() | y.dep())
        order = sorted(gamma, key=lambda v: (-sig.level(v.sort), v.name))
        patterns.append(FillerPattern(alpha, beta, tuple(order)))
    return patterns


def _by_level_and_name(sig: Signature, vars_) -> list:
    """``vars_`` deepest sort first, then by name; ``repr`` orders
    variables that tie there."""
    def key(v):
        return -sig.level(v.sort), v.name

    out = sorted(vars_, key=key)
    if len(set(map(key, out))) < len(out):
        out.sort(key=lambda v: (key(v), repr(v)))
    return out


def _fresh_name(sort, used):
    base = sort[0].lower()
    i = 1
    while f"{base}{i}" in used:
        i += 1
    return f"{base}{i}"


def _pattern_formula(sig, pat: FillerPattern) -> Formula:
    body = Equiv(pat.alpha.sort, pat.alpha, pat.beta)
    return universal_closure(sig, body, pat.quantified)


def _ind_at(sig: Signature, R: str, p: Arrow, x: Variable,
            y: Variable) -> Formula:
    formulas = [_pattern_formula(sig, pat)
                for pat in _fillers(sig, R, p, x, y)]
    return conj(sorted(formulas, key=pformat))


# signature -> {(x, y): Ind(x, y)}; an entry lives as long as its signature
_IND_CACHE = weakref.WeakKeyDictionary()


def ind(sig: Signature, x: Variable, y: Variable) -> Formula:
    """The indistinguishability formula Ind(x, y); when the boundaries
    coincide this is the isomorphism formula x ~ y."""
    table = _IND_CACHE.setdefault(sig, {})
    if (x, y) not in table:
        table[(x, y)] = _ind(sig, x, y)
    return table[(x, y)]


def _ind(sig: Signature, x: Variable, y: Variable) -> Formula:
    if x.sort != y.sort:
        raise SortMismatch(f"{x!r} and {y!r} have different sorts")
    K = x.sort
    compatible_y = compatible_sorts(sig, y)
    both = [R for R in compatible_sorts(sig, x) if R in compatible_y]
    parts = []
    for R in both:
        for p in sig.hom(R, K):
            if p.is_identity:
                continue
            f = _ind_at(sig, R, p, x, y)
            if isinstance(f, Top):
                continue
            if isinstance(f, And):
                parts.extend(f.args)
            else:
                parts.append(f)
    return conj(parts)


def sort_equiv(sig: Signature, K: str, alpha: Variable,
               beta: Variable) -> Formula:
    """The three-conjunct equivalence K(a) ~= K(b): Ind is functional up
    to isomorphism, injective up to isomorphism, and surjective.  The
    existentials are marked untruncated."""
    if alpha.sort != K or beta.sort != K:
        raise BoundaryMismatch(f"boundaries are not for sort {K}")
    used = {v.name for v in alpha.dep() | beta.dep()}

    def bound(name, template):
        nm = name
        i = 1
        while nm in used:
            nm = f"{name}{i}"
            i += 1
        used.add(nm)
        return Variable(nm, K, template.proj)

    xv = bound("x", alpha)
    x2 = bound("x'", alpha)
    yv = bound("y", beta)
    y2 = bound("y'", beta)

    functional = Forall(xv, Exists(
        yv,
        And((ind(sig, xv, yv),
             Forall(y2, Implies(ind(sig, xv, y2), ind(sig, yv, y2))))),
        untruncated=True))
    injective = Forall(xv, Forall(x2, Forall(yv, Forall(y2, Implies(
        And((ind(sig, xv, yv), ind(sig, x2, y2), ind(sig, yv, y2))),
        ind(sig, xv, x2))))))
    surjective = Forall(yv, Exists(xv, ind(sig, xv, yv), untruncated=True))
    return And((functional, injective, surjective))


def generic_context(sig: Signature, K: str, names=("x", "y")):
    """A canonical pair of variables of sort K over one shared generic
    boundary (fresh boundary variables, identified only where the
    signature's equations force it)."""
    # out(K) order breaks ties in level: the sort is stable
    classes = sorted(sig.out(K), key=lambda a: -sig.level(a.cod))
    val = {}
    used = set(names)
    for q in classes:
        fillers = {}
        for gen in sig.out_gens(q.cod):
            fillers[gen.name] = val[sig.compose(q, sig.cls((gen.name,)))]
        name = _fresh_name(q.cod, used)
        used.add(name)
        val[q] = mk_var(sig, name, q.cod, fillers)
    top_fill = {g.name: val[sig.cls((g.name,))] for g in sig.out_gens(K)}
    x = mk_var(sig, names[0], K, top_fill)
    y = mk_var(sig, names[1], K, top_fill)
    return x, y


def iso_formula(sig: Signature, K: str):
    """Canonical context (x, y over a generic shared boundary) together
    with the generated isomorphism formula x ~ y."""
    x, y = generic_context(sig, K)
    return x, y, ind(sig, x, y)
