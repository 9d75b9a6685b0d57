"""Generation of the indistinguishability and equivalence formulas.

For variables x, y of a sort K the formula Ind(x, y) says that no sort
above K can tell x from y in any position, up to the generated
equivalence of fibers; the two are produced by mutual induction on level.
Filler enumeration works over the hom-classes out of the distinguishing
sort: the two argument tuples agree on every position except the
distinguished one (and the positions it forces), and fresh fillers are
enumerated over all coincidence patterns and named in a fixed order.
Each coincidence pattern gives one conjunct, so no two of them are
alpha-equal and nothing is deduplicated (a property test pins this).
Both walks read the signature's fill order: the filler search and
``variables_over``, which builds the variables over given boundaries,
generic ones or those of elements.  ``_ind`` skips each position p of R
at which ``synkit.seat`` says x and y cannot sit, and the filler search
starts from what ``seat`` puts at p and at the positions p forces.

The conjuncts are generated one (R, p) group at a time, and only as far
as they are read: a count iterates ``ind_conjuncts`` until a conjunct is
0, fail-first (the sorts with fewest positions first), and ``ind`` reads
it to the end, in print order.  The signature's ``ind_table`` keeps them,
so every structure over one signature shares them.
"""

from __future__ import annotations

from itertools import tee

from .errors import BoundaryMismatch, FunctorialityError, SortMismatch
from .pretty import pformat
from .sigcore import Signature
from .synkit import (And, Equiv, Exists, Forall, Formula, Implies,
                     Variable, conj, deepest_first, mk_var, seat)


def _fillers(sig: Signature, R: str, side: dict, pool: list,
             used_names: set) -> list:
    """The conjuncts of Ind_R at a position p of R, one per coincidence
    pattern of the fillers: ``forall`` over its fresh fillers, deepest
    first, of ``R(α) ~= R(β)``.  ``side`` is what ``seat`` puts at p and
    at the positions p forces; the walk adds each shared position to it,
    filled with one variable on both sides.  ``pool`` is ``x.dep() |
    y.dep()`` deepest first, and ``used_names`` their names."""
    shared = [(q, below) for q, below in sig.filling(R) if q not in side]

    conjuncts = []

    # Every position below a shared one comes earlier in the fill order,
    # so each branch sets what it reads and nothing is unset on return.
    # A conjunct quantifies exactly the fresh fillers of its branch.
    def assign(i, fresh):
        taken = used_names | {v.name for v in fresh}
        if i == len(shared):
            fill = [(g.name, side[sig.cls((g.name,))])
                    for g in sig.out_gens(R)]
            aname = _fresh_name(R, taken)
            alpha = mk_var(sig, aname, R, {g: a for g, (a, _) in fill})
            beta = mk_var(sig, _fresh_name(R, taken | {aname}), R,
                          {g: b for g, (_, b) in fill})
            out = Equiv(R, alpha, beta)
            for v in reversed(deepest_first(sig, fresh)):
                out = Forall(v, out)
            conjuncts.append(out)
            return
        q, below = shared[i]
        S = q.cod
        # x and y agree at every position below q
        req = {g: side[t][0] for g, t in below}
        for v in [v for v in pool + fresh if v.sort == S
                  and all(v.proj_map()[g] == w for g, w in req.items())]:
            side[q] = (v, v)
            assign(i + 1, fresh)
        # one genuinely new filler with exactly the forced boundary
        try:
            newv = mk_var(sig, _fresh_name(S, taken), S, req)
        except FunctorialityError:
            return
        side[q] = (newv, newv)
        assign(i + 1, fresh + [newv])

    assign(0, [])
    return conjuncts


def _fresh_name(sort, used):
    base = sort[0].lower()
    i = 1
    while f"{base}{i}" in used:
        i += 1
    return f"{base}{i}"


class _Conjuncts:
    """The conjuncts of one ``Ind(x, y)``.  Iterating gives them in read
    order, and generates each (R, p) group when a reader first reaches
    it; ``formula`` puts every group back in print order."""

    def __init__(self, groups):
        self._by_index = {}  # print index -> group, once generated

        def walk():
            for i, group in groups:
                self._by_index[i] = group
                yield from group
        # a tee that no reader advances keeps them all; readers copy it
        self._start = tee(walk(), 1)[0]
        self._formula = None

    def __iter__(self):
        return self._start.__copy__()

    def formula(self) -> Formula:
        """Every group, in print order and sorted by ``pformat``."""
        if self._formula is None:
            list(self)  # generates every group
            self._formula = conj([c for _, group in sorted(
                self._by_index.items()) for c in sorted(group, key=pformat)])
        return self._formula


def ind_conjuncts(sig: Signature, x: Variable, y: Variable) -> _Conjuncts:
    """The conjuncts of Ind(x, y), generated as far as they are read and
    kept in ``sig.ind_table``."""
    seq = sig.ind_table.get((x, y))
    if seq is None:
        seq = sig.ind_table[(x, y)] = _Conjuncts(_ind(sig, x, y))
    return seq


def ind(sig: Signature, x: Variable, y: Variable) -> Formula:
    """The indistinguishability formula Ind(x, y), every conjunct
    generated; when the boundaries coincide this is the isomorphism
    formula x ~ y."""
    return ind_conjuncts(sig, x, y).formula()


def _ind(sig: Signature, x: Variable, y: Variable):
    """Ind(x, y)'s conjuncts as ``(print index, group)``, unsorted, one
    (R, p) group at a time: fail-first, the sorts R with fewest positions
    first, ties in print order.  No group comes for a position p where
    ``seat`` rules x and y out.  The groups hold the signature, and
    ``ind_conjuncts`` keeps them in its ``ind_table``: the two are freed
    together."""
    if x.sort != y.sort:
        raise SortMismatch(f"{x!r} and {y!r} have different sorts")
    positions = sorted(enumerate((R, p) for R in sig.sorts
                                 for p in sig.out(R) if p.cod == x.sort),
                       key=lambda ip: len(sig.out(ip[1][0])))

    def groups():
        pool = None
        for i, (R, p) in positions:
            if (side := seat(sig, p, x, y)) is None:
                continue
            if pool is None:
                pool = deepest_first(sig, x.dep() | y.dep())
                used_names = {v.name for v in pool}
            yield i, _fillers(sig, R, side, pool, used_names)
    return groups()


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


def variables_over(sig: Signature, K: str, boundaries, names):
    """Variables of sort K, the one named ``names[i]`` over
    ``boundaries[i]``, a map from the positions out of K to values, and
    the value of each boundary variable.

    The positions are filled in ``sig.filling(K)`` order, and one
    variable stands for a value at every position of its sort that holds
    it, in any of the boundaries.  Variables are named in the order the
    walk reaches them, not after their values, so boundaries that
    coincide in one pattern give the same variables."""
    var_of, value_of, used = {}, {}, set(names)
    tops = []
    for name, values in zip(names, boundaries):
        at = {}
        for q, below in sig.filling(K):
            key = (q.cod, values[q])
            v = var_of.get(key)
            if v is None:
                v = var_of[key] = mk_var(sig, _fresh_name(q.cod, used),
                                         q.cod, {g: at[t] for g, t in below})
                used.add(v.name)
                value_of[v] = values[q]
            at[q] = v
        tops.append(mk_var(sig, name, K, {g.name: at[sig.cls((g.name,))]
                                          for g in sig.out_gens(K)}))
    return tops, value_of


def generic_context(sig: Signature, K: str, names=("x", "y")):
    """A canonical pair of variables of sort K over one shared generic
    boundary (fresh boundary variables, identified only where the
    signature's equations force it)."""
    positions = {q: q for q in sig.out(K)}
    (x, y), _ = variables_over(sig, K, (positions, positions), names)
    return x, y


def iso_formula(sig: Signature, K: str):
    """Canonical context (x, y over a generic shared boundary) together
    with the generated isomorphism formula x ~ y."""
    x, y = generic_context(sig, K)
    return x, y, ind(sig, x, y)
