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
generic ones or those of elements.  Neither checks its variables
against the equations: each position is a hom-class, filled from the
positions below it, so every variable meets them by construction.
``_ind`` skips each position p of R at which ``synkit.seat`` says x
and y cannot sit, and the filler search starts from what ``seat`` puts
at p and at the positions p forces.

The conjuncts are generated one (R, p) group at a time, and only as far
as they are read: a count iterates ``ind_groups`` until a conjunct is 0,
fail-first (the sorts with fewest positions first), and ``ind`` reads
them to the end and sorts them into print order.  The signature's
``ind_table`` keeps them, so every structure over one signature shares
them.
"""

from __future__ import annotations

from itertools import count, tee

from .errors import BoundaryMismatch, SortMismatch
from .pretty import pformat
from .sigcore import Signature
from .synkit import (And, Equiv, Exists, Forall, Formula, Implies,
                     Variable, conj, deepest_first, seat)


def _fillers(sig: Signature, R: str, side: dict, pool: dict,
             used_names: set) -> list:
    """The conjuncts of Ind_R at a position p of R, one per coincidence
    pattern of the fillers: ``forall`` over its fresh fillers, deepest
    first, of ``R(α) ~= R(β)``.  ``side`` is what ``seat`` puts at p and
    at the positions p forces; the walk adds each shared position to it,
    filled with one variable on both sides.  ``pool`` maps each sort to
    its variables in ``x.dep() | y.dep()``, deepest first, and
    ``used_names`` holds their names.  A variable at q is built from
    what sits at the positions below q, unchecked."""
    shared = [(q, q.cod, below) for q, below in sig.filling(R)
              if q not in side]
    gen_cls = [(g.name, sig.cls((g.name,))) for g in sig.out_gens(R)]

    conjuncts = []

    # Every position below a shared one comes earlier in the fill order,
    # so each branch sets what it reads and nothing is unset on return.
    # A conjunct quantifies exactly the fresh fillers of its branch.
    def assign(i, fresh, taken):
        if i == len(shared):
            aname = _fresh_name(R, taken)
            alpha = Variable(aname, R, tuple((g, side[c][0])
                                             for g, c in gen_cls))
            beta = Variable(_fresh_name(R, taken | {aname}), R,
                            tuple((g, side[c][1]) for g, c in gen_cls))
            out = Equiv(R, alpha, beta)
            for v in reversed(deepest_first(sig, fresh)):
                out = Forall(v, out)
            conjuncts.append(out)
            return
        q, S, below = shared[i]
        # x and y agree at every position below q
        proj = tuple((g, side[t][0]) for g, t in below)
        for v in pool.get(S, []) + [v for v in fresh if v.sort == S]:
            if v.proj == proj:
                side[q] = (v, v)
                assign(i + 1, fresh, taken)
        # one genuinely new filler with exactly the forced boundary
        newv = Variable(_fresh_name(S, taken), S, proj)
        side[q] = (newv, newv)
        assign(i + 1, fresh + [newv], taken | {newv.name})

    assign(0, [], used_names)
    return conjuncts


def _fresh_name(sort, used):
    base = sort[0].lower()
    return next(n for i in count(1) if (n := f"{base}{i}") not in used)


def ind_groups(sig: Signature, x: Variable, y: Variable):
    """An iterator over Ind(x, y)'s ``(print index, group)`` pairs in
    ``_ind``'s order, each group generated when a reader first reaches
    it.  ``sig.ind_table`` keeps a tee of ``_ind`` that no reader
    advances, and each call returns a copy of it."""
    groups = sig.ind_table.get((x, y))
    if groups is None:
        groups = sig.ind_table[(x, y)] = tee(_ind(sig, x, y), 1)[0]
    return groups.__copy__()


def ind(sig: Signature, x: Variable, y: Variable) -> Formula:
    """The indistinguishability formula Ind(x, y), every group in print
    order and sorted by ``pformat``; when the boundaries coincide this
    is the isomorphism formula x ~ y."""
    # print indices are distinct, so no two groups are compared
    return conj([c for _, group in sorted(ind_groups(sig, x, y))
                 for c in sorted(group, key=pformat)])


def _ind(sig: Signature, x: Variable, y: Variable):
    """Ind(x, y)'s conjuncts as ``(print index, group)``, unsorted, one
    (R, p) group at a time: fail-first, the sorts R with fewest positions
    first, ties in print order.  No group comes for a position p where
    ``seat`` rules x and y out.  The groups hold the signature, and
    ``ind_groups`` keeps them in its ``ind_table``: the two are freed
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
                pool, used_names = {}, {v.name for v in x.dep() | y.dep()}
                for v in deepest_first(sig, x.dep() | y.dep()):
                    pool.setdefault(v.sort, []).append(v)
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
    coincide in one pattern give the same variables.  The boundaries
    must be natural, as generic ones and those of elements are, since
    the variables go unchecked."""
    var_of, value_of, used = {}, {}, set(names)
    gen_cls = [(g.name, sig.cls((g.name,))) for g in sig.out_gens(K)]
    tops = []
    for name, values in zip(names, boundaries):
        at = {}
        for q, below in sig.filling(K):
            key = (q.cod, values[q])
            v = var_of.get(key)
            if v is None:
                v = var_of[key] = Variable(
                    _fresh_name(q.cod, used), q.cod,
                    tuple((g, at[t]) for g, t in below))
                used.add(v.name)
                value_of[v] = values[q]
            at[q] = v
        tops.append(Variable(name, K, tuple((g, at[c]) for g, c in gen_cls)))
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
