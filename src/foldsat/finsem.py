"""Finite structures and witness-count evaluation.

A finite structure assigns a finite carrier to every sort and a total
map to every generating arrow, functorially.  Formulas are evaluated to
exact witness counts: conjunction and universal quantification multiply,
untruncated existentials sum over the fiber, implication counts the
function space, and truncated connectives clamp to one; a power or a
partial product past ``_MAX_BITS`` bits is an error.  A ``forall``
chain tests each ``->`` antecedent after the last binder it mentions
(``_guarded_chain``).
The generated equivalence nodes are evaluated as sums over fiber
bijections whose graph is pointwise indistinguishable; this is the
finite-set form of the equivalence data and is cross-checked against the
expanded three-part formula wherever the saturation precondition makes
the two agree.
Every fiber is read from ``FinStructure.fibers``, which indexes each
sort's elements by their generator images once and is only read after
that; a natural boundary the index lacks has an empty fiber.
Nothing lies above a level-1 sort, so its ``Ind`` is ``Top``: its
``~=`` counts every bijection, and it is saturated when each of its
fibers has at most one element.  Saturation is decided level by level
from the bottom: the first violation settles its level and every level
above it.  The decision asks only whether card(x ~ y) = [x = y], so
nothing is counted exactly: level 2 is read off the level-1 fibers, and
above it a pair stops at the first conjunct of its ``Ind`` that settles
it (see ``_saturated``).  ``check_saturation`` and ``~=`` count exactly,
multiplying the conjuncts with ``_product``, as for an ``And``; the
permanent of ``~=`` runs over column types (``_permanent``).  Each fiber,
or pair of boundaries, draws its ``Ind`` conjuncts once (``_ind_over``),
each from ``isogen.ind_groups`` and compiled only when a reader first
reaches it (``_Evaluator._ind_factors``), fail-first.
A conjunct is compiled once per structure, as any formula is; the
product that reads it is not kept.
"""

from __future__ import annotations

from itertools import tee
from math import factorial
from operator import itemgetter
from types import MappingProxyType

from .errors import (FoldsError, FunctorialityError, InvalidBoundary,
                     NonTotalMap, NotSaturatedPrecondition, OpenFormula,
                     SortMismatch, StructureError, UnboundVariable,
                     UnknownName, UnknownSort)
from .isogen import ind_groups, variables_over
from .sigcore import Signature
from .synkit import (And, Atom, Bottom, Equiv, Exists, Forall, Formula, Iff,
                     Implies, Or, Top, Variable)


class FinStructure:
    """Finite functorial interpretation of a signature.

    Read-only: ``carriers`` maps each sort to a tuple, ``elements`` to
    the frozenset of the same elements, which answers every membership
    test, and ``maps`` each generator to a read-only mapping, so the
    caches below cannot go stale.
    """

    def __init__(self, sig: Signature, carriers, maps):
        self.sig = sig
        self.carriers = MappingProxyType(
            {s: tuple(carriers.get(s, ())) for s in sig.sorts})
        self.elements = MappingProxyType(
            {s: frozenset(c) for s, c in self.carriers.items()})
        self.maps = MappingProxyType(
            {g.name: MappingProxyType(dict(maps.get(g.name, {})))
             for g in sig.gens})
        self._evaluator = None
        self._profile = None  # see saturation_profile
        self._fibers = {}  # sort -> fiber index, see fibers

    def carrier(self, sort):
        if sort not in self.carriers:
            raise UnknownSort(f"unknown sort {sort!r}")
        return self.carriers[sort]

    def apply_gen(self, gen_name, elem):
        return self.maps[gen_name][elem]

    def apply(self, path, elem):
        """Apply the maps of a generator path, first generator first."""
        for gen_name in path:
            elem = self.maps[gen_name][elem]
        return elem

    def fibers(self, sort) -> dict:
        """The elements of ``sort`` by boundary, in carrier order, keyed
        by their images along ``sig.out_gens(sort)``, which fix those
        along every position (see ``boundary_key``).  Built once, on
        first use, and only read after that: a natural boundary missing
        from it has an empty fiber."""
        index = self._fibers.get(sort)
        if index is None:
            tables = [self.maps[g.name] for g in self.sig.out_gens(sort)]
            groups = {}
            for e in self.carrier(sort):
                groups.setdefault(tuple(t[e] for t in tables), []).append(e)
            index = {key: tuple(es) for key, es in groups.items()}
            self._fibers[sort] = index
        return index

    def evaluator(self):
        if self._evaluator is None:
            self._evaluator = _Evaluator(self)
        return self._evaluator


def validate_structure(sig: Signature, raw) -> FinStructure:
    """Check carriers and maps for totality and functoriality.

    Carriers must be given for known sorts, without repeats, and maps
    for known arrows.  Each map must be defined on every element of its
    domain, send it into its codomain and be defined on nothing else,
    and the two sides of each declared equation must agree at every
    element.  The first failure is raised.  Membership is tested against
    ``FinStructure.elements``, so the checks take time linear in the
    size of the structure."""
    carriers = raw.get("carriers", {})
    maps = raw.get("maps", {})
    # the constructor ignores unknown sorts and arrows: the checks below
    # name them
    M = FinStructure(sig, carriers, maps)
    for s in carriers:
        if s not in sig.sorts:
            raise UnknownSort(f"carrier given for unknown sort {s!r}")
        # every table is keyed per sort, so one name may recur across
        # sorts; a repeat makes the element set smaller than the carrier
        if len(M.elements[s]) < len(M.carriers[s]):
            seen = set()
            for e in M.carriers[s]:
                if e in seen:
                    raise StructureError(
                        f"element {e!r} appears twice in sort {s!r}")
                seen.add(e)
    gen_names = {g.name for g in sig.gens}
    for m in maps:
        if m not in gen_names:
            raise UnknownName(f"map given for unknown arrow {m!r}")
    for g in sig.gens:
        table = M.maps[g.name]
        cod = M.elements[g.cod]
        for e in M.carriers[g.dom]:
            if e not in table:
                raise NonTotalMap(f"map {g.name!r} undefined on {e!r}")
            if table[e] not in cod:
                raise NonTotalMap(
                    f"map {g.name!r} sends {e!r} outside {g.cod!r}")
        dom = M.elements[g.dom]
        for e in table:
            if e not in dom:
                raise NonTotalMap(
                    f"map {g.name!r} defined on stray element {e!r}")
    # maps that agree on both sides of each declared equation, at every
    # element, respect the congruence the equations generate
    for s in sig.sorts:
        for lhs, rhs in sig.equations_at(s):
            for e in M.carrier(s):
                if M.apply(lhs, e) != M.apply(rhs, e):
                    raise FunctorialityError(
                        f"maps disagree on {e!r} along the equation "
                        f"{'.'.join(lhs)} = {'.'.join(rhs)}")
    return M


def boundary_key(sig: Signature, K: str, delta) -> tuple:
    """The key of a natural boundary in K's fiber index."""
    return tuple(delta[sig.cls((g.name,))] for g in sig.out_gens(K))


def boundary_instances(M: FinStructure, K: str) -> list:
    """All consistent boundary instances for sort K, in deterministic
    order.

    Positions are filled in ``sig.filling(K)`` order, so when position q
    is reached its images along the generators out of q's codomain are
    already chosen, and its candidates are the fiber over them."""
    deltas = [{}]
    for q, below in M.sig.filling(K):
        fib = M.fibers(q.cod)
        deltas = [{**d, q: e} for d in deltas
                  for e in fib.get(tuple(d[t] for _, t in below), ())]
    return deltas


def fiber(M: FinStructure, K: str, delta) -> tuple:
    """The elements of M(K) lying over a boundary instance, checked
    position by position in ``sig.filling(K)`` order, its first fault
    raised, then looked up by ``boundary_key``: a valid boundary the
    index lacks has an empty fiber, which is not stored."""
    sig = M.sig
    if set(delta) != set(sig.out(K)):
        raise InvalidBoundary(
            f"boundary for {K!r} must assign exactly its positions")
    for q, below in sig.filling(K):
        e = delta[q]
        if not _in_carrier(M, q.cod, e):
            raise InvalidBoundary(f"{e!r} is not in the carrier of "
                                  f"{q.cod!r}")
        for g, t in below:
            if M.apply_gen(g, e) != delta[t]:
                raise InvalidBoundary(
                    f"boundary for {K!r} violates {g!r} naturality "
                    f"at position {q.name!r}")
    return M.fibers(K).get(boundary_key(sig, K, delta), ())


def _permanent(rows) -> int:
    """The permanent of a square matrix of non-negative integers: the sum
    over bijections from rows to columns of the product of the chosen
    entries.  Equal columns form one type, and a dynamic program over the
    rows keeps the number of free columns of each type: a row placed on a
    type with r free columns adds weight w*r.  An all-equal n x n matrix
    has n + 1 states; only one with no two equal columns reaches 2**n."""
    if len(rows) < 2:  # 0 x 0 or 1 x 1, the matrices of most ``~=``
        return rows[0][0] if rows else 1
    types = {}
    for col in zip(*rows):
        types[col] = types.get(col, 0) + 1
    ways = {tuple(types.values()): 1}
    for i in range(len(rows)):
        nxt = {}
        for free, n in ways.items():
            for j, col in enumerate(types):
                if free[j] and col[i]:
                    key = free[:j] + (free[j] - 1,) + free[j + 1:]
                    nxt[key] = nxt.get(key, 0) + n * col[i] * free[j]
        ways = nxt
    return sum(ways.values())


_UNSET = object()


def _restore(env, slot, saved):
    if saved is _UNSET:
        env.pop(slot, None)
    else:
        env[slot] = saved


def _guarded_chain(phi):
    """A chain of ``forall`` binders and ``->`` antecedents in guarded
    form: its binders, outermost first, ``guards``, where ``guards[i]``
    lists the antecedent conjuncts to test after the first i binders,
    and the formula it ends in.  A conjunct is tested after the binder of
    the last chain variable it mentions, counting only binders ahead of
    it, so a later binder that shadows one of its variables does not pull
    it inward.  ``forall v. (G & A -> B)`` with ``v`` not free in ``G``
    counts as ``G -> forall v. (A -> B)``: the product over ``v`` of
    ``B(v) ** (G * A(v))`` is ``(product of B(v) ** A(v)) ** G``, also
    when ``G`` is 0 or the fiber of ``v`` is empty.  The chain is walked
    with a loop, not by recursion, and no formula node is built.
    """
    binders, guards = [], [[]]
    while isinstance(phi, (Forall, Implies)):
        if isinstance(phi, Forall):
            binders.append(phi.var)
            guards.append([])
            phi = phi.body
            continue
        for g in phi.lhs.args if isinstance(phi.lhs, And) else (phi.lhs,):
            fv, at = g.free_vars(), len(binders)
            while at and binders[at - 1] not in fv:
                at -= 1
            guards[at].append(g)
        phi = phi.rhs
    return binders, guards, phi


_MAX_BITS = 1 << 16  # past any printable count (4300 digits, 14,300 bits)
_TOO_BIG = f"a witness count exceeds {_MAX_BITS} bits"


def _power(b, a):
    """``b ** a``, checked against ``_MAX_BITS`` before it is computed: a
    nested ``->`` or ``<->`` can ask for 64 ** (64 ** 64)."""
    if b > 1 and a * b.bit_length() > _MAX_BITS:
        raise FoldsError(_TOO_BIG)
    return b ** a


def _product(counts):
    """The count function of a conjunction, which stops at the first 0
    and checks each partial product against ``_MAX_BITS``.  ``counts``
    is a list of count functions, or a tee of them that no call advances
    (``_Evaluator._ind_factors``): each call reads a copy, so it draws
    them only as far as it reaches.  No product is re-entered while it
    draws: Ind(x, y) at sort K holds ``~=`` only at sorts strictly above
    K."""
    if isinstance(counts, list):
        if len(counts) == 1:
            return counts[0]
        counts = tee(counts, 1)[0]

    def product(env):
        n = 1
        for c in counts.__copy__():
            k = c(env)
            if k != 1:
                n *= k
                if n == 0:
                    return 0
                if n >> _MAX_BITS:
                    raise FoldsError(_TOO_BIG)
        return n
    return product


def _implies(lhs, rhs):
    """The count function of ``lhs -> rhs``, ``rhs`` to the power ``lhs``."""
    def implies(env):
        a = lhs(env)
        return _power(rhs(env), a) if a else 1
    return implies


class _Evaluator:
    """Witness-count evaluator bound to one structure.

    Each formula is compiled once into a count function over an
    environment that maps variable slots (small integers, one per
    variable) to elements; ``_compiled``, keyed by formula, is the one
    cache, and a count function keeps no table of its own.  So a
    subformula that does not mention an enclosing binder is counted again
    for each value of that binder.  Quantifiers bind their variable in
    place and restore it afterwards.  A ``forall`` chain is compiled as
    one count function, inside out from its ``_guarded_chain``, so an
    antecedent such as ``comp(f,g,h)`` prunes the tuples below its last
    variable instead of being tested on every tuple of the chain.
    """

    def __init__(self, M: FinStructure):
        self.M = M
        self.sig = M.sig
        self._slot = {}  # variable -> slot
        self._compiled = {}  # formula -> count function

    def card(self, phi, asg):
        for v in phi.free_vars():
            if v not in asg:
                raise UnboundVariable(f"{v.name!r} is not assigned")
        if phi not in self._compiled:
            _check_binders(phi)
        return self._count(phi)({self._slot_of(v): e for v, e in asg.items()})

    def _slot_of(self, var):
        return self._slot.setdefault(var, len(self._slot))

    def _count(self, phi):
        fn = self._compiled.get(phi)
        if fn is None:
            fn = self._compiled[phi] = self._build(phi)
        return fn

    def _ind_factors(self, x, y):
        """The count functions of Ind(x, y)'s conjuncts, as a tee that no
        reader advances: each reader copies it, and a conjunct is
        compiled, and its (R, p) group generated, only when a copy first
        reaches it."""
        return tee((self._count(c) for _, group in ind_groups(self.sig, x, y)
                    for c in group), 1)[0]

    def _ind_count(self, x, y):
        """The count of Ind(x, y): the product of its conjuncts' counts."""
        return _product(self._ind_factors(x, y))

    def _build(self, phi):
        """The count function of one node."""
        if isinstance(phi, Top):
            return lambda env: 1
        if isinstance(phi, Bottom):
            return lambda env: 0
        if isinstance(phi, Atom):
            fib = self._fiber_fn(phi.var)
            return lambda env: 1 if fib(env) else 0
        if isinstance(phi, And):
            return _product([self._count(a) for a in phi.args])
        if isinstance(phi, Or):
            args = [self._count(a) for a in phi.args]
            return lambda env: 1 if any(a(env) for a in args) else 0
        if isinstance(phi, Iff):
            lhs, rhs = self._count(phi.lhs), self._count(phi.rhs)

            def iff(env):
                a, b = lhs(env), rhs(env)
                return _power(b, a) * _power(a, b)
            return iff
        if isinstance(phi, (Forall, Implies)):
            binders, guards, end = _guarded_chain(phi)
            count = self._count(end)
            for at in range(len(binders), -1, -1):
                if guards[at]:
                    count = _implies(
                        _product([self._count(g) for g in guards[at]]), count)
                if at:
                    count = self._quantifier(binders[at - 1], count, "forall")
            return count
        if isinstance(phi, Exists):
            return self._quantifier(phi.var, self._count(phi.body),
                                    "sum" if phi.untruncated else "exists")
        if isinstance(phi, Equiv):
            return self._equiv(phi)
        raise TypeError(f"unknown formula node {phi!r}")

    def _quantifier(self, var, body, kind):
        """``kind`` over ``var`` of the count ``body``: ``forall``
        multiplies over the fiber, ``sum`` sums, ``exists`` stops at the
        first witness."""
        slot, fib = self._slot_of(var), self._fiber_fn(var)
        forall, truncated = kind == "forall", kind == "exists"

        def quantify(env):
            saved = env.get(slot, _UNSET)
            n = 1 if forall else 0
            for e in fib(env):
                env[slot] = e
                c = body(env)
                if forall:
                    if c != 1:
                        n *= c
                        if n == 0:
                            break
                        if n >> _MAX_BITS:
                            raise FoldsError(_TOO_BIG)
                elif truncated:
                    if c:
                        n = 1
                        break
                else:
                    n += c
            _restore(env, slot, saved)
            return n
        return quantify

    def _fiber_fn(self, var: Variable):
        """A function from an environment to the fiber ``var`` ranges
        over, read from the fiber index by the values of ``var.proj``.
        Every boundary looked up is natural: ``mk_var`` checks each
        parsed variable, ``isogen``'s meet the equations by construction
        (``a*`` and ``b*`` copy the projections of either kind),
        quantifiers bind elements of fibers, and ``eval_card`` checks
        the assignment.  So a boundary missing from the index has an
        empty fiber."""
        slots = [self._slot_of(v) for _, v in var.proj]
        index = self.M.fibers(var.sort)
        if len(slots) > 1:
            key_of = itemgetter(*slots)
            return lambda env: index.get(key_of(env), ())
        if slots:
            s = slots[0]
            return lambda env: index.get((env[s],), ())
        fib = index.get((), ())
        return lambda env: fib

    def _equiv(self, node: Equiv):
        """Sum over fiber bijections of the product of pointwise
        indistinguishability counts: the permanent of their matrix, each
        entry an ``_ind_count``.  On a level-1 sort every entry is 1, so
        two fibers of n elements give n!, and no entry is built."""
        f1, f2 = self._fiber_fn(node.alpha), self._fiber_fn(node.beta)
        if self.sig.level(node.sort) == 1:
            def bijections(env):
                n = len(f1(env))
                return factorial(n) if n == len(f2(env)) else 0
            return bijections
        xv = Variable("a*", node.sort, node.alpha.proj)
        yv = Variable("b*", node.sort, node.beta.proj)
        sx, sy = self._slot_of(xv), self._slot_of(yv)
        inner = None  # the count of Ind(a*, b*), built when first needed

        def equiv(env):
            nonlocal inner
            left, right = f1(env), f2(env)
            if len(left) != len(right):
                return 0
            if inner is None:
                inner = self._ind_count(xv, yv)
            saved = env.get(sx, _UNSET), env.get(sy, _UNSET)
            rows = []
            for a in left:
                env[sx] = a
                row = []
                for b in right:
                    env[sy] = b
                    row.append(inner(env))
                rows.append(row)
            _restore(env, sx, saved[0])
            _restore(env, sy, saved[1])
            return _permanent(rows)
        return equiv


def _check_binders(phi):
    """Raise ``InvalidBoundary`` at a binder v that rebinds a variable on
    which the sort of one free in its body depends.  ``scope`` counts the
    variables of each name in scope, and a binder whose name it lacks
    costs one lookup.  On the walk's stack, a name ends its binder's body."""
    scope = {u.name: 1 for w in phi.free_vars() for u in w.dep()}
    stack = [phi]
    while stack:
        f = stack.pop()
        t = type(f)
        if t is Forall or t is Exists:
            v, n = f.var, scope.get(f.var.name, 0)
            names = n and sorted(w.name for w in f.body.free_vars()
                                 if v in w.boundary())
            if names:
                raise InvalidBoundary(
                    f"binder {v.name!r} rebinds {v.name!r}, on which the "
                    f"sort of {names[0]!r} depends")
            scope[v.name] = n + 1
            stack += (v.name, f.body)
        elif t is And or t is Or:
            stack += f.args
        elif t is Implies or t is Iff:
            stack += (f.lhs, f.rhs)
        elif t is str:
            scope[f] -= 1


def _in_carrier(M, K, e) -> bool:
    try:
        return e in M.elements[K]
    except TypeError:  # unhashable, so in no carrier
        return False


def _check_element(M, K, e):
    if not _in_carrier(M, K, e):
        raise SortMismatch(f"{e!r} is not an element of {K!r}")


def _check_assignment(M, phi, asg):
    sig = M.sig
    for v, e in asg.items():
        if not isinstance(v, Variable):
            raise SortMismatch(f"assignment key {v!r} is not a variable")
        if v.sort not in sig.sorts:
            raise UnknownSort(f"unknown sort {v.sort!r}")
        _check_element(M, v.sort, e)
        for g, w in v.proj:
            if w in asg and M.apply_gen(g, e) != asg[w]:
                raise InvalidBoundary(
                    f"assignment breaks {g!r} naturality at {v.name!r}")


def eval_card(M: FinStructure, phi: Formula, asg=None) -> int:
    """Exact witness count of a formula under an assignment of its free
    variables."""
    asg = dict(asg or {})
    _check_assignment(M, phi, asg)
    return M.evaluator().card(phi, asg)


def eval_prop(M: FinStructure, phi: Formula, asg=None) -> bool:
    return eval_card(M, phi, asg) > 0


def satisfies(M: FinStructure, theory):
    """Evaluate a list of (name, closed formula) axioms; returns the
    overall verdict and a per-axiom report."""
    report = []
    ok = True
    for name, phi in theory:
        if phi.free_vars():
            raise OpenFormula(f"axiom {name!r} has free variables")
        holds = eval_prop(M, phi)
        ok = ok and holds
        report.append({"axiom": name, "ok": holds})
    return ok, report


# -- element-indexed indistinguishability -------------------------------

def _ind_over(M: FinStructure, K: str, da, db):
    """Ind(x*, y*), x* and y* over the boundaries da and db of K: its
    conjuncts' count functions, drawn lazily (``_Evaluator._ind_factors``),
    and a function that binds x*, y* to the elements a, b they stand for
    in one environment, where every quantifier and ``~=`` restores the
    slot it binds, and returns it."""
    ev = M.evaluator()
    (xv, yv), value_of = variables_over(M.sig, K, (da, db), ("x*", "y*"))
    env = {ev._slot_of(v): e for v, e in value_of.items()}
    sx, sy = ev._slot_of(xv), ev._slot_of(yv)

    def bind(a, b):
        env[sx], env[sy] = a, b
        return env
    return ev._ind_factors(xv, yv), bind


def _ind_counter(M: FinStructure, K: str, da, db):
    """card of Ind(x*, y*), x* and y* over the boundaries da and db of K,
    as a function of the elements a, b they stand for: the product of
    the conjuncts ``_ind_over`` draws, as far as the pairs need."""
    factors, bind = _ind_over(M, K, da, db)
    count = _product(factors)
    return lambda a, b: count(bind(a, b))


def _boundary(M: FinStructure, K: str, e) -> dict:
    """The boundary of the element e of K: its image at each position."""
    return {q: M.apply(q.path, e) for q in M.sig.out(K)}


def card_iso_elems(M: FinStructure, K: str, a, b) -> int:
    """card of Ind(x, y) with x, y standing over the element boundaries
    of a and b, which must be elements of K."""
    _check_element(M, K, a)
    _check_element(M, K, b)
    return _ind_counter(M, K, _boundary(M, K, a), _boundary(M, K, b))(a, b)


def check_saturation(M: FinStructure, K: str) -> list:
    """All violations of card(x ~ y) = [x = y] over the fibers of K, each
    with its exact card, boundary by boundary in fill order and pair by
    pair, from one ``Ind`` counter per non-empty fiber (none on level 1,
    where every card is 1)."""
    top = M.sig.level(K) == 1
    index = M.fibers(K)
    found = []
    for delta in boundary_instances(M, K):
        F = index.get(boundary_key(M.sig, K, delta), ())
        card = None if top or not F else _ind_counter(M, K, delta, delta)
        for a in F:
            for b in F:
                c = 1 if top else card(a, b)
                if c != (1 if a == b else 0):
                    found.append({
                        "sort": K,
                        "boundary": {q.name: e for q, e in delta.items()},
                        "pair": (a, b),
                        "card": c,
                    })
    return found


def _level2_saturated(M: FinStructure, K: str) -> bool:
    """Whether the level-2 sort K is saturated, given that level 1 is.
    Each position p into K is a generator class out of a level-1 sort
    R, whose fibers hold at most one element, so each ``~=`` in Ind(a,
    b) is 0! or 1!, and 0 only when R's fiber over a boundary with a at
    p is empty and that with b at p is not, or the other way round.  So
    card Ind(a, a) is 1, and for a, b in one fiber card Ind(a, b) is 1
    iff, at each p, the keys of R's non-empty fibers with a at p are
    those with b at p, p's entries dropped.  These reduced keys, tagged
    with p, are an element's profile: no two in one fiber may share
    one.  Only the elements of fibers of two or more need one."""
    sig = M.sig
    shared = [F for F in M.fibers(K).values() if len(F) > 1]
    profiles = {e: set() for F in shared for e in F}
    for R in sig.sorts if shared else ():
        classes = [sig.cls((g.name,)) for g in sig.out_gens(R)]
        for p in dict.fromkeys(q for q in classes if q.cod == K):
            at = [i for i, q in enumerate(classes) if q == p]
            for key in M.fibers(R):
                profile = profiles.get(key[at[0]])
                if profile is not None:
                    profile.add((p, tuple(e for i, e in enumerate(key)
                                          if i not in at)))
    return all(len({frozenset(profiles[e]) for e in F}) == len(F)
               for F in shared)


def _saturated(M: FinStructure, K: str) -> bool:
    """Whether K has no violation, given that every level below K's is
    saturated, with no exact count.  Level 1: no fiber of two.  Level 2:
    ``_level2_saturated``, with no ``Ind``.  Above, the conjuncts' counts
    are non-negative integers, so card Ind(a, a) is 1 iff each is 1, and
    card Ind(a, b) is 0 iff one is 0: a pair stops at the first conjunct
    that settles it (on Z_n, at ``O``, the first: ``A(x,x) ~= A(y,x)``
    counts n!), and nothing is multiplied."""
    level = M.sig.level(K)
    if level == 1:
        return all(len(F) <= 1 for F in M.fibers(K).values())
    if level == 2:
        return _level2_saturated(M, K)
    for F in M.fibers(K).values():
        delta = _boundary(M, K, F[0])
        factors, bind = _ind_over(M, K, delta, delta)
        for a in F:
            for b in F:
                env = bind(a, b)
                counts = (c(env) for c in factors.__copy__())
                if any(n != 1 for n in counts) if a == b else all(counts):
                    return False
    return True


def saturation_profile(M: FinStructure) -> dict:
    """Per-level saturation booleans plus the total flag.

    A structure is saturated at level n when every sort of level at
    most n is, so levels are decided bottom-up: a level holds when no
    sort of that level has a violation, and once one level fails every
    level above it is false without a sort above it being checked.
    Each sort's yes/no is ``_saturated``'s: no level counts exactly,
    and levels 1 and 2 generate no ``Ind``.
    """
    if M._profile is not None:
        return dict(M._profile)
    sig = M.sig
    profile, ok = {}, True
    for n in range(1, sig.height + 1):
        ok = ok and all(_saturated(M, K)
                        for K in sig.sorts if sig.level(K) == n)
        profile[n] = ok
    profile["total"] = profile[sig.height]
    M._profile = profile
    return dict(profile)


def equiv_card_via_bijections(M: FinStructure, K: str, d1, d2) -> int:
    """Independent count of the equivalence data between two fibers:
    bijections whose graph is pointwise indistinguishable, each counted
    once."""
    level = M.sig.level(K)
    profile = saturation_profile(M)
    if not profile.get(level, False):
        raise NotSaturatedPrecondition(
            f"structure is not saturated at level {level}")
    f1, f2 = fiber(M, K, d1), fiber(M, K, d2)
    if len(f1) != len(f2):
        return 0
    card = _ind_counter(M, K, d1, d2)
    return _permanent([[int(card(a, b) > 0) for b in f2] for a in f1])
