"""Finite structures and witness-count evaluation.

A finite structure assigns a finite carrier to every sort and a total
map to every generating arrow, functorially.  Formulas are evaluated to
exact witness counts: conjunction and universal quantification multiply,
untruncated existentials sum over the fiber, implication counts the
function space, and truncated connectives clamp to one.  The generated
equivalence nodes are evaluated as sums over fiber bijections whose
graph is pointwise indistinguishable; this is the finite-set form of the
equivalence data and is cross-checked against the expanded three-part
formula wherever the saturation precondition makes the two agree.
Nothing lies above a level-1 sort, so its ``Ind`` is ``Top``: its
``~=`` counts every bijection, and it is saturated when each of its
fibers has at most one element.  Saturation is decided level by level
from the bottom: the first violation settles its level and every level
above it.  Level 2 is decided only once level 1 holds; then each ``~=``
in a level-2 ``Ind`` compares fibers of at most one element, so card
Ind(a, a) is 1 and only distinct elements of one fiber are checked.
Above level 2 a ``~=`` may compare larger fibers, and the diagonal can
exceed 1 (64 at the object of Z_2).
"""

from __future__ import annotations

from math import factorial
from operator import itemgetter
from types import MappingProxyType

from .errors import (FunctorialityError, InvalidBoundary,
                     NonTotalMap, NotSaturatedPrecondition, OpenFormula,
                     SortMismatch, UnboundVariable, UnknownName, UnknownSort)
from .isogen import ind
from .sigcore import Signature
from .synkit import (And, Atom, Bottom, Equiv, Exists, Forall, Formula, Iff,
                     Implies, Or, Top, Variable, conj)


class FinStructure:
    """Finite functorial interpretation of a signature.

    Read-only: ``carriers`` maps each sort to a tuple and ``maps`` each
    generator to a read-only mapping, so the caches below cannot go
    stale.
    """

    def __init__(self, sig: Signature, carriers, maps):
        self.sig = sig
        self.carriers = MappingProxyType(
            {s: tuple(carriers.get(s, ())) for s in sig.sorts})
        self.maps = MappingProxyType(
            {g.name: MappingProxyType(dict(maps.get(g.name, {})))
             for g in sig.gens})
        self._evaluator = None
        self._iso_cache = {}  # (sort, a, b) -> card of Ind, see card_iso_elems
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
        """The elements of ``sort`` by boundary: a map from the tuple of
        their images along ``sig.out(sort)`` to the elements over it, in
        carrier order.  Built on first use; ``fiber`` adds each valid
        boundary it finds empty, mapped to ``()``."""
        index = self._fibers.get(sort)
        if index is None:
            out = self.sig.out(sort)
            groups = {}
            for e in self.carrier(sort):
                key = tuple(self.apply(q.path, e) for q in out)
                groups.setdefault(key, []).append(e)
            index = {key: tuple(es) for key, es in groups.items()}
            self._fibers[sort] = index
        return index

    def evaluator(self):
        if self._evaluator is None:
            self._evaluator = _Evaluator(self)
        return self._evaluator


def validate_structure(sig: Signature, raw) -> FinStructure:
    """Check carriers and maps for totality and functoriality."""
    carriers = raw.get("carriers", {})
    maps = raw.get("maps", {})
    for s in carriers:
        if s not in sig.sorts:
            raise UnknownSort(f"carrier given for unknown sort {s!r}")
    gen_names = {g.name for g in sig.gens}
    for m in maps:
        if m not in gen_names:
            raise UnknownName(f"map given for unknown arrow {m!r}")
    M = FinStructure(sig, carriers, maps)
    for g in sig.gens:
        table = M.maps[g.name]
        dom, cod = M.carrier(g.dom), set(M.carrier(g.cod))
        for e in dom:
            if e not in table:
                raise NonTotalMap(f"map {g.name!r} undefined on {e!r}")
            if table[e] not in cod:
                raise NonTotalMap(
                    f"map {g.name!r} sends {e!r} outside {g.cod!r}")
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


def boundary_of(M: FinStructure, K: str, elem) -> dict:
    """The boundary instance of an element: its image along every
    non-identity hom-class out of K."""
    return {q: M.apply(q.path, elem) for q in M.sig.out(K)}


def boundary_instances(M: FinStructure, K: str) -> list:
    """All consistent boundary instances for sort K, in deterministic
    order.

    Positions are filled deepest codomain first, so when position q is
    reached the images its element must have are already chosen, and its
    candidates are the fiber over them."""
    sig = M.sig
    # out(K) order breaks ties in level: the sort is stable
    classes = sorted(sig.out(K), key=lambda a: -sig.level(a.cod))
    under = [(q, tuple(sig.compose(q, r) for r in sig.out(q.cod)))
             for q in classes]
    results = []

    def assign(i, val):
        if i == len(under):
            results.append(dict(val))
            return
        q, below = under[i]
        for e in M.fibers(q.cod).get(tuple(val[r] for r in below), ()):
            val[q] = e
            assign(i + 1, val)
            del val[q]

    assign(0, {})
    return results


def fiber(M: FinStructure, K: str, delta) -> tuple:
    """The elements of M(K) lying over a boundary instance."""
    sig = M.sig
    classes = sig.out(K)
    if len(delta) != len(classes) or not all(q in delta for q in classes):
        raise InvalidBoundary(
            f"boundary for {K!r} must assign exactly its positions")
    key = tuple(delta[q] for q in classes)
    index = M.fibers(K)
    found = index.get(key)
    if found is not None:
        # the boundary of an element, valid by functoriality, or one
        # validated here before
        return found
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
    index[key] = ()
    return ()


def _ind_is_top(sig: Signature, K: str) -> bool:
    """Whether Ind(x, y) is Top on K: nothing lies above a level-1 sort."""
    return sig.level(K) == 1


def _permanent(rows) -> int:
    """The permanent of a square matrix of non-negative integers: the sum
    over bijections from rows to columns of the product of the chosen
    entries.  Dynamic programming over the set of columns the first rows
    use, so 2**n sets at most rather than n! bijections."""
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


_UNSET = object()


def _restore(env, slot, saved):
    if saved is _UNSET:
        env.pop(slot, None)
    else:
        env[slot] = saved


def _hoist_guards(phi):
    """The guarded form of a chain of ``forall`` binders and ``->``
    antecedents: each antecedent conjunct moves out to just after the
    binder of the last chain variable it mentions (before the chain if
    it mentions none).  Returns a map from each ``forall`` node of the
    chain to the formula to compile in its place: the node itself, or
    for the first node a conjunct moves out past, the rebuilt rest of
    the chain.  Nodes above that keep their place, so nothing is built
    when no conjunct moves.

    ``forall v. (G & A -> B)`` with ``v`` not free in ``G`` becomes
    ``G -> forall v. (A -> B)``.  The count is unchanged: the product
    over ``v`` of ``B(v) ** (G * A(v))`` is ``(product of B(v) ** A(v))
    ** G``, also when ``G`` is 0 or the fiber of ``v`` is empty.  Only
    binders ahead of a conjunct count, so a later binder that shadows a
    variable it mentions does not pull it inward.  The chain is walked
    with a loop, not by recursion.
    """
    binders, nodes, guards, moved = [], [], [], False
    f = phi
    while isinstance(f, (Forall, Implies)):
        if isinstance(f, Forall):
            binders.append(f.var)
            nodes.append(f)
            f = f.body
            continue
        for g in f.lhs.args if isinstance(f.lhs, And) else (f.lhs,):
            fv, at = g.free_vars(), len(binders)
            while at and binders[at - 1] not in fv:
                at -= 1
            moved = moved or at < len(binders)
            guards.append((at, g))
        f = f.rhs
    if not moved:
        return {node: node for node in nodes}
    first = min(at for at, _ in guards)
    place = {node: node for node in nodes[:first]}
    after = [[] for _ in range(len(binders) + 1)]
    for at, g in guards:
        after[at].append(g)
    for at in range(len(binders), first - 1, -1):
        if after[at]:
            f = Implies(conj(after[at]), f)
        if at > first:
            f = place[f] = Forall(binders[at - 1], f)
    place[nodes[first]] = f
    return place


class _Evaluator:
    """Memoizing witness-count evaluator bound to one structure.

    Each formula is compiled once into a count function over an
    environment that maps variable slots (small integers, one per
    variable) to elements.  A count function memoizes its results on the
    values of its free variables, read from the environment with one
    ``itemgetter`` call.  Quantifiers bind their variable in place and
    restore it afterwards.  A ``forall`` chain is compiled in guarded
    form (see ``_hoist_guards``), so an antecedent such as
    ``comp(f,g,h)`` prunes the tuples below its last variable instead of
    being tested on every tuple of the chain.
    """

    def __init__(self, M: FinStructure):
        self.M = M
        self.sig = M.sig
        self._slot = {}  # variable -> slot
        self._compiled = {}  # formula -> count function
        self._guarded = {}  # forall node -> what to compile, see _hoist_guards

    def card(self, phi, asg):
        for v in phi.free_vars():
            if v not in asg:
                raise UnboundVariable(f"{v.name!r} is not assigned")
        return self._count(phi)({self._slot_of(v): e for v, e in asg.items()})

    def _slot_of(self, var):
        slot = self._slot.get(var)
        if slot is None:
            slot = self._slot[var] = len(self._slot)
        return slot

    def _values(self, vars_):
        """A function from an environment to the tuple of values of
        ``vars_``."""
        slots = [self._slot_of(v) for v in vars_]
        if len(slots) > 1:
            return itemgetter(*slots)
        if slots:
            s = slots[0]
            return lambda env: (env[s],)
        return lambda env: ()

    def _count(self, phi):
        fn = self._compiled.get(phi)
        if fn is None:
            count = self._build(phi)
            key_of, table = self._values(phi.free_vars()), {}

            def fn(env):
                key = key_of(env)
                n = table.get(key)
                if n is None:
                    n = table[key] = count(env)
                return n

            self._compiled[phi] = fn
        return fn

    def _build(self, phi):
        """The unmemoized count function of one node."""
        if isinstance(phi, Top):
            return lambda env: 1
        if isinstance(phi, Bottom):
            return lambda env: 0
        if isinstance(phi, Atom):
            fib = self._fiber_fn(phi.var)
            return lambda env: 1 if fib(env) else 0
        if isinstance(phi, And):
            args = [self._count(a) for a in phi.args]

            def conj(env):
                n = 1
                for a in args:
                    n *= a(env)
                    if n == 0:
                        return 0
                return n
            return conj
        if isinstance(phi, Or):
            args = [self._count(a) for a in phi.args]
            return lambda env: 1 if any(a(env) for a in args) else 0
        if isinstance(phi, Implies):
            lhs, rhs = self._count(phi.lhs), self._count(phi.rhs)

            def implies(env):
                a = lhs(env)
                return rhs(env) ** a if a else 1
            return implies
        if isinstance(phi, Iff):
            lhs, rhs = self._count(phi.lhs), self._count(phi.rhs)

            def iff(env):
                a, b = lhs(env), rhs(env)
                return (b ** a) * (a ** b)
            return iff
        if isinstance(phi, Forall):
            if phi not in self._guarded:
                self._guarded.update(_hoist_guards(phi))
            if self._guarded[phi] is not phi:
                return self._build(self._guarded[phi])
        if isinstance(phi, (Forall, Exists)):
            return self._quantifier(phi)
        if isinstance(phi, Equiv):
            return self._equiv(phi)
        raise TypeError(f"unknown formula node {phi!r}")

    def _quantifier(self, phi):
        """Forall multiplies over the fiber, the untruncated existential
        sums, and the truncated one stops at the first witness."""
        slot = self._slot_of(phi.var)
        fib, body = self._fiber_fn(phi.var), self._count(phi.body)
        forall = isinstance(phi, Forall)
        truncated = not forall and not phi.untruncated

        def quantify(env):
            saved = env.get(slot, _UNSET)
            n = 1 if forall else 0
            for e in fib(env):
                env[slot] = e
                c = body(env)
                if forall:
                    n *= c
                    if n == 0:
                        break
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
        over."""
        K = var.sort
        out = self.sig.out(K)
        key_of = self._values(var.proj_along(q.path) for q in out)
        index, M = self.M.fibers(K), self.M

        def fib(env):
            key = key_of(env)
            found = index.get(key)
            if found is None:  # fiber() validates the boundary
                found = fiber(M, K, dict(zip(out, key)))
            return found
        return fib

    def _equiv(self, node: Equiv):
        """Sum over fiber bijections of the product of pointwise
        indistinguishability counts: the permanent of their matrix.  On
        a level-1 sort every entry is 1, so two fibers of n elements
        give n!."""
        f1, f2 = self._fiber_fn(node.alpha), self._fiber_fn(node.beta)
        top = _ind_is_top(self.sig, node.sort)
        xv = Variable("a*", node.sort, node.alpha.proj)
        yv = Variable("b*", node.sort, node.beta.proj)
        sx, sy = self._slot_of(xv), self._slot_of(yv)
        inner = None  # the count of Ind(a*, b*), built when first needed

        def equiv(env):
            nonlocal inner
            left, right = f1(env), f2(env)
            if len(left) != len(right):
                return 0
            if top:
                return factorial(len(left))
            if inner is None:
                inner = self._count(ind(self.sig, xv, yv))
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


def _check_assignment(M, phi, asg):
    sig = M.sig
    for v, e in asg.items():
        if not isinstance(v, Variable):
            raise SortMismatch(f"assignment key {v!r} is not a variable")
        if v.sort not in sig.sorts:
            raise UnknownSort(f"unknown sort {v.sort!r}")
        if e not in M.carrier(v.sort):
            raise SortMismatch(
                f"{e!r} is not an element of {v.sort!r}")
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

def _pair_by_position(M: FinStructure, K: str, over_x, over_y):
    """Variables x*, y* of sort K whose generator positions ``g`` hold
    the elements ``over_x[g]`` and ``over_y[g]``, plus the assignment of
    their boundary variables.

    Each boundary element becomes one variable, named after its sort and
    the order in which the walk first reaches it, not after the element.
    Two pairs whose boundaries coincide in the same pattern therefore get
    the same x* and y*, and so the same ``Ind(x*, y*)``.
    """
    sig = M.sig
    var_of, asg, count = {}, {}, {}

    def mirror(sort, elem):
        v = var_of.get((sort, elem))
        if v is None:
            proj = tuple((g.name, mirror(g.cod, M.apply_gen(g.name, elem)))
                         for g in sig.out_gens(sort))
            count[sort] = count.get(sort, 0) + 1
            v = Variable(f"{sort.lower()}_{count[sort]}", sort, proj)
            var_of[(sort, elem)] = v
            asg[v] = elem
        return v

    def top(name, over):
        return Variable(name, K, tuple((g.name, mirror(g.cod, over[g.name]))
                                       for g in sig.out_gens(K)))

    return top("x*", over_x), top("y*", over_y), asg


def card_iso_elems(M: FinStructure, K: str, a, b) -> int:
    """card of Ind(x, y) with x, y standing over the element boundaries
    of a and b."""
    cache = M._iso_cache
    key = (K, a, b)
    if key not in cache:
        gens = M.sig.out_gens(K)
        xv, yv, asg = _pair_by_position(
            M, K, {g.name: M.apply_gen(g.name, a) for g in gens},
            {g.name: M.apply_gen(g.name, b) for g in gens})
        asg[xv] = a
        asg[yv] = b
        phi = ind(M.sig, xv, yv)
        fv = phi.free_vars()
        cache[key] = eval_card(M, phi,
                               {v: e for v, e in asg.items() if v in fv})
    return cache[key]


def ind_truth_elems(M: FinStructure, K: str, a, b) -> bool:
    return card_iso_elems(M, K, a, b) > 0


def _violations(M: FinStructure, K: str):
    """The violations of card(x ~ y) = [x = y] over the fibers of K,
    one at a time, fiber by fiber and pair by pair."""
    top = _ind_is_top(M.sig, K)
    for delta in boundary_instances(M, K):
        F = fiber(M, K, delta)
        for a in F:
            for b in F:
                c = 1 if top else card_iso_elems(M, K, a, b)
                if c != (1 if a == b else 0):
                    yield {
                        "sort": K,
                        "boundary": {q.name: e for q, e in delta.items()},
                        "pair": (a, b),
                        "card": c,
                    }


def check_saturation(M: FinStructure, K: str) -> list:
    """All violations of card(x ~ y) = [x = y] over the fibers of K."""
    return list(_violations(M, K))


def _saturated(M: FinStructure, K: str, level1: bool = False) -> bool:
    """Whether K has no violation.  On level 1: no fiber of two.  On
    level 2, when ``level1`` says level 1 is saturated: no two distinct
    elements of one fiber with a non-zero ``Ind``.  Every sort above a
    level-2 sort has level 1 and fibers of at most one element, so each
    ``~=`` in its ``Ind`` is 0! or 1!, and card Ind(a, a) is 1.  Above
    level 2 this fails (on Z_2, card(x ~ x) is 64 at ``O``)."""
    if _ind_is_top(M.sig, K):
        return all(len(F) <= 1 for F in M.fibers(K).values())
    if level1 and M.sig.level(K) == 2:
        # a snapshot: evaluating Ind adds empty fibers to the index
        return all(card_iso_elems(M, K, a, b) == 0
                   for F in tuple(M.fibers(K).values())
                   for a in F for b in F if a != b)
    return next(_violations(M, K), None) is None


def saturation_profile(M: FinStructure) -> dict:
    """Per-level saturation booleans plus the total flag.

    A structure is saturated at level n when every sort of level at
    most n is, so levels are decided bottom-up: a level holds when no
    sort of that level has a violation, and once one level fails every
    level above it is false without a sort above it being checked.
    Level 1 is read off the fiber sizes, with no ``Ind`` at all.  Level
    2 is reached only when level 1 holds, and then ``Ind`` is generated
    only for distinct elements of one fiber (see ``_saturated``), so a
    level-2 sort whose fibers are all singletons needs none.  Each sort
    above level 2 stops at its first violation.
    """
    if M._profile is not None:
        return dict(M._profile)
    sig = M.sig
    profile, ok = {}, True
    for n in range(1, sig.height + 1):
        ok = ok and all(_saturated(M, K, level1=profile.get(1, False))
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
    return _permanent([[int(ind_truth_elems(M, K, a, b)) for b in f2]
                       for a in f1])
