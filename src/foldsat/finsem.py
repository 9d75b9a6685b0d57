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
"""

from __future__ import annotations

from itertools import permutations

from .errors import (FunctorialityError, InvalidBoundary,
                     NonTotalMap, NotSaturatedPrecondition, OpenFormula,
                     SortMismatch, UnboundVariable, UnknownName, UnknownSort)
from .isogen import ind
from .sigcore import Signature
from .synkit import (And, Atom, Bottom, Equiv, Exists, Forall, Formula, Iff,
                     Implies, Or, Top, Variable, mk_var)


class FinStructure:
    """Finite functorial interpretation of a signature."""

    def __init__(self, sig: Signature, carriers, maps):
        self.sig = sig
        self.carriers = {s: tuple(carriers.get(s, ())) for s in sig.sorts}
        self.maps = {g.name: dict(maps.get(g.name, {})) for g in sig.gens}
        self._evaluator = None
        self._iso_cache = {}  # (sort, a, b) -> card of Ind, see card_iso_elems
        self._profile = None  # see saturation_profile

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
    order."""
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


def fiber(M: FinStructure, K: str, delta) -> tuple:
    """The elements of M(K) lying over a boundary instance."""
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


def _truth(n):
    return 1 if n > 0 else 0


class _Evaluator:
    """Memoizing witness-count evaluator bound to one structure."""

    def __init__(self, M: FinStructure):
        self.M = M
        self.sig = M.sig
        self._fv = {}
        self._inner = {}
        self._memo = {}

    def fv(self, phi):
        if phi not in self._fv:
            self._fv[phi] = frozenset(phi.free_vars())
        return self._fv[phi]

    def card(self, phi, asg):
        fv = self.fv(phi)
        for v in fv:
            if v not in asg:
                raise UnboundVariable(f"{v.name!r} is not assigned")
        key = (phi, frozenset((v, asg[v]) for v in fv))
        if key in self._memo:
            return self._memo[key]
        n = self._card(phi, asg)
        self._memo[key] = n
        return n

    def _card(self, phi, asg):
        M = self.M
        if isinstance(phi, Top):
            return 1
        if isinstance(phi, Bottom):
            return 0
        if isinstance(phi, Atom):
            return _truth(len(self._fiber_of(phi.var, asg)))
        if isinstance(phi, And):
            n = 1
            for a in phi.args:
                n *= self.card(a, asg)
                if n == 0:
                    return 0
            return n
        if isinstance(phi, Or):
            return _truth(sum(_truth(self.card(a, asg)) for a in phi.args))
        if isinstance(phi, Implies):
            a = self.card(phi.lhs, asg)
            return self.card(phi.rhs, asg) ** a
        if isinstance(phi, Iff):
            a, b = self.card(phi.lhs, asg), self.card(phi.rhs, asg)
            return (b ** a) * (a ** b)
        if isinstance(phi, Forall):
            n = 1
            for e in self._fiber_of(phi.var, asg):
                n *= self.card(phi.body, {**asg, phi.var: e})
                if n == 0:
                    return 0
            return n
        if isinstance(phi, Exists):
            counts = (self.card(phi.body, {**asg, phi.var: e})
                      for e in self._fiber_of(phi.var, asg))
            if phi.untruncated:
                return sum(counts)
            return _truth(sum(_truth(c) for c in counts))
        if isinstance(phi, Equiv):
            return self._equiv_card(phi, asg)
        raise TypeError(f"unknown formula node {phi!r}")

    def _fiber_of(self, var: Variable, asg):
        delta = {}
        for q in self.sig.out(var.sort):
            w = var.proj_along(q.path)
            if w not in asg:
                raise UnboundVariable(f"{w.name!r} is not assigned")
            delta[q] = asg[w]
        return fiber(self.M, var.sort, delta)

    def _equiv_card(self, node: Equiv, asg):
        """Sum over fiber bijections of the product of pointwise
        indistinguishability counts."""
        f1 = self._fiber_of(node.alpha, asg)
        f2 = self._fiber_of(node.beta, asg)
        if len(f1) != len(f2):
            return 0
        xv, yv, inner = self._inner_ind(node)
        if not f1:
            return 1
        total = 0
        for image in permutations(f2):
            n = 1
            for a, b in zip(f1, image):
                n *= self.card(inner, {**asg, xv: a, yv: b})
                if n == 0:
                    break
            total += n
        return total

    def _inner_ind(self, node: Equiv):
        if node not in self._inner:
            xv = Variable("a*", node.sort, node.alpha.proj)
            yv = Variable("b*", node.sort, node.beta.proj)
            self._inner[node] = (xv, yv, ind(self.sig, xv, yv))
        return self._inner[node]


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

def element_variable(M: FinStructure, sort: str, elem, cache, prefix=""):
    """A variable mirroring the boundary of a carrier element; shared
    boundary elements yield shared variables."""
    key = (sort, elem, prefix)
    if key in cache:
        return cache[key]
    sig = M.sig
    fillers = {g.name: element_variable(M, g.cod,
                                        M.apply_gen(g.name, elem), cache,
                                        prefix)
               for g in sig.out_gens(sort)}
    v = mk_var(sig, f"{prefix}{sort.lower()}_{elem}", sort, fillers)
    cache[key] = v
    return v


def _pair_context(M, K, a, b):
    """Two distinct variables of sort K carrying the element boundaries
    of a and b, plus the assignment realizing them."""
    cache = {}
    va = element_variable(M, K, a, cache)
    vb = element_variable(M, K, b, cache)
    xv = Variable("x*", K, va.proj)
    yv = Variable("y*", K, vb.proj)
    asg = {v: e for (s, e, _), v in cache.items()}
    asg[xv] = a
    asg[yv] = b
    return xv, yv, asg


def boundary_pair_context(M: FinStructure, K: str, d1, d2):
    """Two distinct variables of sort K over the element boundaries d1
    and d2 (sharing boundary variables where the elements coincide),
    plus the assignment of their boundary variables."""
    sig = M.sig
    cache = {}

    def fillers(delta):
        return {g.name: element_variable(M, g.cod,
                                         delta[sig.cls((g.name,))], cache)
                for g in sig.out_gens(K)}

    xt = mk_var(sig, "x*", K, fillers(d1))
    yt = Variable("y*", K, mk_var(sig, "y*", K, fillers(d2)).proj)
    asg = {v: e for (s, e, _), v in cache.items()}
    return xt, yt, asg


def equiv_card_via_formula(M: FinStructure, K: str, d1, d2) -> int:
    """card of the expanded three-conjunct equivalence formula between
    two fibers; the cross-check partner of equiv_card_via_bijections."""
    from .isogen import sort_equiv
    xt, yt, asg = boundary_pair_context(M, K, d1, d2)
    phi = sort_equiv(M.sig, K, xt, yt)
    fv = phi.free_vars()
    return eval_card(M, phi, {v: e for v, e in asg.items() if v in fv})


def card_iso_elems(M: FinStructure, K: str, a, b) -> int:
    """card of Ind(x, y) with x, y standing over the element boundaries
    of a and b."""
    cache = M._iso_cache
    key = (K, a, b)
    if key not in cache:
        xv, yv, asg = _pair_context(M, K, a, b)
        phi = ind(M.sig, xv, yv)
        fv = phi.free_vars()
        cache[key] = eval_card(M, phi,
                               {v: e for v, e in asg.items() if v in fv})
    return cache[key]


def ind_truth_elems(M: FinStructure, K: str, a, b) -> bool:
    return card_iso_elems(M, K, a, b) > 0


def check_saturation(M: FinStructure, K: str) -> list:
    """All violations of card(x ~ y) = [x = y] over the fibers of K."""
    violations = []
    for delta in boundary_instances(M, K):
        F = fiber(M, K, delta)
        for a in F:
            for b in F:
                c = card_iso_elems(M, K, a, b)
                want = 1 if a == b else 0
                if c != want:
                    violations.append({
                        "sort": K,
                        "boundary": {q.name: e for q, e in delta.items()},
                        "pair": (a, b),
                        "card": c,
                    })
    return violations


def saturated_at(M: FinStructure, K: str) -> bool:
    return not check_saturation(M, K)


def saturation_profile(M: FinStructure) -> dict:
    """Per-level saturation booleans plus the total flag."""
    if M._profile is not None:
        return dict(M._profile)
    sig = M.sig
    by_sort = {K: saturated_at(M, K) for K in sig.sorts}
    profile = {}
    for n in range(1, sig.height + 1):
        profile[n] = all(by_sort[K] for K in sig.sorts
                         if sig.level(K) <= n)
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
    if not f1:
        return 1
    total = 0
    for image in permutations(f2):
        if all(ind_truth_elems(M, K, a, b) for a, b in zip(f1, image)):
            total += 1
    return total
