"""Variables, contexts and the formula AST.

Variables carry their projections structurally: a variable of a dependent
sort embeds the variables it projects to, so dependency closure and
boundary computations need no external table.  Formulas are immutable
trees; atoms and the generated-equivalence node identify their argument
variable only through its boundary, matching the convention that
``R(a) == R(b)`` up to alpha whenever the boundaries agree.
"""

from __future__ import annotations

from types import MappingProxyType

from .errors import FunctorialityError, SortMismatch, UnknownSort
from .sigcore import Arrow, Signature, _term


class _once:
    """``functools.cached_property`` without the lock that Python 3.10
    and 3.11 take on each first read, which ``Ind`` generation, building
    many variables, pays often."""

    def __init__(self, fn):
        self.fn, self.name = fn, fn.__name__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


@_term
class Variable:
    """A typed variable with structural projections.

    ``proj`` assigns a variable to every generating arrow out of ``sort``,
    in declaration order.  Equality is structural, so two occurrences of
    "the same" variable compare equal.  The hash, ``proj_map()``,
    ``dep()`` and ``boundary()`` are computed once per variable.
    """

    name: str
    sort: str
    proj: tuple = ()  # tuple of (generator name, Variable)

    @_once
    def _proj_map(self):
        return MappingProxyType(dict(self.proj))

    def proj_map(self):
        """``proj`` as a read-only mapping, built once per variable."""
        return self._proj_map

    def proj_along(self, path) -> "Variable":
        """The projection along a generator path, first generator first."""
        v = self
        for g in path:
            v = v._proj_map[g]
        return v

    @_once
    def _dep(self):
        out = {self}
        for _, v in self.proj:
            out |= v.dep()
        return frozenset(out)

    @_once
    def _boundary(self):
        return self._dep - {self}

    def dep(self) -> frozenset:
        """dep(x): x together with all its (transitive) projections."""
        return self._dep

    def boundary(self) -> frozenset:
        return self._boundary

    def __repr__(self):
        if not self.proj:
            return f"{self.name}:{self.sort}"
        args = ",".join(v.name for _, v in self.proj)
        return f"{self.name}:{self.sort}({args})"


def mk_var(sig: Signature, name: str, sort: str, fillers=None) -> Variable:
    """Build and validate a variable of ``sort``.

    ``fillers`` maps each generating arrow name out of ``sort`` to an
    already-built variable.  Validation checks sorts and that equal paths
    out of ``sort`` project to the same variable: both sides of each
    declared equation agree at every variable of the dependency closure,
    which is enough for every pair of paths the equations identify.

    Every variable the closure walk checks is then marked valid for
    ``sig`` (it holds ``sig`` itself).  A later walk stops at a marked
    variable, since its own closure holds no broken equation, so it
    rejects exactly what a full walk would, with the same message.  A
    marked variable in ``sig.ind_table`` and ``sig`` form a cycle, which
    the collector frees with the signature.
    """
    if sort not in sig.levels:
        raise UnknownSort(f"unknown sort {sort!r}")
    fillers = fillers or {}
    gens = sig.out_gens(sort)
    proj = []
    for g in gens:
        if g.name not in fillers:
            raise FunctorialityError(
                f"missing filler for position {g.name} of {sort}")
        v = fillers[g.name]
        if v.sort != g.cod:
            raise SortMismatch(
                f"position {g.name} of {sort} needs sort {g.cod}, "
                f"got {v.sort}")
        proj.append((g.name, v))
    if len(fillers) > len(gens):  # each generator has its filler
        extra = set(fillers) - {g.name for g in gens}
        raise FunctorialityError(f"unknown positions for {sort}: {extra}")
    var = Variable(name, sort, tuple(proj))
    # the dependency closure is walked depth-first from var, so the broken
    # equation reported first does not depend on set iteration order
    stack, seen, walked = [var], set(), []
    while stack:
        w = stack.pop()
        if id(w) in seen or w.__dict__.get("_valid_for") is sig:
            continue
        seen.add(id(w))
        walked.append(w)
        for lhs, rhs in sig.equations_at(w.sort):
            if w.proj_along(lhs) != w.proj_along(rhs):
                raise FunctorialityError(
                    f"variable {name}:{sort} breaks equation "
                    f"{'.'.join(lhs)} = {'.'.join(rhs)} at {w.name}")
        stack.extend(v for _, v in w.proj)
    for w in walked:
        w.__dict__["_valid_for"] = sig
    return var


# -- formulas -----------------------------------------------------------

class Formula:
    """Base class for formula nodes; each node computes its free
    variables once, through its class's ``_free_vars``."""

    @_once
    def _fv(self):
        return self._free_vars()

    def free_vars(self) -> frozenset:
        return self._fv

    def _free_vars(self) -> frozenset:
        raise NotImplementedError


@_term
class Top(Formula):
    def _free_vars(self):
        return frozenset()


@_term
class Bottom(Formula):
    def _free_vars(self):
        return frozenset()


@_term
class Atom(Formula):
    """R(a) for a level-1 sort R: sugar for the truncated inhabitation of
    the fiber over the boundary of ``var``."""

    var: Variable

    def _free_vars(self):
        return self.var.boundary()


@_term
class And(Formula):
    args: tuple

    def _free_vars(self):
        return frozenset().union(*(a.free_vars() for a in self.args))


@_term
class Or(Formula):
    args: tuple

    def _free_vars(self):
        return frozenset().union(*(a.free_vars() for a in self.args))


@_term
class Implies(Formula):
    lhs: Formula
    rhs: Formula

    def _free_vars(self):
        return self.lhs.free_vars() | self.rhs.free_vars()


@_term
class Iff(Formula):
    lhs: Formula
    rhs: Formula

    def _free_vars(self):
        return self.lhs.free_vars() | self.rhs.free_vars()


@_term
class Forall(Formula):
    var: Variable
    body: Formula

    def _free_vars(self):
        return (self.body.free_vars() | self.var.boundary()) - {self.var}


@_term
class Exists(Formula):
    var: Variable
    body: Formula
    untruncated: bool = False

    def _free_vars(self):
        return (self.body.free_vars() | self.var.boundary()) - {self.var}


@_term
class Equiv(Formula):
    """Generated-equivalence reference ``K(a) ~= K(b)``.

    ``alpha`` and ``beta`` are variables of sort ``sort`` used only for
    their boundaries; the node expands per the generated three-conjunct
    definition (see isogen.sort_equiv).
    """

    sort: str
    alpha: Variable
    beta: Variable

    def _free_vars(self):
        return self.alpha.boundary() | self.beta.boundary()


def conj(args) -> Formula:
    args = tuple(args)
    if not args:
        return Top()
    if len(args) == 1:
        return args[0]
    return And(args)


# -- dependency order ---------------------------------------------------

def deepest_first(sig: Signature, vars_) -> list:
    """``vars_`` deepest sort first, then by name; ``repr`` orders
    variables that tie there.  A variable's boundary lies in deeper
    sorts, so it comes before the variable."""
    keyed = sorted((((-sig.level(v.sort), v.name), v) for v in vars_),
                   key=lambda kv: kv[0])
    if len({k for k, _ in keyed}) < len(keyed):
        keyed.sort(key=lambda kv: (kv[0], repr(kv[1])))
    return [v for _, v in keyed]


# -- where a variable sits ---------------------------------------------

def seat(sig: Signature, p: Arrow, x: Variable, y: Variable):
    """What x and y put at the position p of ``p.dom`` and at each
    position p∘c that p forces, as ``{position: (x's, y's)}`` with p
    first, or ``None`` when they cannot sit at p: p sends two positions,
    along which x or y projects apart, to one; or x ≠ y and they differ
    below a position that p does not fix, which ``Ind`` fills with one
    variable on both sides, as p itself is when its path has two
    generators or more."""
    if x != y and len(p.path) > 1:
        return None
    side = {p: (x, y)}
    for c in sig.out(x.sort):
        pair = (x.proj_along(c.path), y.proj_along(c.path))
        if side.setdefault(sig.compose(p, c), pair) != pair:
            return None
    return side if all(side[t][0] == side[t][1]
                       for q, below in sig.filling(p.dom) if q not in side
                       for _, t in below if t in side) else None


def compatible_sorts(sig: Signature, x: Variable) -> tuple:
    """The sorts R above x's sort K that have a position of sort K and
    take x at every one: ``seat(sig, q, x, x)`` holds for each q in
    ``hom(R, K)``.  ``Ind`` walks each position where ``seat`` holds, so
    R may tell variables of sort K apart without being listed here:
    fork's R takes x at p2, and at p1 only if x's two points coincide.
    Only ``compat`` reads it."""
    K = x.sort
    return tuple(R for R in sig.sorts if R != K and (hom := sig.hom(R, K))
                 and all(seat(sig, q, x, x) is not None for q in hom))
