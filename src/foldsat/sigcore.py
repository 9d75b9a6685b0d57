"""Signatures as finite inverse categories.

A signature is given by sorts, generating arrows and path equations.  Its
hom-sets are the generator paths modulo the congruence the declared
equations generate.  One topological order of the sorts serves the cycle
check, the levels and the hom-classes: the classes out of a sort are built
from its generators and the already-built classes of their codomains, so
no generator path is enumerated and hom-sets are exact and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CompositionError, CycleError, NameClashError, UnknownSort

Path = tuple  # tuple of generator names, first-applied generator first


@dataclass(frozen=True)
class Gen:
    """A generating (declared) arrow."""

    name: str
    dom: str
    cod: str


@dataclass(frozen=True, init=False)
class Arrow:
    """A hom-class, represented by its canonical generator path: the least
    member by length, then by the declaration index of each generator.

    The empty path is the identity.  Arrows must be obtained through
    ``Signature.cls``, ``compose``, ``hom`` or ``out`` so that equal paths
    share one representative; equality of ``Arrow`` values then decides
    equality in the category.  The hash is computed once, when the arrow
    is built, since arrows key the signature's tables.
    """

    path: Path
    dom: str
    cod: str

    def __init__(self, path, dom, cod):
        # one write to the instance dict: the generated frozen __init__
        # sets each field through object.__setattr__, which costs more
        # than a stored hash saves on a small signature
        self.__dict__.update(path=path, dom=dom, cod=cod,
                             _hash=hash((path, dom, cod)))

    def __hash__(self):
        return self._hash

    @property
    def is_identity(self) -> bool:
        return not self.path

    @property
    def name(self) -> str:
        return ".".join(self.path) if self.path else f"1_{self.dom}"

    def __repr__(self):
        return f"<{self.name}: {self.dom}->{self.cod}>"


class Signature:
    """A validated finite inverse category.

    Immutable after construction; build instances through
    :func:`validate_signature`.  Besides the hom-classes it owns two
    tables of facts derived from them, each filled on first use, and a
    mark:

    - ``compose``: ``(first, then) -> composite``
    - ``position_groups``: per sort K, for each sort R above K, the
      groups of K's positions that R identifies
    - ``validity_mark``: what ``synkit.mk_var`` leaves on the variables
      it has validated for this signature
    """

    def __init__(self, name, sorts, gens, equations, order, _token=None):
        if _token is not _BUILD_TOKEN:
            raise TypeError("use validate_signature() to build a Signature")
        self.name = name
        self.sorts = tuple(sorts)
        self.gens = tuple(gens)
        self.equations = tuple(equations)
        self._gen_by_name = {g.name: g for g in self.gens}
        self._gen_index = {g.name: i for i, g in enumerate(self.gens)}
        self._out_gens = {s: tuple(g for g in self.gens if g.dom == s)
                          for s in self.sorts}
        self._identity = {s: Arrow((), s, s) for s in self.sorts}
        self._equations_at = {s: [] for s in self.sorts}
        for lhs, rhs in self.equations:
            self._equations_at[self._gen_by_name[lhs[0]].dom].append(
                (lhs, rhs))
        self._compute_levels(order)
        self._build_classes(order)
        self._composite = {}
        self._position_groups = {}
        # a plain object rather than the signature itself, so that marked
        # variables kept in a cache keyed weakly by the signature do not
        # keep it alive
        self.validity_mark = object()

    # -- construction ----------------------------------------------------

    def _compute_levels(self, order):
        """Levels along a topological order (domains before codomains)."""
        levels = dict.fromkeys(order, 1)
        for s in order:
            for g in self.out_gens(s):
                levels[g.cod] = max(levels[g.cod], levels[s] + 1)
        self.levels = levels
        self.height = max(levels.values()) if levels else 1

    def _build_classes(self, order):
        """Hom-classes out of each sort, codomains before domains.

        A class out of ``s`` is a generator ``g: s -> t`` followed by the
        identity or a class ``c`` out of ``t``; ``self._ext[c.path][g]`` is
        that class.  The canonical path of ``c`` determines ``c`` once ``g``
        is known, and ``()`` stands for the identity of ``g``'s codomain.
        Such pairs are merged only by ``lhs.c = rhs.c`` for an equation
        starting at ``s``: any other one-step rewrite acts inside ``c`` and
        is already quotiented there.
        """
        def path_key(p):
            return (len(p), tuple(self._gen_index[g] for g in p))

        sort_index = {s: i for i, s in enumerate(self.sorts)}
        self._ext = {(): {}}
        self._out = {}
        self._hom = {}
        for s in reversed(order):
            pairs = [(g.name, c) for g in self.out_gens(s)
                     for c in (self._identity[g.cod],) + self._out[g.cod]]
            parent = {pair: pair for pair in pairs}

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            for lhs, rhs in self._equations_at[s]:
                t = self._gen_by_name[lhs[-1]].cod
                for c in (self._identity[t],) + self._out[t]:
                    a = (lhs[0], self._fold(lhs[1:], c))
                    b = (rhs[0], self._fold(rhs[1:], c))
                    parent[find(a)] = find(b)
            members = {}
            for pair in pairs:
                members.setdefault(find(pair), []).append(pair)
            arrows = []
            for group in members.values():
                paths = [(g,) + c.path for g, c in group]
                canon = (paths[0] if len(paths) == 1
                         else min(paths, key=path_key))
                arrow = Arrow(canon, s, group[0][1].cod)
                self._ext[canon] = {}
                for g, c in group:
                    self._ext[c.path][g] = arrow
                arrows.append(arrow)
            arrows.sort(key=lambda a: (sort_index[a.cod], path_key(a.path)))
            self._out[s] = tuple(arrows)
            for a in arrows:
                self._hom.setdefault((s, a.cod), []).append(a)
        self._hom = {k: tuple(v) for k, v in self._hom.items()}

    def _fold(self, path, then: Arrow) -> Arrow:
        """The class of ``path`` followed by ``then``."""
        for g in reversed(path):
            then = self._ext[then.path][g]
        return then

    # -- queries ---------------------------------------------------------

    def level(self, sort) -> int:
        if sort not in self.levels:
            raise UnknownSort(f"unknown sort {sort!r}")
        return self.levels[sort]

    def identity(self, sort) -> Arrow:
        if sort not in self.levels:
            raise UnknownSort(f"unknown sort {sort!r}")
        return self._identity[sort]

    def cls(self, path: Path) -> Arrow:
        """Canonical hom-class of a generator path."""
        if not path:
            raise ValueError("empty path needs a sort; use identity()")
        try:
            return self._fold(path[:-1], self._ext[()][path[-1]])
        except KeyError:
            raise UnknownSort(
                f"not a composable path: {'.'.join(path)}") from None

    def compose(self, first: Arrow, then: Arrow) -> Arrow:
        """Composite then∘first (apply ``first``, then ``then``)."""
        key = (first, then)
        arrow = self._composite.get(key)
        if arrow is None:
            if first.cod != then.dom:
                raise CompositionError(
                    f"{first!r} then {then!r} not composable")
            arrow = self._composite[key] = self._fold(first.path, then)
        return arrow

    def hom(self, dom, cod):
        """All arrows dom→cod (including the identity when dom == cod)."""
        for s in (dom, cod):
            if s not in self.levels:
                raise UnknownSort(f"unknown sort {s!r}")
        arrows = self._hom.get((dom, cod), ())
        if dom == cod:
            return (self.identity(dom),) + arrows
        return arrows

    def out(self, sort):
        """All non-identity arrows out of ``sort``, deterministic order."""
        if sort not in self.levels:
            raise UnknownSort(f"unknown sort {sort!r}")
        return self._out[sort]

    def position_groups(self, sort) -> tuple:
        """``(R, groups)`` for each sort R strictly above ``sort``, in
        declaration order: each group lists the positions p of ``sort``
        that some arrow q: R -> sort sends to one composite p∘q, and has
        at least two members."""
        table = self._position_groups.get(sort)
        if table is None:
            lv = self.level(sort)
            # only parallel positions can share a composite
            parallel = {}
            for p in self._out[sort]:
                parallel.setdefault(p.cod, []).append(p)
            parallel = [ps for ps in parallel.values() if len(ps) > 1]
            table = []
            for R in self.sorts:
                if self.levels[R] >= lv:
                    continue
                groups = {}  # insertion-ordered set
                for q in self.hom(R, sort):
                    for ps in parallel:
                        by_composite = {}
                        for p in ps:
                            by_composite.setdefault(self.compose(q, p),
                                                    []).append(p)
                        for group in by_composite.values():
                            if len(group) > 1:
                                groups[tuple(group)] = None
                table.append((R, tuple(groups)))
            table = self._position_groups[sort] = tuple(table)
        return table

    def equations_at(self, sort):
        """The declared equations whose paths start at ``sort``."""
        return self._equations_at[sort]

    def out_gens(self, sort):
        return self._out_gens.get(sort, ())

    def gen(self, name) -> Gen:
        return self._gen_by_name[name]

    def __repr__(self):
        return f"Signature({self.name!r}, {len(self.sorts)} sorts)"


_BUILD_TOKEN = object()


def _topological_order(sorts, gens) -> list:
    """The sorts with every arrow's domain before its codomain (Kahn's
    algorithm); raises :class:`CycleError` when the arrows have a cycle."""
    indegree = {s: 0 for s in sorts}
    targets = {s: [] for s in sorts}
    for g in gens:
        indegree[g.cod] += 1
        targets[g.dom].append(g.cod)
    order = [s for s in sorts if not indegree[s]]
    for s in order:
        for t in targets[s]:
            indegree[t] -= 1
            if not indegree[t]:
                order.append(t)
    if len(order) < len(sorts):
        stuck = next(g for g in gens if indegree[g.dom] and indegree[g.cod])
        raise CycleError(f"cycle through sorts {stuck.dom} -> {stuck.cod}")
    return order


def validate_signature(raw, name="sig") -> Signature:
    """Validate a raw description and build a :class:`Signature`.

    ``raw`` is a mapping with keys ``sorts`` (list of names), ``arrows``
    (list of ``(name, dom, cod)``) and ``equations`` (list of pairs of
    generator-name paths, first-applied generator first).  Raises a
    :class:`~foldsat.errors.SignatureError` carrying a ``diagnostics`` list.
    """
    diags = []
    sorts = list(raw.get("sorts", []))
    seen = set()
    for s in sorts:
        if s in seen:
            diags.append(f"duplicate sort name: {s}")
        seen.add(s)
    gens = []
    gen_names = set()
    for entry in raw.get("arrows", []):
        gname, dom, cod = entry
        if dom not in seen or cod not in seen:
            diags.append(f"dangling arrow {gname}: {dom}->{cod}")
            continue
        # equations, structure maps and paths name a generator alone
        if gname in gen_names or gname in seen:
            diags.append(f"duplicate arrow name: {gname}")
            continue
        gen_names.add(gname)
        gens.append(Gen(gname, dom, cod))
    if diags:
        raise NameClashError("; ".join(diags))

    # inverse check: generator graph on sorts must be a DAG with no loops
    for g in gens:
        if g.dom == g.cod:
            raise CycleError(f"endomorphism arrow {g.name} on sort {g.dom}")
    order = _topological_order(sorts, gens)

    by_name = {g.name: g for g in gens}
    equations = []
    for lhs, rhs in raw.get("equations", []):
        lhs, rhs = tuple(lhs), tuple(rhs)
        for side in (lhs, rhs):
            if not side:
                raise CompositionError("empty path in equation")
            for a in side:
                if a not in by_name:
                    raise NameClashError(f"equation uses undeclared arrow {a}")
            for a, b in zip(side, side[1:]):
                if by_name[a].cod != by_name[b].dom:
                    raise CompositionError(
                        f"non-composable path {'.'.join(side)}")
        if (by_name[lhs[0]].dom != by_name[rhs[0]].dom
                or by_name[lhs[-1]].cod != by_name[rhs[-1]].cod):
            raise CompositionError(
                f"equation relates arrows with mismatched endpoints: "
                f"{'.'.join(lhs)} = {'.'.join(rhs)}")
        equations.append((lhs, rhs))

    sig = Signature(name, sorts, gens, equations, order,
                    _token=_BUILD_TOKEN)

    declared = raw.get("levels")
    if declared:
        for s, lv in declared.items():
            if sig.levels.get(s) != lv:
                raise CompositionError(
                    f"declared level {lv} for sort {s} disagrees with "
                    f"computed level {sig.levels.get(s)}")
    return sig
