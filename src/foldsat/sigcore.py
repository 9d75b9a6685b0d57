"""Signatures as finite inverse categories.

A signature is given by sorts, generating arrows and path equations.  Its
hom-sets are the generator paths modulo the congruence the declared
equations generate.  One topological order of the sorts serves the cycle
check, the levels and the hom-classes: the classes out of a sort are built
from its generators and the already-built classes of their codomains, so
no generator path is enumerated and hom-sets are exact and deterministic.
The signature also owns the walk over a sort's boundary: its fill order
lists the positions out of a sort deepest codomain first, each with the
positions its generators reach, and every routine that fills or checks
a boundary reads it.
"""

from __future__ import annotations

from .errors import CompositionError, CycleError, NameClashError, UnknownSort

Path = tuple  # tuple of generator names, first-applied generator first


class _factory:
    """A field default made afresh for each instance, as
    ``dataclasses.field(default_factory=make)`` makes it."""

    def __init__(self, make):
        self.make = make


def _term(cls=None, *, stored_hash=True):
    """A frozen value class with the constructor, equality, repr and
    hash of a frozen dataclass, written without ``dataclasses``, whose
    code generation would cost every import of the package.

    The fields are the class's own annotations, in order, recorded in
    ``_fields``; a field's default is the class attribute of its name,
    and a ``_factory`` default is made afresh for each instance.
    ``__init__`` and ``__eq__``, which the evaluator and the searches
    call most, are generated in one ``exec`` per class; ``__repr__``,
    unless the class defines its own, reads ``_fields``.  By default
    ``__init__`` also computes the structural hash, once: ``Arrow``,
    ``Gen`` and ``synkit``'s variables and formula nodes key tables,
    and a node's hash reads its children's stored hashes.  Records that
    hold dicts (``stored_hash=False``) hash their fields when asked,
    which fails as a dataclass's hash fails."""
    if cls is None:
        return lambda cls: _term(cls, stored_hash=stored_hash)
    names = tuple(cls.__dict__.get("__annotations__", ()))
    made = [n for n in names if isinstance(cls.__dict__.get(n), _factory)]
    ns = {f"_{n}": cls.__dict__[n] for n in made}
    mine, theirs = ("".join(f"{who}.{n}, " for n in names)
                    for who in ("self", "other"))
    update = "".join(f"{n}={n}, " for n in names)
    if stored_hash:
        update += f"_hash=hash(({''.join(f'{n}, ' for n in names)}))"
    exec("\n".join([
        f"def __init__(self, {', '.join(names)}):",
        *(f"    if {n} is _{n}: {n} = _{n}.make()" for n in made),
        f"    self.__dict__.update({update})",
        "def __eq__(self, other):",
        "    if other.__class__ is self.__class__:",
        f"        return ({mine}) == ({theirs})",
        "    return NotImplemented"]), ns)
    ns["__init__"].__defaults__ = tuple(
        cls.__dict__[n] for n in names if n in cls.__dict__)
    cls.__init__, cls.__eq__ = ns["__init__"], ns["__eq__"]
    cls.__hash__ = _stored_hash if stored_hash else _fields_hash
    if "__repr__" not in cls.__dict__:
        cls.__repr__ = _fields_repr
    cls.__setattr__, cls.__delattr__ = _no_setattr, _no_delattr
    cls._fields = names
    return cls


def _stored_hash(term):
    return term._hash


def _fields_hash(term):
    return hash(tuple(getattr(term, n) for n in term._fields))


def _fields_repr(term):
    shown = ", ".join(f"{n}={getattr(term, n)!r}" for n in term._fields)
    return f"{type(term).__qualname__}({shown})"


def _no_setattr(term, name, value):
    from dataclasses import FrozenInstanceError  # only on this error path
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _no_delattr(term, name):
    from dataclasses import FrozenInstanceError
    raise FrozenInstanceError(f"cannot delete field {name!r}")


@_term
class Gen:
    """A generating (declared) arrow."""

    name: str
    dom: str
    cod: str


@_term
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

    @property
    def name(self) -> str:
        return ".".join(self.path) if self.path else f"1_{self.dom}"

    def __repr__(self):
        return f"<{self.name}: {self.dom}->{self.cod}>"


class Signature:
    """A validated finite inverse category.

    Immutable after construction; build instances through
    :func:`validate_signature`, which builds the levels.  The hom-classes
    (``_ext`` and ``_out``, see ``_build_classes``) are built when
    ``cls``, ``compose``, ``hom`` or ``out`` first needs them, so a
    command that reads only names and levels never builds them.  The
    signature owns two more tables of facts derived from them, each
    filled on first use:

    - ``filling``: per sort K, the positions out of K in fill order,
      each with its generator images as positions of K
    - ``ind_table``: ``(x, y) ->`` Ind(x, y)'s conjuncts, as far as they
      are generated; only ``isogen.ind_conjuncts`` fills it, and every
      structure over the signature shares it
    """

    def __init__(self, name, sorts, gens, equations, order, _token=None):
        if _token is not _BUILD_TOKEN:
            raise TypeError("use validate_signature() to build a Signature")
        self.name = name
        self.sorts = tuple(sorts)
        self.gens = tuple(gens)
        self.equations = tuple(equations)
        self._gen_by_name = {g.name: g for g in self.gens}
        self._out_gens = {s: tuple(g for g in self.gens if g.dom == s)
                          for s in self.sorts}
        self._identity = {s: Arrow((), s, s) for s in self.sorts}
        self._equations_at = {s: [] for s in self.sorts}
        for lhs, rhs in self.equations:
            self._equations_at[self._gen_by_name[lhs[0]].dom].append(
                (lhs, rhs))
        self._compute_levels(order)
        self._order = order
        self._ext = self._out = None  # see _build_classes
        self._filling = {}
        self.ind_table = {}

    # -- construction ----------------------------------------------------

    def _compute_levels(self, order):
        """Levels along a topological order (domains before codomains)."""
        levels = dict.fromkeys(order, 1)
        for s in order:
            for g in self.out_gens(s):
                levels[g.cod] = max(levels[g.cod], levels[s] + 1)
        self.levels = levels
        self.height = max(levels.values()) if levels else 1

    def _build_classes(self):
        """Hom-classes out of each sort, codomains before domains, along
        the topological order that validation found.

        A class out of ``s`` is a generator ``g: s -> t`` followed by the
        identity or a class ``c`` out of ``t``; ``self._ext[c.path][g]`` is
        that class.  The canonical path of ``c`` determines ``c`` once ``g``
        is known, and ``()`` stands for the identity of ``g``'s codomain.
        Such pairs are merged only by ``lhs.c = rhs.c`` for an equation
        starting at ``s``: any other one-step rewrite acts inside ``c`` and
        is already quotiented there.  The union-find runs over the pairs'
        indexes, found by ``(g, c.path)``; a pair's order key is ``c``'s
        with ``g``'s index put in front.  Building raises nothing: the
        equations were checked when the signature was validated.
        """
        sort_index = {s: i for i, s in enumerate(self.sorts)}
        gen_index = {g.name: i for i, g in enumerate(self.gens)}
        key = {(): (0, ())}  # canonical path -> (length, generator indexes)
        self._ext = {(): {}}
        self._out = {}
        for s in reversed(self._order):
            pairs = [(g.name, c) for g in self.out_gens(s)
                     for c in (self._identity[g.cod],) + self._out[g.cod]]
            slot = {(g, c.path): i for i, (g, c) in enumerate(pairs)}
            parent = list(range(len(pairs)))

            def find(i):
                while parent[i] != i:
                    parent[i] = parent[parent[i]]
                    i = parent[i]
                return i

            for lhs, rhs in self._equations_at[s]:
                t = self._gen_by_name[lhs[-1]].cod
                for c in (self._identity[t],) + self._out[t]:
                    a = slot[lhs[0], self._fold(lhs[1:], c).path]
                    b = slot[rhs[0], self._fold(rhs[1:], c).path]
                    parent[find(a)] = find(b)
            members = {}
            for i, (g, c) in enumerate(pairs):
                n, idx = key[c.path]
                members.setdefault(find(i), []).append(
                    ((n + 1, (gen_index[g],) + idx), g, c))
            arrows = []
            for group in members.values():
                # keys differ within a group, so min never compares g or c
                k, g, c = min(group)
                canon = (g,) + c.path
                key[canon] = k
                arrow = Arrow(canon, s, c.cod)
                self._ext[canon] = {}
                for _, g, c in group:
                    self._ext[c.path][g] = arrow
                arrows.append(arrow)
            arrows.sort(key=lambda a: (sort_index[a.cod], key[a.path]))
            self._out[s] = tuple(arrows)

    def _fold(self, path, then: Arrow) -> Arrow:
        """The class of ``path`` followed by ``then``."""
        if self._ext is None:
            self._build_classes()
        ext = self._ext
        for g in reversed(path):
            then = ext[then.path][g]
        return then

    # -- queries ---------------------------------------------------------

    def level(self, sort) -> int:
        if sort not in self.levels:
            raise UnknownSort(f"unknown sort {sort!r}")
        return self.levels[sort]

    def cls(self, path: Path) -> Arrow:
        """Canonical hom-class of a generator path."""
        if not path:
            raise ValueError("empty path needs a sort; use hom(s, s)[0]")
        if self._ext is None:
            self._build_classes()
        try:
            return self._fold(path[:-1], self._ext[()][path[-1]])
        except KeyError:
            raise UnknownSort(
                f"not a composable path: {'.'.join(path)}") from None

    def compose(self, first: Arrow, then: Arrow) -> Arrow:
        """Composite then∘first (apply ``first``, then ``then``)."""
        if first.cod != then.dom:
            raise CompositionError(f"{first!r} then {then!r} not composable")
        return self._fold(first.path, then)

    def hom(self, dom, cod):
        """All arrows dom→cod, in ``out`` order after the identity when
        dom == cod."""
        for s in (dom, cod):
            if s not in self.levels:
                raise UnknownSort(f"unknown sort {s!r}")
        ident = (self._identity[dom],) if dom == cod else ()
        return ident + tuple(a for a in self.out(dom) if a.cod == cod)

    def out(self, sort):
        """All non-identity arrows out of ``sort``, deterministic order."""
        if sort not in self.levels:
            raise UnknownSort(f"unknown sort {sort!r}")
        if self._out is None:
            self._build_classes()
        return self._out[sort]

    def filling(self, sort) -> tuple:
        """``(q, ((g, q∘g), ...))`` for each position q out of ``sort``,
        deepest codomain first and in ``out`` order within a level, with
        one pair for each generator g out of q's codomain.  Every q∘g is
        deeper than q, so it comes earlier: filling a boundary in this
        order, the images an element at q must have are already
        chosen."""
        table = self._filling.get(sort)
        if table is None:
            # a stable sort: out(sort) order breaks ties in level
            order = sorted(self.out(sort),
                           key=lambda q: -self.levels[q.cod])
            table = self._filling[sort] = tuple(
                (q, tuple((g.name, self.compose(q, self.cls((g.name,))))
                          for g in self._out_gens[q.cod]))
                for q in order)
        return table

    def equations_at(self, sort):
        """The declared equations whose paths start at ``sort``."""
        return self._equations_at[sort]

    def out_gens(self, sort):
        return self._out_gens.get(sort, ())

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
    :class:`~foldsat.errors.SignatureError`: a ``NameClashError``,
    ``CycleError`` or ``CompositionError``.
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

    return Signature(name, sorts, gens, equations, order,
                     _token=_BUILD_TOKEN)
