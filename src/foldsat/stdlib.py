"""Built-in signatures, the category theory, converters and oracles."""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InvalidCategory, UnknownName
from .finsem import FinStructure, validate_structure
from .sigcore import Signature, validate_signature
from .synkit import And, Atom, Exists, Forall, Implies, mk_var

_RAW_SIGNATURES = {
    # reflexive graphs: identities I -> arrows A -> objects O, d.i = c.i
    "lrg": {
        "sorts": ["O", "A", "I"],
        "arrows": [("d", "A", "O"), ("c", "A", "O"), ("i", "I", "A")],
        "equations": [(("i", "d"), ("i", "c"))],
    },
    # lrg plus an arrow equality  eqA with source/target positions s, t
    "lrg_eq": {
        "sorts": ["O", "A", "I", "eqA"],
        "arrows": [("d", "A", "O"), ("c", "A", "O"), ("i", "I", "A"),
                   ("s", "eqA", "A"), ("t", "eqA", "A")],
        "equations": [(("i", "d"), ("i", "c")),
                      (("s", "d"), ("t", "d")),
                      (("s", "c"), ("t", "c"))],
    },
    # categories: composition comp(t0,t1,t2) with t2 ~ "t1 after t0"
    "lcat": {
        "sorts": ["O", "A", "comp", "I", "eqA"],
        "arrows": [("d", "A", "O"), ("c", "A", "O"),
                   ("t0", "comp", "A"), ("t1", "comp", "A"),
                   ("t2", "comp", "A"),
                   ("i", "I", "A"),
                   ("s", "eqA", "A"), ("t", "eqA", "A")],
        "equations": [(("t0", "d"), ("t2", "d")),
                      (("t1", "c"), ("t2", "c")),
                      (("t1", "d"), ("t0", "c")),
                      (("i", "d"), ("i", "c")),
                      (("s", "d"), ("t", "d")),
                      (("s", "c"), ("t", "c"))],
    },
}

_cache = {}


def builtin_signature(name: str) -> Signature:
    if name not in _RAW_SIGNATURES:
        raise UnknownName(f"unknown builtin signature: {name}")
    if name not in _cache:
        _cache[name] = validate_signature(_RAW_SIGNATURES[name], name=name)
    return _cache[name]


# -- finite categories (oracle-side representation) ---------------------

@dataclass(frozen=True)
class FiniteCategory:
    """Objects, arrows, a composition table and identities.

    ``compose[(f, g)]`` is the composite "g after f".
    """

    name: str
    objects: tuple
    arrows: tuple  # (arrow name, dom, cod)
    compose: dict = field(default_factory=dict)
    identities: dict = field(default_factory=dict)

    def arrow_map(self):
        return {a: (d, c) for a, d, c in self.arrows}

    def hom(self, x, y):
        return tuple(a for a, d, c in self.arrows if d == x and c == y)


def validate_category(C: FiniteCategory) -> None:
    ends = C.arrow_map()
    if len(ends) != len(C.arrows):
        raise InvalidCategory("duplicate arrow names")
    for x in C.objects:
        i = C.identities.get(x)
        if i is None or ends.get(i) != (x, x):
            raise InvalidCategory(f"missing identity at {x!r}")
    for (f, g), h in C.compose.items():
        (fd, fc), (gd, gc) = ends[f], ends[g]
        if fc != gd:
            raise InvalidCategory(f"non-composable pair ({f!r}, {g!r})")
        if ends[h] != (fd, gc):
            raise InvalidCategory(f"composite {h!r} has wrong endpoints")
    for f, fd, fc in C.arrows:
        for g, gd, gc in C.arrows:
            if fc == gd and (f, g) not in C.compose:
                raise InvalidCategory(
                    f"composition undefined on ({f!r}, {g!r})")
    for f, fd, fc in C.arrows:
        if C.compose[(C.identities[fd], f)] != f:
            raise InvalidCategory(f"left unit law fails at {f!r}")
        if C.compose[(f, C.identities[fc])] != f:
            raise InvalidCategory(f"right unit law fails at {f!r}")
    for f, fd, fc in C.arrows:
        for g, gd, gc in C.arrows:
            if fc != gd:
                continue
            for h, hd, hc in C.arrows:
                if gc != hd:
                    continue
                if (C.compose[(C.compose[(f, g)], h)]
                        != C.compose[(f, C.compose[(g, h)])]):
                    raise InvalidCategory(
                        f"associativity fails at ({f!r}, {g!r}, {h!r})")


# -- the theory of categories ------------------------------------------

def _ovar(sig, name):
    return mk_var(sig, name, "O")


def _avar(sig, name, x, y):
    return mk_var(sig, name, "A", {"d": x, "c": y})


def _comp_atom(sig, f, g, h):
    """comp(f, g, h): h is the composite g-after-f."""
    return Atom(mk_var(sig, "m", "comp", {"t0": f, "t1": g, "t2": h}))


def _eq_atom(sig, f, g):
    return Atom(mk_var(sig, "e", "eqA", {"s": f, "t": g}))


def _i_atom(sig, f):
    return Atom(mk_var(sig, "w", "I", {"i": f}))


def _close(phi, *vars_):
    for v in reversed(vars_):
        phi = Forall(v, phi)
    return phi


def tcat_axioms():
    """The relational axioms of the theory of categories over the lcat
    signature, as named closed formulas."""
    sig = builtin_signature("lcat")
    x, y, z, w = (_ovar(sig, n) for n in "xyzw")
    f = _avar(sig, "f", x, y)
    f2 = _avar(sig, "f'", x, y)
    g = _avar(sig, "g", y, z)
    g2 = _avar(sig, "g'", y, z)
    h = _avar(sig, "h", x, z)
    h2 = _avar(sig, "h'", x, z)

    axioms = []

    # E1: reflexivity of arrow equality
    axioms.append(("E1-refl", _close(_eq_atom(sig, f, f), x, y, f)))

    # E2: equality is substitutive in I and in each composition slot
    exx = _avar(sig, "p", x, x)
    exx2 = _avar(sig, "p'", x, x)
    axioms.append(("E2-subst-I", _close(
        Implies(And((_eq_atom(sig, exx, exx2), _i_atom(sig, exx))),
                _i_atom(sig, exx2)),
        x, exx, exx2)))
    axioms.append(("E2-subst-comp-0", _close(
        Implies(And((_eq_atom(sig, f, f2), _comp_atom(sig, f, g, h))),
                _comp_atom(sig, f2, g, h)),
        x, y, z, f, f2, g, h)))
    axioms.append(("E2-subst-comp-1", _close(
        Implies(And((_eq_atom(sig, g, g2), _comp_atom(sig, f, g, h))),
                _comp_atom(sig, f, g2, h)),
        x, y, z, f, g, g2, h)))
    axioms.append(("E2-subst-comp-2", _close(
        Implies(And((_eq_atom(sig, h, h2), _comp_atom(sig, f, g, h))),
                _comp_atom(sig, f, g, h2)),
        x, y, z, f, g, h, h2)))

    # C1: totality of composition
    axioms.append(("C1-total", _close(
        Exists(h, _comp_atom(sig, f, g, h)), x, y, z, f, g)))

    # C2: functionality of composition up to arrow equality
    axioms.append(("C2-functional", _close(
        Implies(And((_comp_atom(sig, f, g, h), _comp_atom(sig, f, g, h2))),
                _eq_atom(sig, h, h2)),
        x, y, z, f, g, h, h2)))

    # C3: associativity in relational form
    k = _avar(sig, "k", z, w)
    gk = _avar(sig, "gk", y, w)
    hw = _avar(sig, "hk", x, w)
    axioms.append(("C3-assoc", _close(
        Implies(And((_comp_atom(sig, f, g, h), _comp_atom(sig, g, k, gk),
                     _comp_atom(sig, h, k, hw))),
                _comp_atom(sig, f, gk, hw)),
        x, y, z, w, f, g, h, k, gk, hw)))

    # I1: existence of identities
    ix = _avar(sig, "ix", x, x)
    axioms.append(("I1-exists", _close(
        Exists(ix, _i_atom(sig, ix)), x)))

    # I2: identities are left and right units
    axioms.append(("I2-left-unit", _close(
        Implies(_i_atom(sig, ix), _comp_atom(sig, ix, f, f)),
        x, y, ix, f)))
    iy = _avar(sig, "iy", y, y)
    axioms.append(("I2-right-unit", _close(
        Implies(_i_atom(sig, iy), _comp_atom(sig, f, iy, f)),
        x, y, iy, f)))

    return axioms


# -- converters ---------------------------------------------------------

def category_to_structure(C: FiniteCategory) -> FinStructure:
    """The lcat-structure of a finite category, with singleton level-1
    fibers exactly where I, arrow equality and composition hold."""
    validate_category(C)
    sig = builtin_signature("lcat")
    ends = C.arrow_map()
    arrows = [a for a, _, _ in C.arrows]
    carriers = {
        "O": list(C.objects),
        "A": arrows,
        "I": [f"i_{x}" for x in C.objects],
        "eqA": [f"e_{a}" for a in arrows],
        "comp": [f"m_{f}_{g}" for (f, g) in sorted(C.compose)],
    }
    maps = {
        "d": {a: ends[a][0] for a in arrows},
        "c": {a: ends[a][1] for a in arrows},
        "i": {f"i_{x}": C.identities[x] for x in C.objects},
        "s": {f"e_{a}": a for a in arrows},
        "t": {f"e_{a}": a for a in arrows},
        "t0": {f"m_{f}_{g}": f for (f, g) in C.compose},
        "t1": {f"m_{f}_{g}": g for (f, g) in C.compose},
        "t2": {f"m_{f}_{g}": C.compose[(f, g)] for (f, g) in C.compose},
    }
    return validate_structure(sig, {"carriers": carriers, "maps": maps})


# -- oracles ------------------------------------------------------------

def categorical_iso_pairs(C: FiniteCategory) -> set:
    """All object pairs joined by a mutually inverse pair of arrows."""
    validate_category(C)
    pairs = set()
    for f, x, y in C.arrows:
        for g, d, c in C.arrows:
            if (d, c) != (y, x):
                continue
            if (C.compose[(f, g)] == C.identities[x]
                    and C.compose[(g, f)] == C.identities[y]):
                pairs.add((x, y))
    return pairs


def is_gaunt(C: FiniteCategory) -> bool:
    """No two distinct isomorphic objects and no nontrivial
    automorphism."""
    validate_category(C)
    iso = categorical_iso_pairs(C)
    if any(x != y for x, y in iso):
        return False
    for f, x, y in C.arrows:
        if x == y and f != C.identities[x]:
            if (x, x) in iso:
                # is f itself invertible?
                for g, d, c in C.arrows:
                    if (d, c) == (x, x) \
                            and C.compose[(f, g)] == C.identities[x] \
                            and C.compose[(g, f)] == C.identities[x]:
                        return False
    return True


# -- the corpus ---------------------------------------------------------

def _poset_category(name, objects, covers):
    """Thin category of a poset given by its order pairs (reflexive and
    transitive closure of covers is taken)."""
    le = {(x, x) for x in objects} | set(covers)
    changed = True
    while changed:
        changed = False
        for (a, b) in list(le):
            for (c, d) in list(le):
                if b == c and (a, d) not in le:
                    le.add((a, d))
                    changed = True
    arrows = tuple((f"u_{x}_{y}" if x != y else f"id_{x}", x, y)
                   for (x, y) in sorted(le))
    names = {(x, y): a for a, x, y in arrows}
    compose = {}
    for (x, y) in le:
        for (y2, z) in le:
            if y == y2:
                compose[(names[(x, y)], names[(y, z)])] = names[(x, z)]
    identities = {x: names[(x, x)] for x in objects}
    return FiniteCategory(name, tuple(objects), arrows, compose,
                          identities)


def corpus_categories() -> dict:
    """The finite categories of the standard corpus."""
    cats = {}
    cats["TermCat"] = FiniteCategory(
        "TermCat", ("*",), (("id", "*", "*"),),
        {("id", "id"): "id"}, {"*": "id"})
    cats["Arrow2"] = _poset_category("Arrow2", ["0", "1"], [("0", "1")])
    cats["Chain3"] = _poset_category("Chain3", ["0", "1", "2"],
                                     [("0", "1"), ("1", "2")])
    cats["WalkIso"] = FiniteCategory(
        "WalkIso", ("a", "b"),
        (("ida", "a", "a"), ("idb", "b", "b"),
         ("u", "a", "b"), ("v", "b", "a")),
        {("ida", "ida"): "ida", ("idb", "idb"): "idb",
         ("ida", "u"): "u", ("u", "idb"): "u",
         ("idb", "v"): "v", ("v", "ida"): "v",
         ("u", "v"): "ida", ("v", "u"): "idb"},
        {"a": "ida", "b": "idb"})
    cats["Z2Cat"] = FiniteCategory(
        "Z2Cat", ("*",), (("e", "*", "*"), ("s", "*", "*")),
        {("e", "e"): "e", ("e", "s"): "s", ("s", "e"): "s",
         ("s", "s"): "e"},
        {"*": "e"})
    for n in (1, 2, 3):
        objs = [f"o{k}" for k in range(n)]
        cats[f"Disc{n}"] = _poset_category(f"Disc{n}", objs, [])
    cats["SquarePoset"] = _poset_category(
        "SquarePoset", ["bot", "l", "r", "top"],
        [("bot", "l"), ("bot", "r"), ("l", "top"), ("r", "top")])
    return cats


def doubled_i_structure() -> FinStructure:
    """TermCat with a duplicated identity witness: a valid structure
    that is not 1-saturated."""
    sig = builtin_signature("lcat")
    return validate_structure(sig, {
        "carriers": {"O": ["*"], "A": ["id"], "I": ["w1", "w2"],
                     "eqA": ["e"], "comp": ["m"]},
        "maps": {"d": {"id": "*"}, "c": {"id": "*"},
                 "i": {"w1": "id", "w2": "id"},
                 "s": {"e": "id"}, "t": {"e": "id"},
                 "t0": {"m": "id"}, "t1": {"m": "id"}, "t2": {"m": "id"}},
    })


def corpus() -> dict:
    """The standard corpus of lcat-structures: every corpus category as
    a structure, plus the doubled-identity-witness variant."""
    out = {name: category_to_structure(C)
           for name, C in corpus_categories().items()}
    out["DoubledI"] = doubled_i_structure()
    return out
