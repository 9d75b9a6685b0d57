"""Built-in signatures, the category theory, finite categories and the
lcat-structure of one.

The built-in signatures and the theory of categories are written in the
``.folds`` and ``.thy`` formats of :mod:`foldsat.cli`, and parsed from
that text.  The corpus of example structures is not kept here: it is
the ``corpus/*.str`` files, which the tests and the CLI examples read.
"""

from __future__ import annotations

from .errors import InvalidCategory, UnknownName
from .sigcore import Signature, _term

_SIGNATURE_TEXTS = {
    "lrg": """
signature lrg {
  # reflexive graphs: identities I -> arrows A -> objects O
  sort O;
  sort A { d: O, c: O };
  sort I { i: A } eq { i.d = i.c };
}""",
    "lrg_eq": """
signature lrg_eq {
  # lrg plus an arrow equality eqA with source/target positions s, t
  sort O;
  sort A { d: O, c: O };
  sort I { i: A } eq { i.d = i.c };
  sort eqA { s: A, t: A } eq { s.d = t.d; s.c = t.c };
}""",
    "lcat": """
signature lcat {
  # categories: comp(t0, t1, t2) says that t2 is "t1 after t0"
  sort O;
  sort A { d: O, c: O };
  sort comp { t0: A, t1: A, t2: A }
    eq { t0.d = t2.d; t1.c = t2.c; t1.d = t0.c };
  sort I { i: A } eq { i.d = i.c };
  sort eqA { s: A, t: A } eq { s.d = t.d; s.c = t.c };
}""",
}

_cache = {}


def builtin_signature(name: str) -> Signature:
    if name not in _SIGNATURE_TEXTS:
        raise UnknownName(f"unknown builtin signature: {name}")
    if name not in _cache:
        # imported here so that importing the package leaves foldsat.cli
        # unimported, which `python -m foldsat.cli` needs to run cleanly
        from .cli import parse_signature
        _cache[name] = parse_signature(_SIGNATURE_TEXTS[name])
    return _cache[name]


# -- finite categories (oracle-side representation) ---------------------

@_term(stored_hash=False)
class FiniteCategory:
    """Objects, arrows, a composition table and identities.

    ``compose[(f, g)]`` is the composite "g after f".
    """

    name: str
    objects: tuple
    arrows: tuple  # (arrow name, dom, cod)
    compose: dict
    identities: dict

    def arrow_map(self):
        return {a: (d, c) for a, d, c in self.arrows}


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

_TCAT_TEXT = """
theory tcat over lcat {
  # arrow equality is reflexive
  axiom E1-refl: forall x:O. forall y:O. forall f:A(x,y). eqA(f,f);
  # and substitutive in I and in each composition slot
  axiom E2-subst-I: forall x:O. forall p:A(x,x). forall p':A(x,x).
    eqA(p,p') & I(p) -> I(p');
  axiom E2-subst-comp-0: forall x:O. forall y:O. forall z:O.
    forall f:A(x,y). forall f':A(x,y). forall g:A(y,z). forall h:A(x,z).
    eqA(f,f') & comp(f,g,h) -> comp(f',g,h);
  axiom E2-subst-comp-1: forall x:O. forall y:O. forall z:O.
    forall f:A(x,y). forall g:A(y,z). forall g':A(y,z). forall h:A(x,z).
    eqA(g,g') & comp(f,g,h) -> comp(f,g',h);
  axiom E2-subst-comp-2: forall x:O. forall y:O. forall z:O.
    forall f:A(x,y). forall g:A(y,z). forall h:A(x,z). forall h':A(x,z).
    eqA(h,h') & comp(f,g,h) -> comp(f,g,h');
  # composition is total, and functional up to arrow equality
  axiom C1-total: forall x:O. forall y:O. forall z:O.
    forall f:A(x,y). forall g:A(y,z). exists h:A(x,z). comp(f,g,h);
  axiom C2-functional: forall x:O. forall y:O. forall z:O.
    forall f:A(x,y). forall g:A(y,z). forall h:A(x,z). forall h':A(x,z).
    comp(f,g,h) & comp(f,g,h') -> eqA(h,h');
  # associativity in relational form
  axiom C3-assoc: forall x:O. forall y:O. forall z:O. forall w:O.
    forall f:A(x,y). forall g:A(y,z). forall h:A(x,z). forall k:A(z,w).
    forall gk:A(y,w). forall hk:A(x,w).
    comp(f,g,h) & comp(g,k,gk) & comp(h,k,hk) -> comp(f,gk,hk);
  # every object has an identity, and identities are units
  axiom I1-exists: forall x:O. exists ix:A(x,x). I(ix);
  axiom I2-left-unit: forall x:O. forall y:O. forall ix:A(x,x).
    forall f:A(x,y). I(ix) -> comp(ix,f,f);
  axiom I2-right-unit: forall x:O. forall y:O. forall iy:A(y,y).
    forall f:A(x,y). I(iy) -> comp(f,iy,f);
}"""


def tcat_axioms():
    """The relational axioms of the theory of categories over the lcat
    signature, as named closed formulas."""
    from .cli import parse_theory
    return parse_theory(_TCAT_TEXT, builtin_signature("lcat"))


# -- converters ---------------------------------------------------------

def category_to_structure(C: FiniteCategory):
    """The lcat-structure of a finite category, with singleton level-1
    fibers exactly where I, arrow equality and composition hold."""
    # imported here, so that builtin_signature does not load finsem
    from .finsem import validate_structure
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

def _invertible(C: FiniteCategory) -> list:
    """The arrows ``(f, x, y)`` of C that have an inverse, C validated."""
    validate_category(C)
    return [(f, x, y) for f, x, y in C.arrows
            if any((d, c) == (y, x) and C.compose[(f, g)] == C.identities[x]
                   and C.compose[(g, f)] == C.identities[y]
                   for g, d, c in C.arrows)]


def is_gaunt(C: FiniteCategory) -> bool:
    """No two distinct isomorphic objects and no nontrivial
    automorphism: every invertible arrow is an identity."""
    return all(f == C.identities[x] for f, x, _ in _invertible(C))


# -- posets -------------------------------------------------------------

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
