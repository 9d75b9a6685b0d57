"""Checks of the paper's lemmas that only the tests use.

They build the objects the lemmas speak about (element-named variables,
boundary pairs, the categorical ``Iso`` and ``Yso`` formulas, the category
read off a model) and decide the properties the lemmas state (hom
naturality, preservation of ``Ind`` along fiberwise surjections, the
expanded equivalence count, equality of formulas up to renaming of bound
variables, the universal closure of a formula).  The tests compare them
with what the package computes.  The lexer that tracks every token's
position as it scans is kept here too, as the oracle of the one in
``foldsat.cli``, and so is the reader of the corpus, the ``corpus/*.str``
files.
"""

import re
from pathlib import Path

from foldsat.errors import FoldsError, ParseError, SortMismatch
from foldsat.finsem import (FinStructure, card_iso_elems, eval_card,
                            satisfies, saturation_profile)
from foldsat.homspan import Hom, is_fibsurj
from foldsat.isogen import sort_equiv, variables_over
from foldsat.cli import parse_formula, parse_structure
from foldsat.stdlib import (FiniteCategory, _invertible, builtin_signature,
                            tcat_axioms, validate_category)
from foldsat.synkit import (And, Atom, Bottom, Equiv, Exists, Forall, Iff,
                            Implies, Or, Top, Variable, deepest_first,
                            mk_var)


class PreconditionViolation(FoldsError):
    """A lemma's hypothesis does not hold of its input."""


class NotAModel(FoldsError):
    """A structure is not a model a category can be read off."""


# -- the corpus ----------------------------------------------------------

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

CORPUS_NAMES = ("TermCat", "Arrow2", "Chain3", "WalkIso", "Z2Cat", "Disc1",
                "Disc2", "Disc3", "SquarePoset", "DoubledI")


def corpus() -> dict:
    """Each ``corpus/<name>.str`` structure, parsed afresh on every call
    over the one built-in lcat signature: the categories of the paper's
    examples, and DoubledI, TermCat with a second identity witness, a
    model of the theory that is not 1-saturated."""
    lcat = builtin_signature("lcat")
    return {name: parse_structure((CORPUS / f"{name}.str").read_text(), lcat)
            for name in CORPUS_NAMES}


def corpus_categories() -> dict:
    """The category read off each corpus structure but DoubledI."""
    return {name: structure_to_category(M) for name, M in corpus().items()
            if name != "DoubledI"}


# -- the lexer with positions -------------------------------------------

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+|\#[^\n]*)
  | (?P<op><->|->|~=|[{}();,:=.&|])
  | (?P<ident>[\w'*]+(?:-[\w'*]+)*)
  | (?P<bad>.)
""", re.VERBOSE)


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind  # "op" | "ident" | "eof"
        self.text = text
        self.line = line
        self.col = col


def lex_with_positions(text):
    """One pass of ``_TOKEN_RE``; every character falls in some group,
    and only whitespace can hold a newline."""
    tokens = []
    line, bol = 1, 0
    for m in _TOKEN_RE.finditer(text):
        kind, s = m.lastgroup, m.group()
        if kind == "ws":
            if "\n" in s:
                line += s.count("\n")
                bol = m.start() + s.rindex("\n") + 1
        elif kind == "bad":
            raise ParseError(f"unexpected character {s!r}", line,
                             m.start() - bol + 1)
        else:
            tokens.append(_Token(kind, s, line, m.start() - bol + 1))
    tokens.append(_Token("eof", "", line, len(text) - bol + 1))
    return tokens


# -- variables over elements ---------------------------------------------

def boundary_of(M: FinStructure, K: str, elem) -> dict:
    """The boundary instance of an element: its image along every
    non-identity hom-class out of K."""
    return {q: M.apply(q.path, elem) for q in M.sig.out(K)}


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


def boundary_pair_context(M: FinStructure, K: str, d1, d2):
    """Two distinct variables of sort K over the element boundaries d1
    and d2 (sharing boundary variables where the elements coincide),
    plus the assignment of their boundary variables."""
    (xt, yt), asg = variables_over(M.sig, K, (d1, d2), ("x*", "y*"))
    return xt, yt, asg


def equiv_card_via_formula(M: FinStructure, K: str, d1, d2) -> int:
    """card of the expanded three-conjunct equivalence formula between
    two fibers; the cross-check partner of equiv_card_via_bijections."""
    xt, yt, asg = boundary_pair_context(M, K, d1, d2)
    phi = sort_equiv(M.sig, K, xt, yt)
    fv = phi.free_vars()
    return eval_card(M, phi, {v: e for v, e in asg.items() if v in fv})

# -- alpha-equivalence --------------------------------------------------

def _var_eq(v: Variable, w: Variable, env: dict) -> bool:
    """Equality of variables modulo the bound-variable pairing ``env``."""
    if v in env:
        return env[v] == w
    if w in set(env.values()):
        return False
    if v.sort != w.sort or v.name != w.name:
        return False
    if len(v.proj) != len(w.proj):
        return False
    return all(g1 == g2 and _var_eq(a, b, env)
               for (g1, a), (g2, b) in zip(v.proj, w.proj))


def _boundary_eq(v: Variable, w: Variable, env: dict) -> bool:
    """Boundaries equal modulo ``env`` (the top name is irrelevant)."""
    if v.sort != w.sort or len(v.proj) != len(w.proj):
        return False
    return all(g1 == g2 and _var_eq(a, b, env)
               for (g1, a), (g2, b) in zip(v.proj, w.proj))


def alpha_eq(phi, psi) -> bool:
    """Equality of formulas up to renaming of bound variables."""

    def rec(f, g, env):
        if type(f) is not type(g):
            return False
        if isinstance(f, (Top, Bottom)):
            return True
        if isinstance(f, Atom):
            return _boundary_eq(f.var, g.var, env)
        if isinstance(f, (And, Or)):
            return (len(f.args) == len(g.args)
                    and all(rec(a, b, env)
                            for a, b in zip(f.args, g.args)))
        if isinstance(f, (Implies, Iff)):
            return rec(f.lhs, g.lhs, env) and rec(f.rhs, g.rhs, env)
        if isinstance(f, Equiv):
            return (f.sort == g.sort
                    and _boundary_eq(f.alpha, g.alpha, env)
                    and _boundary_eq(f.beta, g.beta, env))
        if isinstance(f, (Forall, Exists)):
            if isinstance(f, Exists) and f.untruncated != g.untruncated:
                return False
            if not _boundary_eq(f.var, g.var, env):
                return False
            env2 = dict(env)
            env2[f.var] = g.var
            return rec(f.body, g.body, env2)
        raise TypeError(f"unknown node {f!r}")

    return rec(phi, psi, {})


# -- universal closure --------------------------------------------------

def universal_closure(sig, phi, vars_):
    """Forall-quantify ``vars_`` in dependency order (variables with deeper
    boundaries innermost)."""
    out = phi
    for v in reversed(deepest_first(sig, vars_)):
        out = Forall(v, out)
    return out


# -- homomorphisms ------------------------------------------------------

def compose_homs(h1: Hom, h2: Hom) -> Hom:
    """h2 after h1."""
    if h1.dst is not h2.src:
        raise SortMismatch("homomorphisms are not composable")
    return Hom(h1.src, h2.dst,
               {K: {e: h2.maps[K][h1.maps[K][e]]
                    for e in h1.src.carrier(K)}
                for K in h1.src.sig.sorts})


def is_hom(M: FinStructure, N: FinStructure, maps) -> bool:
    """Totality plus naturality with every generating arrow."""
    sig = M.sig
    if set(maps) != set(sig.sorts):
        return False
    for K in sig.sorts:
        tgt = set(N.carrier(K))
        for e in M.carrier(K):
            if e not in maps[K] or maps[K][e] not in tgt:
                return False
    for g in sig.gens:
        for e in M.carrier(g.dom):
            if maps[g.cod][M.apply_gen(g.name, e)] \
                    != N.apply_gen(g.name, maps[g.dom][e]):
                return False
    return True


def check_ind_preservation(h: Hom, level: int) -> dict:
    """Indistinguishability along a fiberwise surjection.

    level 2: truth of Ind is preserved and reflected on all pairs of
    level-2 elements.  level 3: witness counts of the isomorphism
    formula match on all pairs of level-3 elements; requires totally
    saturated endpoints.
    """
    if not is_fibsurj(h):
        raise PreconditionViolation("homomorphism is not fiberwise "
                                    "surjective")
    if level == 3 and not (saturation_profile(h.src)["total"]
                           and saturation_profile(h.dst)["total"]):
        raise PreconditionViolation(
            "both endpoints must be totally saturated")
    violations = []
    for K in h.src.sig.sorts:
        if h.src.sig.level(K) != level:
            continue
        elems = h.src.carrier(K)
        for a in elems:
            for b in elems:
                if level == 2:
                    got = card_iso_elems(h.src, K, a, b) > 0
                    want = card_iso_elems(h.dst, K, h.maps[K][a],
                                          h.maps[K][b]) > 0
                    equal = got == want
                else:
                    equal = (card_iso_elems(h.src, K, a, b)
                             == card_iso_elems(h.dst, K, h.maps[K][a],
                                               h.maps[K][b]))
                if not equal:
                    violations.append({"sort": K, "pair": (a, b)})
    return {"ok": not violations, "violations": violations}

# -- the category theory ------------------------------------------------

def iso_formula_cat(x: Variable, y: Variable):
    """Iso(x, y): mutually inverse arrows, with the composites equal to
    identity arrows via I and arrow equality."""
    a, b = x.name, y.name
    return parse_formula(
        f"exists f:A({a},{b}). exists g:A({b},{a}). exists gf:A({a},{a}). "
        f"exists fg:A({b},{b}). exists ix:A({a},{a}). exists iy:A({b},{b}). "
        "comp(f,g,gf) & comp(g,f,fg) & I(ix) & I(iy) & eqA(gf,ix) & "
        "eqA(fg,iy)", builtin_signature("lcat"), {a: x, b: y})


def yso_formula(x: Variable, y: Variable):
    """Yso(x, y): the representable fibers over x and y are equivalent,
    uniformly in the probing object."""
    sig = builtin_signature("lcat")
    z = mk_var(sig, "z", "O")
    alpha = Variable("h", "A", (("d", z), ("c", x)))
    beta = Variable("k", "A", (("d", z), ("c", y)))
    return Forall(z, Equiv("A", alpha, beta))


def structure_to_category(M: FinStructure):
    """Read a finite category off a 1-saturated model of the theory."""
    ok, report = satisfies(M, tcat_axioms())
    if not ok:
        failed = [r["axiom"] for r in report if not r["ok"]]
        raise NotAModel(f"theory fails: {', '.join(failed)}")
    if not saturation_profile(M)[1]:
        raise NotAModel("structure is not 1-saturated")
    objects = tuple(M.carrier("O"))
    arrows = tuple((a, M.apply_gen("d", a), M.apply_gen("c", a))
                   for a in M.carrier("A"))
    identities = {}
    for w in M.carrier("I"):
        a = M.apply_gen("i", w)
        identities[M.apply_gen("d", a)] = a
    compose = {}
    for m in M.carrier("comp"):
        compose[(M.apply_gen("t0", m), M.apply_gen("t1", m))] = \
            M.apply_gen("t2", m)
    C = FiniteCategory("from_structure", objects, arrows, compose,
                       identities)
    validate_category(C)
    return C


def categorical_iso_pairs(C: FiniteCategory) -> set:
    """All object pairs joined by a mutually inverse pair of arrows."""
    return {(x, y) for _, x, y in _invertible(C)}
