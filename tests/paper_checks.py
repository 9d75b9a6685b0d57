"""Checks of the paper's lemmas that only the tests use.

They build the objects the lemmas speak about (element-named variables,
boundary pairs, the categorical ``Iso`` and ``Yso`` formulas, the category
read off a model) and decide the properties the lemmas state (hom
naturality, sections, preservation of ``Ind`` along fiberwise
surjections, the expanded equivalence count).  The tests compare them
with what the package computes.
"""

from foldsat.errors import NotAModel, PreconditionViolation, SortMismatch
from foldsat.finsem import (FinStructure, _pair_by_position, card_iso_elems,
                            eval_card, ind_truth_elems, satisfies,
                            saturation_profile)
from foldsat.homspan import Hom, is_fibsurj
from foldsat.isogen import sort_equiv
from foldsat.cli import parse_formula
from foldsat.stdlib import (FiniteCategory, builtin_signature, tcat_axioms,
                            validate_category)
from foldsat.synkit import Equiv, Forall, Variable, mk_var


# -- variables over elements ---------------------------------------------

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
    sig = M.sig

    def over(delta):
        return {g.name: delta[sig.cls((g.name,))] for g in sig.out_gens(K)}

    xt, yt, asg = _pair_by_position(M, K, over(d1), over(d2))
    for v in (xt, yt):
        mk_var(sig, v.name, K, v.proj_map())
    return xt, yt, asg


def equiv_card_via_formula(M: FinStructure, K: str, d1, d2) -> int:
    """card of the expanded three-conjunct equivalence formula between
    two fibers; the cross-check partner of equiv_card_via_bijections."""
    xt, yt, asg = boundary_pair_context(M, K, d1, d2)
    phi = sort_equiv(M.sig, K, xt, yt)
    fv = phi.free_vars()
    return eval_card(M, phi, {v: e for v, e in asg.items() if v in fv})

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


def verify_sections(h: Hom, sections) -> bool:
    """map after section is the identity on every target fiber."""
    for (K, _), table in sections.items():
        for b, a in table.items():
            if h.apply(K, a) != b:
                return False
    return True


def check_ind_preservation(h: Hom, level: int) -> dict:
    """Indistinguishability along a fiberwise surjection.

    level 2: truth of Ind is preserved and reflected on all pairs of
    level-2 elements.  level 3: witness counts of the isomorphism
    formula match on all pairs of level-3 elements; requires totally
    saturated endpoints.
    """
    ok, _ = is_fibsurj(h)
    if not ok:
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
                    got = ind_truth_elems(h.src, K, a, b)
                    want = ind_truth_elems(h.dst, K, h.apply(K, a),
                                           h.apply(K, b))
                    equal = got == want
                else:
                    equal = (card_iso_elems(h.src, K, a, b)
                             == card_iso_elems(h.dst, K, h.apply(K, a),
                                               h.apply(K, b)))
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
