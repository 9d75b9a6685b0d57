import itertools

import pytest

from foldsat.errors import InvalidCategory, UnknownName
from foldsat.finsem import (card_iso_elems, eval_card, eval_prop, fiber,
                            boundary_instances, satisfies,
                            saturation_profile, validate_structure)
from foldsat.stdlib import (FiniteCategory, builtin_signature,
                            category_to_structure, is_gaunt, tcat_axioms,
                            validate_category)
from foldsat.synkit import Variable, mk_var
from paper_checks import (NotAModel, categorical_iso_pairs, corpus,
                          corpus_categories, element_variable,
                          iso_formula_cat, structure_to_category,
                          yso_formula)


@pytest.fixture(scope="module")
def cats():
    return corpus_categories()


@pytest.fixture(scope="module")
def models():
    return corpus()


@pytest.fixture(scope="module")
def lcat():
    return builtin_signature("lcat")


# -- builtin signatures -------------------------------------------------

def test_builtin_levels():
    lrg = builtin_signature("lrg")
    assert lrg.levels == {"I": 1, "A": 2, "O": 3}
    lcat = builtin_signature("lcat")
    assert lcat.levels == {"I": 1, "eqA": 1, "comp": 1, "A": 2, "O": 3}
    assert lrg.height == lcat.height == 3


def test_builtin_unknown_name():
    with pytest.raises(UnknownName):
        builtin_signature("nope")


# -- finite categories --------------------------------------------------

def test_validate_category_rejects_missing_identity():
    C = FiniteCategory("bad", ("x",), (("f", "x", "x"),),
                       {("f", "f"): "f"}, {})
    with pytest.raises(InvalidCategory):
        validate_category(C)


def test_validate_category_rejects_partial_composition():
    C = FiniteCategory("bad", ("x",), (("id", "x", "x"), ("f", "x", "x")),
                       {("id", "id"): "id", ("id", "f"): "f",
                        ("f", "id"): "f"},
                       {"x": "id"})
    with pytest.raises(InvalidCategory):
        validate_category(C)


# -- theory -------------------------------------------------------------

def test_corpus_satisfies_tcat(cats, models):
    theory = tcat_axioms()
    for name in cats:
        ok, report = satisfies(models[name], theory)
        assert ok, (name, [r for r in report if not r["ok"]])


def test_doubled_i_satisfies_tcat(models):
    ok, _ = satisfies(models["DoubledI"], tcat_axioms())
    assert ok


def test_dropping_composite_falsifies_totality(lcat, models):
    M = models["WalkIso"]
    carriers = {K: [e for e in M.carrier(K) if e != "m_u_v"]
                for K in lcat.sorts}
    maps = {g.name: {e: v for e, v in M.maps[g.name].items()
                     if e != "m_u_v"}
            for g in lcat.gens}
    broken = validate_structure(lcat, {"carriers": carriers, "maps": maps})
    ok, report = satisfies(broken, tcat_axioms())
    assert not ok
    failed = {r["axiom"] for r in report if not r["ok"]}
    assert "C1-total" in failed


# -- Iso and Yso --------------------------------------------------------

def _object_vars(lcat):
    return mk_var(lcat, "x", "O"), mk_var(lcat, "y", "O")


def test_iso_formula_walkiso(lcat, models):
    x, y = _object_vars(lcat)
    phi = iso_formula_cat(x, y)
    M = models["WalkIso"]
    assert eval_prop(M, phi, {x: "a", y: "b"})
    assert eval_prop(M, phi, {x: "a", y: "a"})


def test_iso_formula_arrow2(lcat, models):
    x, y = _object_vars(lcat)
    phi = iso_formula_cat(x, y)
    M = models["Arrow2"]
    assert not eval_prop(M, phi, {x: "0", y: "1"})
    assert eval_prop(M, phi, {x: "0", y: "0"})


def test_generated_iso_matches_oracle(lcat, cats, models):
    x, y = _object_vars(lcat)
    iso = iso_formula_cat(x, y)
    yso = yso_formula(x, y)
    for name, C in cats.items():
        M = models[name]
        oracle = categorical_iso_pairs(C)
        for a in M.carrier("O"):
            for b in M.carrier("O"):
                want = (a, b) in oracle
                assert eval_prop(M, iso, {x: a, y: b}) == want, (name, a, b)
                assert (card_iso_elems(M, "O", a, b) >= 1) == want, \
                    (name, a, b)
                assert eval_prop(M, yso, {x: a, y: b}) == want, (name, a, b)


# -- converters ---------------------------------------------------------

def test_roundtrip_categories(models):
    """Every corpus structure but DoubledI is the structure of the
    category read off it, carriers and maps in order: the categories the
    tests read off the corpus are its categories."""
    def listed(M):
        return ([(K, list(es)) for K, es in M.carriers.items()],
                [(g, list(m.items())) for g, m in M.maps.items()])

    for name, M in models.items():
        if name != "DoubledI":
            back = category_to_structure(structure_to_category(M))
            assert listed(back) == listed(M), name


def test_singleton_level_one_fibers(cats, models):
    for name, C in cats.items():
        M = models[name]
        for K in ("I", "eqA", "comp"):
            for d in boundary_instances(M, K):
                assert len(fiber(M, K, d)) <= 1


def test_structure_to_category_rejects_doubled_i():
    with pytest.raises(NotAModel):
        structure_to_category(corpus()["DoubledI"])


# -- oracles ------------------------------------------------------------

def test_iso_pairs_examples(cats):
    assert categorical_iso_pairs(cats["WalkIso"]) == {
        ("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")}
    assert categorical_iso_pairs(cats["Arrow2"]) == {("0", "0"), ("1", "1")}
    assert categorical_iso_pairs(cats["TermCat"]) == {("*", "*")}


def test_gaunt_examples(cats):
    assert is_gaunt(cats["Arrow2"])
    assert not is_gaunt(cats["Z2Cat"])
    assert not is_gaunt(cats["WalkIso"])
    assert is_gaunt(cats["SquarePoset"])


def test_total_saturation_iff_gaunt(cats, models):
    for name, C in cats.items():
        assert is_gaunt(C) == saturation_profile(models[name])["total"], name


def test_one_saturated_implies_two_saturated(cats, models):
    for name in cats:
        p = saturation_profile(models[name])
        if p[1]:
            assert p[2], name


# -- naturality of hom-fiber bijections ---------------------------------

def _hom_fibers(C, M, xe):
    """Per probing object z, the A-fiber over (z, xe)."""
    sig = M.sig
    out = {}
    for z in M.carrier("O"):
        out[z] = fiber(M, "A", {sig.cls(("d",)): z, sig.cls(("c",)): xe})
    return out


def _bijection_families(C, M, xe, ye):
    fx, fy = _hom_fibers(C, M, xe), _hom_fibers(C, M, ye)
    if any(len(fx[z]) != len(fy[z]) for z in fx):
        return
    objs = list(fx)
    pools = [itertools.permutations(fy[z]) for z in objs]
    for images in itertools.product(*pools):
        yield {z: dict(zip(fx[z], img)) for z, img in zip(objs, images)}


def _natural(C, alpha):
    ends = C.arrow_map()
    for z, table in alpha.items():
        for h, ah in table.items():
            for g, gd, gc in C.arrows:
                if gc != z:
                    continue
                if alpha[gd][C.compose[(g, h)]] != C.compose[(g, ah)]:
                    return False
    return True


def _ind_var_truth(M, xe, ye, h, k):
    """Truth of Ind(h, k) with the two objects kept formally distinct."""
    from foldsat.isogen import ind
    sig = M.sig
    cache = {}
    z = element_variable(M, "O", M.apply_gen("d", h), cache)
    xv = Variable("xo", "O")
    yv = Variable("yo", "O")
    hv = Variable("h*", "A", (("d", z), ("c", xv)))
    kv = Variable("k*", "A", (("d", z), ("c", yv)))
    phi = ind(sig, hv, kv)
    asg = {z: M.apply_gen("d", h), xv: xe, yv: ye, hv: h, kv: k}
    fv = phi.free_vars()
    return eval_card(M, phi, {v: e for v, e in asg.items() if v in fv}) > 0


def test_natural_families_are_pointwise_ind(cats, models):
    # a full family of fiber bijections is pointwise Ind-related
    # exactly when it is natural
    for name, C in cats.items():
        M = models[name]
        for xe in C.objects:
            for ye in C.objects:
                for alpha in _bijection_families(C, M, xe, ye):
                    pointwise = all(
                        _ind_var_truth(M, xe, ye, h, ah)
                        for z, table in alpha.items()
                        for h, ah in table.items())
                    assert pointwise == _natural(C, alpha), (name, xe, ye)


def _one_sided_family_card(M, xe, ye):
    from foldsat.synkit import Equiv, Forall
    sig = M.sig
    xv = Variable("xo", "O")
    yv = Variable("yo", "O")
    z = Variable("z", "O")
    alpha = Variable("h", "A", (("d", z), ("c", xv)))
    beta = Variable("k", "A", (("d", z), ("c", yv)))
    phi = Forall(z, Equiv("A", alpha, beta))
    return eval_card(M, phi, {xv: xe, yv: ye})


def test_one_sided_family_truth_matches_iso(cats, models):
    for name, C in cats.items():
        M = models[name]
        oracle = categorical_iso_pairs(C)
        for a in C.objects:
            for b in C.objects:
                assert (_one_sided_family_card(M, a, b) > 0) \
                    == ((a, b) in oracle), (name, a, b)


def test_one_sided_family_card_on_gaunt(cats, models):
    for name, C in cats.items():
        if not is_gaunt(C):
            continue
        M = models[name]
        for a in C.objects:
            for b in C.objects:
                assert (_one_sided_family_card(M, a, b)
                        == card_iso_elems(M, "O", a, b)), (name, a, b)


def test_one_sided_family_card_z2(models):
    # one conjunct family: two natural bijections of the hom-fiber;
    # the full conjunction multiplies over six independent families
    M = models["Z2Cat"]
    assert _one_sided_family_card(M, "*", "*") == 2
    assert card_iso_elems(M, "O", "*", "*") == 2 ** 6
