import time

import pytest

from foldsat.errors import HeightOutOfScope, NotSaturated, SortMismatch
from foldsat.finsem import validate_structure
from foldsat.homspan import (Hom, _hom_search, find_span, hsip_decide,
                             identity_hom, is_fibsurj, structure_iso)
from foldsat.sigcore import validate_signature
from foldsat.stdlib import (_poset_category, builtin_signature,
                            category_to_structure)
from paper_checks import (PreconditionViolation, check_ind_preservation,
                          compose_homs, corpus, is_hom)


@pytest.fixture(scope="module")
def models():
    return corpus()


@pytest.fixture(scope="module")
def lcat():
    return builtin_signature("lcat")


def collapse_to_termcat(M, T):
    """The unique candidate map family onto the one-object structure."""
    targets = {K: T.carrier(K)[0] for K in M.sig.sorts}
    return {K: {e: targets[K] for e in M.carrier(K)} for K in M.sig.sorts}


def relabel(M, tag):
    ren = {K: {e: f"{tag}{e}" for e in M.carrier(K)} for K in M.sig.sorts}
    carriers = {K: [ren[K][e] for e in M.carrier(K)] for K in M.sig.sorts}
    maps = {g.name: {ren[g.dom][e]: ren[g.cod][v]
                     for e, v in M.maps[g.name].items()}
            for g in M.sig.gens}
    return validate_structure(M.sig, {"carriers": carriers, "maps": maps})


# -- homomorphisms ------------------------------------------------------

def test_identity_is_hom(models):
    for M in models.values():
        assert is_hom(M, M, identity_hom(M).maps)


def test_collapse_walkiso_is_hom(models):
    M, T = models["WalkIso"], models["TermCat"]
    assert is_hom(M, T, collapse_to_termcat(M, T))


def test_non_natural_map_rejected(models):
    M = models["Arrow2"]
    maps = identity_hom(M).maps
    maps["O"]["0"] = "1"  # d-naturality breaks on the non-endo arrow
    assert not is_hom(M, M, maps)


def test_partial_map_rejected(models):
    M = models["Arrow2"]
    maps = identity_hom(M).maps
    del maps["A"]["u_0_1"]
    assert not is_hom(M, M, maps)


def test_compose_homs(models):
    M, T = models["WalkIso"], models["TermCat"]
    h = Hom(M, T, collapse_to_termcat(M, T))
    composed = compose_homs(identity_hom(M), h)
    assert is_hom(M, T, composed.maps)
    assert composed.maps == h.maps
    with pytest.raises(SortMismatch):
        compose_homs(h, Hom(M, T, collapse_to_termcat(M, T)))


# -- fiberwise surjectivity ---------------------------------------------

def test_identity_is_fibsurj(models):
    for M in models.values():
        assert is_fibsurj(identity_hom(M))


def test_collapse_walkiso_is_fibsurj(models):
    M, T = models["WalkIso"], models["TermCat"]
    assert is_fibsurj(Hom(M, T, collapse_to_termcat(M, T)))


def test_collapse_arrow2_rejected(models):
    # the A-fiber over (1, 0) is empty upstream but its image fiber
    # over (*, *) is inhabited
    M, T = models["Arrow2"], models["TermCat"]
    h = Hom(M, T, collapse_to_termcat(M, T))
    assert is_hom(M, T, h.maps)
    assert not is_fibsurj(h)


def test_compose_fibsurj(models):
    M, T = models["WalkIso"], models["TermCat"]
    h = compose_homs(Hom(M, T, collapse_to_termcat(M, T)),
                     identity_hom(T))
    assert is_fibsurj(h)


# -- structure isomorphism ----------------------------------------------

def test_structure_iso_relabel(models):
    for name in ("Arrow2", "Z2Cat", "WalkIso"):
        M = models[name]
        N = relabel(M, "r_")
        iso = structure_iso(M, N)
        assert iso is not None
        assert is_hom(M, N, iso)
        assert all(len(set(iso[K].values())) == len(M.carrier(K))
                   for K in M.sig.sorts)


def vee(k, up):
    """V (two minimal objects below a top) or Λ (two maximal objects
    above a bottom), plus k discrete objects."""
    objs = ["a", "b", "c"] + [f"d{i}" for i in range(k)]
    covers = [("a", "c"), ("b", "c")] if up else [("c", "a"), ("c", "b")]
    return category_to_structure(_poset_category("V" if up else "L", objs,
                                                 covers))


def test_hsip_vee_against_lambda_rejected_fast():
    M, N = vee(8, True), vee(8, False)
    start = time.perf_counter()
    assert not hsip_decide(M, N)
    assert time.perf_counter() - start < 1.0


def test_hsip_vee_against_relabelled_copy():
    M = vee(8, True)
    assert hsip_decide(M, relabel(M, "r_"))


def test_structure_iso_deep_discrete_self_iso():
    # 1500 elements: as deep as the search goes, past the recursion limit
    objs = [f"o{i}" for i in range(300)]
    M = category_to_structure(_poset_category("D", objs, []))
    iso = structure_iso(M, M)
    assert iso == identity_hom(M).maps


def test_structure_iso_absent(models):
    assert structure_iso(models["Arrow2"], models["Chain3"]) is None
    assert structure_iso(models["Disc2"], models["Arrow2"]) is None


# -- spans --------------------------------------------------------------

def test_find_span_saturated_fast_path(models):
    M = models["Arrow2"]
    N = relabel(M, "r_")
    res = find_span(M, N)
    assert res.status == "found"
    assert res.span.apex is M
    assert is_hom(M, N, res.span.right.maps)
    assert is_fibsurj(res.span.right)


def test_find_span_absent_on_saturated_pair(models):
    res = find_span(models["Arrow2"], models["Chain3"])
    assert res.status == "absent"


def test_find_span_walkiso_termcat(models):
    # the span witnessing equivalence without any structure iso
    M, T = models["WalkIso"], models["TermCat"]
    assert structure_iso(M, T) is None
    res = find_span(M, T)
    assert res.status == "found"
    assert res.span.apex is M
    assert res.span.right.dst is T
    assert is_fibsurj(res.span.right)


def test_find_span_symmetric(models):
    res = find_span(models["TermCat"], models["WalkIso"])
    assert res.status == "found"


def test_find_span_unsaturated_self(models):
    res = find_span(models["Z2Cat"], models["Z2Cat"])
    assert res.status == "found"


def test_find_span_bound_exceeded(models):
    # WalkIso and Z2Cat are inequivalent, but neither is totally
    # saturated, so exhausting the bounded search is not definitive
    res = find_span(models["WalkIso"], models["Z2Cat"])
    assert res.status == "bound_exceeded"


def test_find_span_rejects_mixed_signatures(models):
    # TermCat and the empty structure are totally saturated, WalkIso is
    # not: each search meets the check in _hom_search
    lrg = builtin_signature("lrg")
    E = validate_structure(lrg, {"carriers": {}, "maps": {}})
    for M in (models["TermCat"], models["WalkIso"]):
        for call in (find_span, structure_iso,
                     lambda M, N: next(_hom_search(M, N))):
            for A, B in ((M, E), (E, M)):
                with pytest.raises(SortMismatch,
                                   match="over different signatures"):
                    call(A, B)
    for A, B in ((models["TermCat"], E), (E, models["TermCat"])):
        with pytest.raises(SortMismatch, match="over different signatures"):
            hsip_decide(A, B)


# -- indistinguishability preservation ----------------------------------

def test_ind_preservation_level2_collapse(models):
    M, T = models["WalkIso"], models["TermCat"]
    h = Hom(M, T, collapse_to_termcat(M, T))
    report = check_ind_preservation(h, 2)
    assert report["ok"] and report["violations"] == []


def test_ind_preservation_level3_relabel(models):
    M = models["Arrow2"]
    N = relabel(M, "r_")
    h = Hom(M, N, structure_iso(M, N))
    assert check_ind_preservation(h, 3)["ok"]


def test_ind_preservation_requires_fibsurj(models):
    M, T = models["Arrow2"], models["TermCat"]
    with pytest.raises(PreconditionViolation):
        check_ind_preservation(Hom(M, T, collapse_to_termcat(M, T)), 2)


def test_ind_preservation_level3_requires_saturation(models):
    M, T = models["WalkIso"], models["TermCat"]
    with pytest.raises(PreconditionViolation):
        check_ind_preservation(Hom(M, T, collapse_to_termcat(M, T)), 3)


# -- the height-3 decision ----------------------------------------------

def test_hsip_positive(models):
    M = models["Arrow2"]
    assert hsip_decide(M, relabel(M, "r_"))


def test_hsip_negative(models):
    assert not hsip_decide(models["Arrow2"], models["Chain3"])
    assert not hsip_decide(models["Disc2"], models["Disc3"])


def test_hsip_requires_saturation(models):
    with pytest.raises(NotSaturated):
        hsip_decide(models["WalkIso"], models["TermCat"])
    with pytest.raises(NotSaturated):
        hsip_decide(models["TermCat"], models["Z2Cat"])


def test_hsip_requires_height3():
    sig = validate_signature({
        "sorts": ["V", "E"],
        "arrows": [("s", "E", "V"), ("t", "E", "V")],
        "equations": [],
    })
    M = validate_structure(sig, {
        "carriers": {"V": ["v"], "E": []},
        "maps": {"s": {}, "t": {}},
    })
    with pytest.raises(HeightOutOfScope):
        hsip_decide(M, M)
