"""End-to-end acceptance checks for the whole pipeline, with explicit
wall-clock budgets."""

import time
from itertools import product
from pathlib import Path

import pytest

from foldsat.finsem import (boundary_instances, card_iso_elems,
                            equiv_card_via_bijections, eval_prop, fiber,
                            saturation_profile, validate_structure)
from foldsat.homspan import (Hom, find_span, hsip_decide, identity_hom,
                             is_fibsurj, structure_iso)
from foldsat.isogen import generic_context, ind, iso_formula
from foldsat.pretty import pformat
from foldsat.stdlib import builtin_signature, is_gaunt
from foldsat.synkit import Top, mk_var
from paper_checks import (categorical_iso_pairs, check_ind_preservation,
                          corpus, corpus_categories, equiv_card_via_formula,
                          iso_formula_cat, yso_formula)

GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.fixture(scope="module")
def models():
    return corpus()


@pytest.fixture(scope="module")
def cats():
    return corpus_categories()


class _budget:
    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            assert time.monotonic() - self.start < self.seconds


def _relabel(M, tag):
    ren = {K: {e: f"{tag}{e}" for e in M.carrier(K)} for K in M.sig.sorts}
    carriers = {K: [ren[K][e] for e in M.carrier(K)] for K in M.sig.sorts}
    maps = {g.name: {ren[g.dom][e]: ren[g.cod][v]
                     for e, v in M.maps[g.name].items()}
            for g in M.sig.gens}
    return validate_structure(M.sig, {"carriers": carriers, "maps": maps})


# 1. level assignments of the built-in signatures

def test_levels_builtin_signatures():
    with _budget(1):
        lrg = builtin_signature("lrg")
        assert lrg.levels == {"I": 1, "A": 2, "O": 3}
        lcat = builtin_signature("lcat")
        assert lcat.levels == {"I": 1, "eqA": 1, "comp": 1,
                               "A": 2, "O": 3}
        assert lrg.height == 3 and lcat.height == 3


# 2. the generated six-conjunct formula at sort A, against a golden file

def test_gen_iso_golden():
    with _budget(1):
        sig = builtin_signature("lrg_eq")
        _, _, phi = iso_formula(sig, "A")
        golden = (GOLDEN / "gen_iso_lrg_eq_A.txt").read_text().strip()
        assert pformat(phi) == golden
        assert len(phi.args) == 6


# 3. generated Ind is trivial at level 1 and for parallel arrows in lrg

def test_level1_ind_trivial():
    with _budget(1):
        for name in ("lrg", "lrg_eq", "lcat"):
            sig = builtin_signature(name)
            for K in sig.sorts:
                if sig.level(K) == 1:
                    _, _, phi = iso_formula(sig, K)
                    assert isinstance(phi, Top), (name, K)
        lrg = builtin_signature("lrg")
        f, g = generic_context(lrg, "A", names=("f", "g"))
        assert isinstance(ind(lrg, f, g), Top)


# 4. equivalence-relation laws over the whole corpus

def test_equivalence_relation_laws(models):
    with _budget(30):
        assert len(models) >= 10
        for name, M in models.items():
            for K in M.sig.sorts:
                elems = M.carrier(K)
                for e in elems:
                    assert card_iso_elems(M, K, e, e) >= 1, (name, K, e)
                truth = {(a, b): card_iso_elems(M, K, a, b) > 0
                         for a in elems for b in elems}
                for a, b in truth:
                    assert truth[(a, b)] == truth[(b, a)], (name, K, a, b)
                for a, b, c in product(elems, repeat=3):
                    if truth[(a, b)] and truth[(b, c)]:
                        assert truth[(a, c)], (name, K, a, b, c)


# 5. level-1 equivalence counts biconditionally on 1-saturated models

def test_level1_equivalence_is_biconditional(models):
    with _budget(10):
        for name, M in models.items():
            if not saturation_profile(M)[1]:
                continue
            for K in M.sig.sorts:
                if M.sig.level(K) != 1:
                    continue
                deltas = boundary_instances(M, K)
                for d1 in deltas:
                    for d2 in deltas:
                        want = 1 if (bool(fiber(M, K, d1))
                                     == bool(fiber(M, K, d2))) else 0
                        got = equiv_card_via_bijections(M, K, d1, d2)
                        assert got == want, (name, K, d1, d2)
                        assert equiv_card_via_formula(M, K, d1, d2) \
                            == want, (name, K, d1, d2)


# 6. the object-isomorphism formula against the categorical oracle

def test_iso_matches_category_oracle(cats, models):
    with _budget(60):
        lcat = builtin_signature("lcat")
        x = mk_var(lcat, "x", "O")
        y = mk_var(lcat, "y", "O")
        iso = iso_formula_cat(x, y)
        yso = yso_formula(x, y)
        for name, C in cats.items():
            M = models[name]
            oracle = categorical_iso_pairs(C)
            for a in C.objects:
                for b in C.objects:
                    want = (a, b) in oracle
                    asg = {x: a, y: b}
                    assert eval_prop(M, iso, asg) == want, (name, a, b)
                    assert (card_iso_elems(M, "O", a, b) >= 1) == want, \
                        (name, a, b)
                    assert eval_prop(M, yso, asg) == want, (name, a, b)


# 7. saturation taxonomy and agreement with gauntness

def test_saturation_taxonomy(cats, models):
    with _budget(60):
        for name in ("TermCat", "Arrow2"):
            assert saturation_profile(models[name])["total"], name
        for name in ("WalkIso", "Z2Cat"):
            p = saturation_profile(models[name])
            assert p[2] and not p[3], name
        assert not saturation_profile(models["DoubledI"])[1]
        for name, C in cats.items():
            assert saturation_profile(models[name])["total"] \
                == is_gaunt(C), name


# 8. bijection counting equals formula evaluation on level-2 fibers

def test_bijection_count_cross_check(models):
    with _budget(60):
        mismatches = []
        for name, M in models.items():
            if not saturation_profile(M)[2]:
                continue
            for K in M.sig.sorts:
                if M.sig.level(K) != 2:
                    continue
                deltas = boundary_instances(M, K)
                for d1 in deltas:
                    for d2 in deltas:
                        a = equiv_card_via_bijections(M, K, d1, d2)
                        b = equiv_card_via_formula(M, K, d1, d2)
                        if a != b:
                            mismatches.append((name, K, d1, d2, a, b))
        assert mismatches == []


# 9. indistinguishability along fiberwise surjections

def test_ind_preservation_along_fibsurj(models):
    with _budget(30):
        homs = [identity_hom(M) for M in models.values()]
        for name in ("Arrow2", "Z2Cat"):
            M = models[name]
            N = _relabel(M, "r_")
            homs.append(Hom(M, N, structure_iso(M, N)))
        W, T = models["WalkIso"], models["TermCat"]
        collapse = {K: {e: T.carrier(K)[0] for e in W.carrier(K)}
                    for K in W.sig.sorts}
        homs.append(Hom(W, T, collapse))
        for h in homs:
            assert is_fibsurj(h)
            assert check_ind_preservation(h, 2)["ok"]
            if (saturation_profile(h.src)["total"]
                    and saturation_profile(h.dst)["total"]):
                assert check_ind_preservation(h, 3)["ok"]


# 10. the identity decision on saturated models, and its necessity

def test_identity_decision(models):
    with _budget(120):
        saturated = {name: M for name, M in models.items()
                     if saturation_profile(M)["total"]}
        assert len(saturated) >= 5
        for (n1, M), (n2, N) in product(saturated.items(), repeat=2):
            iso = structure_iso(M, N)
            res = find_span(M, N)
            assert (res.status == "found") == (iso is not None), (n1, n2)
            assert hsip_decide(M, N) == (iso is not None), (n1, n2)
        assert not hsip_decide(models["Arrow2"], models["Chain3"])
        A2 = models["Arrow2"]
        assert hsip_decide(A2, _relabel(A2, "copy_"))
        # without saturation, equivalence outruns isomorphism
        W, T = models["WalkIso"], models["TermCat"]
        assert structure_iso(W, T) is None
        assert find_span(W, T).status == "found"


# 11. fiberwise surjectivity is sensitive to empty fibers

def test_fibsurj_boundary_subtlety(models):
    with _budget(5):
        T = models["TermCat"]
        for name, want in (("Arrow2", False), ("WalkIso", True)):
            M = models[name]
            collapse = {K: {e: T.carrier(K)[0] for e in M.carrier(K)}
                        for K in M.sig.sorts}
            assert is_fibsurj(Hom(M, T, collapse)) == want, name
        for name in ("Arrow2", "WalkIso", "Z2Cat"):
            M = models[name]
            cls_i = M.sig.cls(("i",))
            for delta in boundary_instances(M, "I"):
                arrow = delta[cls_i]
                assert M.apply_gen("d", arrow) == M.apply_gen("c", arrow)
