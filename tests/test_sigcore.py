import pytest

from foldsat.errors import CompositionError, CycleError, NameClashError
from foldsat.sigcore import validate_signature
from foldsat.stdlib import builtin_signature


def test_lrg_valid():
    sig = builtin_signature("lrg")
    assert sig.sorts == ("O", "A", "I")
    assert [g.name for g in sig.gens] == ["d", "c", "i"]


def test_single_sort_trivially_inverse():
    sig = validate_signature({"sorts": ["O"], "arrows": [], "equations": []})
    assert sig.levels == {"O": 1}
    assert sig.height == 1


def test_two_cycle_rejected():
    with pytest.raises(CycleError):
        validate_signature({
            "sorts": ["X", "Y"],
            "arrows": [("f", "X", "Y"), ("g", "Y", "X")],
            "equations": [],
        })


def test_endomorphism_rejected():
    with pytest.raises(CycleError):
        validate_signature({
            "sorts": ["X"], "arrows": [("f", "X", "X")], "equations": []})


def test_duplicate_arrow_name_rejected():
    with pytest.raises(NameClashError):
        validate_signature({
            "sorts": ["X", "Y"],
            "arrows": [("f", "X", "Y"), ("f", "X", "Y")],
            "equations": [],
        })


def test_arrow_name_on_two_domains_rejected():
    # generators are named alone in equations, paths and structure maps
    with pytest.raises(NameClashError):
        validate_signature({
            "sorts": ["Y", "X", "Z"],
            "arrows": [("f", "X", "Y"), ("f", "Z", "Y")],
            "equations": [],
        })


def test_dangling_arrow_rejected():
    with pytest.raises(NameClashError):
        validate_signature({
            "sorts": ["X"], "arrows": [("f", "X", "Z")], "equations": []})


def test_equation_endpoint_mismatch_rejected():
    with pytest.raises(CompositionError):
        validate_signature({
            "sorts": ["O", "A", "B"],
            "arrows": [("d", "A", "O"), ("e", "B", "O")],
            "equations": [(("d",), ("e",))],
        })


def test_declared_level_disagreement_rejected():
    with pytest.raises(CompositionError):
        validate_signature({
            "sorts": ["O", "A"],
            "arrows": [("d", "A", "O")],
            "equations": [],
            "levels": {"O": 1},
        })


@pytest.mark.parametrize("name,expected,height", [
    ("lrg", {"I": 1, "A": 2, "O": 3}, 3),
    ("lrg_eq", {"I": 1, "eqA": 1, "A": 2, "O": 3}, 3),
    ("lcat", {"comp": 1, "I": 1, "eqA": 1, "A": 2, "O": 3}, 3),
])
def test_levels(name, expected, height):
    sig = builtin_signature(name)
    assert sig.levels == expected
    assert sig.height == height


def test_level_strictly_decreasing_along_arrows():
    for name in ("lrg", "lrg_eq", "lcat"):
        sig = builtin_signature(name)
        for s in sig.sorts:
            for a in sig.out(s):
                assert sig.level(a.dom) < sig.level(a.cod)


def test_hom_comp_to_A():
    sig = builtin_signature("lcat")
    assert [a.name for a in sig.hom("comp", "A")] == ["t0", "t1", "t2"]


def test_hom_comp_to_O_three_classes():
    sig = builtin_signature("lcat")
    hs = sig.hom("comp", "O")
    assert len(hs) == 3
    # the displayed relations merge t0.d=t2.d, t1.c=t2.c, t1.d=t0.c
    assert sig.cls(("t0", "d")) == sig.cls(("t2", "d"))
    assert sig.cls(("t1", "c")) == sig.cls(("t2", "c"))
    assert sig.cls(("t1", "d")) == sig.cls(("t0", "c"))


def test_hom_I_to_O_single_class():
    sig = builtin_signature("lrg")
    assert len(sig.hom("I", "O")) == 1
    assert sig.cls(("i", "d")) == sig.cls(("i", "c"))


def test_hom_endo_is_identity_only():
    sig = builtin_signature("lcat")
    for s in sig.sorts:
        hs = sig.hom(s, s)
        assert len(hs) == 1 and hs[0].is_identity


def test_hom_closure_under_composition():
    sig = builtin_signature("lcat")
    for r in sig.sorts:
        for k in sig.sorts:
            for f in sig.hom(r, k):
                for k2 in sig.sorts:
                    for g in sig.hom(k, k2):
                        assert sig.compose(f, g) in sig.hom(r, k2)


def test_levels_independent_of_declaration_order():
    raw = dict(_raw_lrg())
    raw["sorts"] = list(reversed(raw["sorts"]))
    sig = validate_signature(raw)
    assert sig.levels == {"I": 1, "A": 2, "O": 3}


def _raw_lrg():
    return {
        "sorts": ["O", "A", "I"],
        "arrows": [("d", "A", "O"), ("c", "A", "O"), ("i", "I", "A")],
        "equations": [(("i", "d"), ("i", "c"))],
    }
