import pytest

from foldsat.errors import (FoldsError, FunctorialityError, InvalidBoundary,
                            NonTotalMap, NotSaturatedPrecondition,
                            OpenFormula, SortMismatch, UnboundVariable,
                            UnknownSort)
from foldsat import isogen
from foldsat.finsem import (_MAX_BITS, FinStructure, _Evaluator,
                            _guarded_chain, boundary_instances,
                            card_iso_elems, check_saturation,
                            equiv_card_via_bijections, eval_card, eval_prop,
                            fiber, satisfies, saturation_profile,
                            validate_structure)
from foldsat.isogen import ind, iso_formula, variables_over
from foldsat.sigcore import validate_signature
from foldsat.pretty import pformat
from foldsat.stdlib import builtin_signature, tcat_axioms
from foldsat.synkit import (And, Atom, Bottom, Equiv, Exists, Forall, Iff,
                            Implies, Or, Top, conj, mk_var)
from paper_checks import boundary_of, corpus, equiv_card_via_formula


@pytest.fixture(scope="module")
def lrg():
    return builtin_signature("lrg")


@pytest.fixture(scope="module")
def lcat():
    return builtin_signature("lcat")


@pytest.fixture(scope="module")
def models():
    return corpus()


@pytest.fixture(scope="module")
def rg2(lrg):
    # two objects, one arrow x -> y, no identity witnesses
    return validate_structure(lrg, {
        "carriers": {"O": ["x", "y"], "A": ["u"], "I": []},
        "maps": {"d": {"u": "x"}, "c": {"u": "y"}, "i": {}},
    })


# -- validate_structure -------------------------------------------------

def test_validate_termcat(models):
    M = models["TermCat"]
    assert M.carrier("O") == ("*",)
    assert M.carrier("A") == ("id",)
    assert len(M.carrier("I")) == 1


def test_validate_empty_structure(lrg):
    M = validate_structure(lrg, {"carriers": {}, "maps": {}})
    assert M.carrier("O") == ()


def test_validate_rejects_broken_equation(lrg):
    raw = {
        "carriers": {"O": ["x", "y"], "A": ["u"], "I": ["w"]},
        "maps": {"d": {"u": "x"}, "c": {"u": "y"}, "i": {"w": "u"}},
    }
    with pytest.raises(FunctorialityError):
        validate_structure(lrg, raw)


def test_validate_rejects_partial_map(lrg):
    raw = {
        "carriers": {"O": ["x"], "A": ["u"], "I": []},
        "maps": {"d": {"u": "x"}, "c": {}, "i": {}},
    }
    with pytest.raises(NonTotalMap):
        validate_structure(lrg, raw)


# lrg with x, y, u: x -> y and no identity witness, one fault added
FAULTS = [
    ({"c": {}}, "map 'c' undefined on 'u'"),
    ({"d": {"u": "z"}}, "map 'd' sends 'u' outside 'O'"),
    ({"d": {"u": "x", "v": "x"}}, "map 'd' defined on stray element 'v'"),
    # the checks run map by map, each over its domain, strays last
    ({"d": {"u": "x", "v": "x"}, "c": {}},
     "map 'd' defined on stray element 'v'"),
    ({"d": {"v": "z"}}, "map 'd' undefined on 'u'"),
]


@pytest.mark.parametrize("maps, message", FAULTS)
def test_validate_names_the_first_fault(lrg, maps, message):
    raw = {"carriers": {"O": ["x", "y"], "A": ["u"], "I": []},
           "maps": {"d": {"u": "x"}, "c": {"u": "y"}, "i": {}, **maps}}
    with pytest.raises(NonTotalMap) as err:
        validate_structure(lrg, raw)
    assert str(err.value) == message


def test_assignment_outside_the_carrier_is_rejected(models):
    M = models["Arrow2"]
    x = mk_var(M.sig, "x", "O")
    for e in ("u_0_1", ["0"]):
        with pytest.raises(SortMismatch) as err:
            eval_card(M, Top(), {x: e})
        assert str(err.value) == f"{e!r} is not an element of 'O'"


def test_validate_rejects_unknown_sort(lrg):
    with pytest.raises(UnknownSort):
        validate_structure(lrg, {"carriers": {"B": []}, "maps": {}})


# -- fibers -------------------------------------------------------------

def test_fiber_walkiso_arrow(models):
    M = models["WalkIso"]
    sig = M.sig
    delta = {sig.cls(("d",)): "a", sig.cls(("c",)): "b"}
    assert fiber(M, "A", delta) == ("u",)


def test_fiber_over_empty_boundary_is_carrier(models):
    M = models["WalkIso"]
    assert fiber(M, "O", {}) == M.carrier("O")


def test_i_boundary_over_non_endo_rejected(models):
    M = models["WalkIso"]
    sig = M.sig
    with pytest.raises(InvalidBoundary):
        fiber(M, "I", {q: "u" for q in sig.out("I")
                       if q.cod == "A"} | {q: ("a" if q.path[-1] == "d"
                                               else "b")
                                           for q in sig.out("I")
                                           if q.cod == "O"})


def test_i_boundary_instances_only_over_endos(models):
    M = models["WalkIso"]
    endos = {delta[M.sig.cls(("i",))]
             for delta in boundary_instances(M, "I")}
    assert endos == {"ida", "idb"}


def test_invalid_boundary_reports_its_deepest_fault_first():
    """An unindexed boundary is checked in fill order, deepest codomain
    first: here the stray element at ``o`` (into O, level 3) is reported,
    not the one at ``f`` (into A, level 2), although ``out(X)`` lists
    ``f`` first because A is declared before O."""
    sig = validate_signature({
        "sorts": ["A", "O", "X"],
        "arrows": [("d", "A", "O"), ("f", "X", "A"), ("o", "X", "O")],
        "equations": []})
    assert [q.name for q in sig.out("X")] == ["f", "o", "f.d"]
    M = validate_structure(sig, {"carriers": {"O": ["a"], "A": ["u"]},
                                 "maps": {"d": {"u": "a"}}})
    pos = {q.name: q for q in sig.out("X")}
    with pytest.raises(InvalidBoundary) as err:
        fiber(M, "X", {pos["f"]: "s1", pos["o"]: "s2", pos["f.d"]: "a"})
    assert str(err.value) == "'s2' is not in the carrier of 'O'"
    # an unhashable value is in no carrier, and is reported the same way
    with pytest.raises(InvalidBoundary) as err:
        fiber(M, "X", {q: ["a"] for q in sig.out("X")})
    assert str(err.value) == "['a'] is not in the carrier of 'O'"


def test_binder_that_rebinds_a_dependency_is_rejected(lcat, models):
    """``exists x:O. forall x:A(x,x). forall x:O. (sum k:comp(a,a,a).
    true) -> true``, with ``a`` the bound ``x:A(x,x)``: the last binder
    rebinds the x that a's sort depends on, so k's boundary could not be
    consistent, and the count is refused, on every structure.  Free
    variables count too, and rebinding a variable that nothing free
    depends on is plain shadowing."""
    M = models["Chain3"]
    x = mk_var(lcat, "x", "O")
    a = mk_var(lcat, "x", "A", {"d": x, "c": x})
    k = mk_var(lcat, "k", "comp", {"t0": a, "t1": a, "t2": a})
    phi = Exists(x, Forall(a, Forall(x, Implies(
        Exists(k, Top(), untruncated=True), Top()))))
    with pytest.raises(InvalidBoundary) as err:
        eval_card(M, phi)
    assert str(err.value) \
        == "binder 'x' rebinds 'x', on which the sort of 'x' depends"
    # f is free, and x only in its boundary
    f = mk_var(lcat, "f", "A", {"d": x, "c": x})
    i = mk_var(lcat, "i", "I", {"i": f})
    with pytest.raises(InvalidBoundary):
        eval_card(M, Forall(x, Atom(i)), {f: "id_0"})
    assert eval_card(M, Exists(x, Forall(x, Top()))) == 1


def test_element_pairs_of_one_boundary_pattern_share_their_ind(
        monkeypatch, lcat):
    """Boundary variables are named in the order the walk reaches them,
    not after their elements: two pairs of arrows whose boundaries
    coincide in one pattern get the same x* and y*, and so one ``Ind``,
    generated once and kept in one entry of the signature's table."""
    M = validate_structure(lcat, {
        "carriers": {"O": ["a", "b", "c"], "A": ["f", "g", "h", "k"]},
        "maps": {"d": {"f": "a", "g": "a", "h": "b", "k": "b"},
                 "c": {"f": "b", "g": "b", "h": "c", "k": "c"}}})

    def over(a, b):
        return variables_over(lcat, "A", [boundary_of(M, "A", e)
                                          for e in (a, b)], ("x*", "y*"))

    (x1, y1), values1 = over("f", "g")
    (x2, y2), values2 = over("h", "k")
    assert (x1, y1) == (x2, y2) and x1.proj == y1.proj
    assert sorted(values1.values()) == ["a", "b"]
    assert sorted(values2.values()) == ["b", "c"]
    generated = []
    real = isogen._ind

    def spy(sig, x, y):
        generated.append((x, y))
        return real(sig, x, y)

    monkeypatch.setattr(isogen, "_ind", spy)
    lcat.ind_table.clear()
    assert ind(lcat, x1, y1) == ind(lcat, x2, y2)
    assert generated == [(x1, y1)] and list(lcat.ind_table) == [(x1, y1)]
    # f ends where h starts: another pattern, and another pair
    (x3, y3), _ = over("f", "h")
    assert dict(x3.proj)["c"] == dict(y3.proj)["d"]
    assert (x3, y3) != (x1, y1)


def test_structures_are_read_only(models):
    # the fiber index, the evaluator and the saturation caches of a
    # structure rely on it never changing
    M = models["TermCat"]
    assert all(isinstance(M.carrier(K), tuple) for K in M.sig.sorts)
    assert all(M.elements[K] == frozenset(M.carrier(K))
               for K in M.sig.sorts)
    with pytest.raises(TypeError):
        M.elements["O"] = frozenset()
    with pytest.raises(TypeError):
        M.carriers["O"] = ("extra",)
    with pytest.raises(TypeError):
        M.maps["d"] = {}
    with pytest.raises(TypeError):
        M.maps["d"][M.carrier("A")[0]] = "extra"


def test_fiber_index_is_read_only_after_it_is_built():
    """Evaluating the theory and deciding saturation read the fiber
    index and add no boundary to it, and ``fiber`` answers a valid
    boundary the index lacks with an empty fiber it does not store."""
    M = corpus()["Z2Cat"]
    built = {K: list(M.fibers(K)) for K in M.sig.sorts}
    assert satisfies(M, tcat_axioms())[0]
    saturation_profile(M)
    assert {K: list(M.fibers(K)) for K in M.sig.sorts} == built
    # e . e = e, so nothing of comp lies over (e, e, s): fiber finds
    # some boundary instances empty
    assert any(not fiber(M, "comp", d)
               for d in boundary_instances(M, "comp"))
    assert {K: list(M.fibers(K)) for K in M.sig.sorts} == built


def test_boundary_of_roundtrip(models):
    M = models["Arrow2"]
    for K in M.sig.sorts:
        for e in M.carrier(K):
            delta = boundary_of(M, K, e)
            assert e in fiber(M, K, delta)


# -- eval_card ----------------------------------------------------------

def test_top_bottom(models):
    M = models["TermCat"]
    assert eval_card(M, Top()) == 1
    assert eval_card(M, Bottom()) == 0
    assert eval_prop(M, Bottom()) is False


def test_rg2_display_example(rg2, lrg):
    x = mk_var(lrg, "x", "O")
    f = mk_var(lrg, "f", "A", {"d": x, "c": x})
    w = mk_var(lrg, "w", "I", {"i": f})
    phi = Exists(x, Forall(f, Atom(w)))
    assert eval_card(rg2, phi) == 1
    assert eval_card(rg2, Exists(x, Forall(f, Atom(w)),
                                 untruncated=True)) == 2


def test_connective_counts(models):
    M = models["Z2Cat"]
    sig = M.sig
    x = mk_var(sig, "x", "O")
    f = mk_var(sig, "f", "A", {"d": x, "c": x})
    some = Exists(x, Exists(f, Atom(mk_var(sig, "w", "I", {"i": f})),
                            untruncated=True), untruncated=True)
    # exactly one of the two endo-arrows has an identity witness
    assert eval_card(M, some) == 1
    every = Exists(x, Forall(f, Atom(mk_var(sig, "w", "I", {"i": f}))))
    assert eval_card(M, every) == 0
    assert eval_card(M, Implies(some, every)) == 0
    assert eval_card(M, Implies(every, some)) == 1
    assert eval_card(M, Iff(some, every)) == 0
    assert eval_card(M, Or((some, every))) == 1
    assert eval_card(M, And((some, every))) == 0


def test_untruncated_sum_counts_witnesses(models):
    M = models["Z2Cat"]
    sig = M.sig
    x = mk_var(sig, "x", "O")
    f = mk_var(sig, "f", "A", {"d": x, "c": x})
    e = mk_var(sig, "e", "eqA", {"s": f, "t": f})
    phi = Exists(x, Exists(f, Atom(e), untruncated=True), untruncated=True)
    assert eval_card(M, phi) == 2  # both arrows are self-equal


def test_unbound_variable_rejected(models, lcat):
    M = models["TermCat"]
    x = mk_var(lcat, "x", "O")
    f = mk_var(lcat, "f", "A", {"d": x, "c": x})
    with pytest.raises(UnboundVariable):
        eval_card(M, Atom(mk_var(lcat, "w", "I", {"i": f})))


def test_z2_object_iso_card(models):
    # the two bijection families on the hom-fiber, one per arrow,
    # counted once per generated conjunct
    M = models["Z2Cat"]
    assert card_iso_elems(M, "O", "*", "*") == 2 ** 6


def test_walkiso_object_iso_card(models):
    M = models["WalkIso"]
    assert card_iso_elems(M, "O", "a", "b") == 1
    assert card_iso_elems(M, "O", "a", "a") == 1


def test_arrow2_object_iso_card(models):
    M = models["Arrow2"]
    assert card_iso_elems(M, "O", "0", "1") == 0


@pytest.mark.parametrize("K, a, b, bad", [
    ("A", "nope", "nope", "nope"),  # A has positions, O has none
    ("O", "nope", "nope", "nope"),
    ("A", "u_0_1", "nope", "nope"),
    ("A", "u_0_1", ["0"], ["0"]),  # unhashable, so in no carrier
])
def test_card_iso_elems_rejects_elements_outside_the_carrier(models, K, a,
                                                             b, bad):
    with pytest.raises(SortMismatch) as err:
        card_iso_elems(models["Arrow2"], K, a, b)
    assert str(err.value) == f"{bad!r} is not an element of {K!r}"


def test_repeated_card_iso_elems_through_compile_cache(monkeypatch, models):
    """Each conjunct of ``Ind`` is compiled once per structure: the second
    call draws the conjuncts again, and compiles none of them."""
    Z2 = models["Z2Cat"]
    M = FinStructure(Z2.sig, Z2.carriers, Z2.maps)  # nothing compiled yet
    built = []
    real = _Evaluator._build

    def spy(self, phi):
        built.append(phi)
        return real(self, phi)

    monkeypatch.setattr(_Evaluator, "_build", spy)
    a = card_iso_elems(M, "O", "*", "*")
    assert built
    built.clear()
    b = card_iso_elems(M, "O", "*", "*")
    assert a == b and built == []


# -- satisfies ----------------------------------------------------------

def test_satisfies_empty_theory(models):
    ok, report = satisfies(models["TermCat"], [])
    assert ok and report == []


def test_satisfies_rejects_open_axiom(models, lcat):
    x = mk_var(lcat, "x", "O")
    f = mk_var(lcat, "f", "A", {"d": x, "c": x})
    with pytest.raises(OpenFormula):
        satisfies(models["TermCat"],
                  [("open", Atom(mk_var(lcat, "w", "I", {"i": f})))])


def test_satisfies_reports_failing_axiom(rg2, lrg):
    x = mk_var(lrg, "x", "O")
    f = mk_var(lrg, "f", "A", {"d": x, "c": x})
    w = mk_var(lrg, "w", "I", {"i": f})
    theory = [("has-endo-identity", Forall(x, Exists(f, Atom(w))))]
    ok, report = satisfies(rg2, theory)
    assert not ok
    assert report == [{"axiom": "has-endo-identity", "ok": False}]


# -- saturation ---------------------------------------------------------

def test_z2_saturation_violation_at_O(models):
    violations = check_saturation(models["Z2Cat"], "O")
    assert len(violations) == 1
    v = violations[0]
    assert v["sort"] == "O" and v["pair"] == ("*", "*")
    assert v["boundary"] == {} and v["card"] > 1


def test_walkiso_saturation_violations_at_O(models):
    violations = check_saturation(models["WalkIso"], "O")
    pairs = {v["pair"] for v in violations}
    assert pairs == {("a", "b"), ("b", "a")}
    assert all(v["card"] >= 1 for v in violations)


def test_one_saturation_is_subsingleton_fibers(models):
    for M in models.values():
        expected = all(
            len(fiber(M, K, d)) <= 1
            for K in M.sig.sorts if M.sig.level(K) == 1
            for d in boundary_instances(M, K))
        assert saturation_profile(M)[1] == expected


def test_saturation_profiles(models):
    for name in ("TermCat", "Arrow2", "Chain3", "Disc1", "Disc2", "Disc3",
                 "SquarePoset"):
        assert saturation_profile(models[name])["total"], name
    for name in ("WalkIso", "Z2Cat"):
        p = saturation_profile(models[name])
        assert p[1] and p[2] and not p[3], name
    assert not saturation_profile(models["DoubledI"])[1]


def test_saturation_monotone(models):
    for M in models.values():
        p = saturation_profile(M)
        for n in range(2, M.sig.height + 1):
            if p[n]:
                assert p[n - 1]


# -- equivalence-card cross-check ---------------------------------------

def test_equiv_card_bijections_termcat(models):
    M = models["TermCat"]
    sig = M.sig
    d = {sig.cls(("d",)): "*", sig.cls(("c",)): "*"}
    assert equiv_card_via_bijections(M, "A", d, d) == 1
    assert equiv_card_via_formula(M, "A", d, d) == 1


def test_equiv_card_walkiso_cross_fibers(models):
    M = models["WalkIso"]
    sig = M.sig
    dab = {sig.cls(("d",)): "a", sig.cls(("c",)): "b"}
    dba = {sig.cls(("d",)): "b", sig.cls(("c",)): "a"}
    assert equiv_card_via_bijections(M, "A", dab, dba) == 1
    assert equiv_card_via_formula(M, "A", dab, dba) == 1


def test_equiv_card_unequal_fibers_is_zero(models):
    M = models["Arrow2"]
    sig = M.sig
    d01 = {sig.cls(("d",)): "0", sig.cls(("c",)): "1"}
    d10 = {sig.cls(("d",)): "1", sig.cls(("c",)): "0"}
    assert equiv_card_via_bijections(M, "A", d01, d10) == 0


def test_equiv_card_requires_saturation(models):
    M = models["DoubledI"]
    sig = M.sig
    d = {sig.cls(("d",)): "*", sig.cls(("c",)): "*"}
    with pytest.raises(NotSaturatedPrecondition):
        equiv_card_via_bijections(M, "A", d, d)


# -- Ind truth laws -----------------------------------------------------

def test_ind_truth_reflexive(models):
    for M in models.values():
        for K in M.sig.sorts:
            for e in M.carrier(K):
                assert card_iso_elems(M, K, e, e) >= 1


def test_ind_truth_symmetric_z2(models):
    M = models["Z2Cat"]
    for a in M.carrier("A"):
        for b in M.carrier("A"):
            assert ((card_iso_elems(M, "A", a, b) > 0)
                    == (card_iso_elems(M, "A", b, a) > 0))


def test_ind_distinguishes_arrows_in_group(models):
    M = models["Z2Cat"]
    assert card_iso_elems(M, "A", "e", "e") > 0
    assert card_iso_elems(M, "A", "e", "s") == 0


# -- guarded forall chains ----------------------------------------------

def guarded(phi):
    """The chain ``_guarded_chain`` reads off ``phi``, written out as a
    formula: each level's guards as one antecedent after its binder."""
    binders, guards, f = _guarded_chain(phi)
    for at in range(len(binders), -1, -1):
        if guards[at]:
            f = Implies(conj(guards[at]), f)
        if at:
            f = Forall(binders[at - 1], f)
    return f


def test_guarded_chain_places_each_antecedent_after_its_last_binder():
    axioms = dict(tcat_axioms())
    assert pformat(guarded(axioms["C3-assoc"])) == (
        "forall x:O. forall y:O. forall z:O. forall w:O. forall f:A(x,y). "
        "forall g:A(y,z). forall h:A(x,z). comp(f,g,h) -> "
        "(forall k:A(z,w). forall gk:A(y,w). comp(g,k,gk) -> "
        "(forall hk:A(x,w). comp(h,k,hk) -> comp(f,gk,hk)))")
    assert pformat(guarded(axioms["I2-left-unit"])) == (
        "forall x:O. forall y:O. forall ix:A(x,x). I(ix) -> "
        "(forall f:A(x,y). comp(ix,f,f))")
    for phi in axioms.values():
        hoisted = guarded(phi)
        assert guarded(hoisted) == hoisted
        # each guard mentions the binder it follows
        binders, guards, _ = _guarded_chain(phi)
        for at in range(1, len(binders) + 1):
            assert all(binders[at - 1] in g.free_vars() for g in guards[at])


def test_guarded_chain_keeps_a_chain_whose_guards_are_in_place():
    axioms = dict(tcat_axioms())
    roots = [axioms[n] for n in ("E1-refl", "C1-total", "I1-exists")]
    for signame in ("lrg", "lrg_eq", "lcat"):
        sig = builtin_signature(signame)
        for K in sig.sorts:
            f = iso_formula(sig, K)[2]
            roots.extend(f.args if isinstance(f, And) else (f,))
    for phi in roots:
        assert guarded(phi) == phi
        binders, _, end = _guarded_chain(phi)
        f = phi
        for v in binders:
            assert f.var == v
            f = f.body
        assert f == end


def test_guarded_chain_walks_a_deep_chain_without_recursion(lcat):
    xs = [mk_var(lcat, f"x{i}", "O") for i in range(1500)]
    guard = Atom(mk_var(lcat, "", "A", {"d": xs[0], "c": xs[0]}))
    phi = Implies(guard, Top())
    for x in reversed(xs):
        phi = Forall(x, phi)
    binders, guards, end = _guarded_chain(phi)
    assert binders == xs and end == Top()
    assert guards[1] == [guard]
    assert not any(guards[:1] + guards[2:])


def test_tcat_check_builds_no_formula_node(monkeypatch):
    """The guarded chains of the tcat axioms compile with no ``forall``,
    ``->`` or ``&`` node built for them."""
    axioms = tcat_axioms()
    M = corpus()["WalkIso"]  # a fresh structure, so nothing is compiled
    built = []
    for cls in (Forall, Implies, And):
        init = cls.__init__

        def spy(self, *args, _init=init, **kwargs):
            built.append(type(self).__name__)
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", spy)
    assert satisfies(M, axioms)[0]
    assert built == []


def test_a_count_is_exact_up_to_the_bit_bound(models):
    """64 ** 4096 on Z_2, 24,577 bits, is counted, and so is the product
    of two; one power more, or a product of three, is refused before it
    is computed in full."""
    M = models["Z2Cat"]
    O = mk_var(M.sig, "", "O")
    e = Equiv("O", O, O)
    big = Implies(e, Implies(e, e))
    assert eval_card(M, big) == 64 ** 4096
    assert eval_card(M, And((big, big))) == 64 ** 8192
    with pytest.raises(FoldsError, match=f"exceeds {_MAX_BITS} bits"):
        eval_card(M, And((big, big, big)))
    with pytest.raises(FoldsError, match=f"exceeds {_MAX_BITS} bits"):
        eval_card(M, Implies(Implies(e, e), e))
    with pytest.raises(FoldsError, match=f"exceeds {_MAX_BITS} bits"):
        eval_card(M, Iff(e, Iff(e, e)))
