from dataclasses import FrozenInstanceError, fields, make_dataclass
from pathlib import Path

import pytest

from foldsat.cli import parse_signature
from foldsat.errors import FunctorialityError
from foldsat.homspan import Hom, Span, SpanResult, identity_hom
from foldsat.sigcore import Arrow, Gen
from foldsat.stdlib import FiniteCategory, builtin_signature
from foldsat.synkit import (And, Atom, Bottom, Equiv, Exists, Forall, Iff,
                            Implies, Or, Top, Variable, compatible_sorts,
                            mk_var)
from paper_checks import alpha_eq, corpus, universal_closure

GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.fixture(scope="module")
def lrg():
    return builtin_signature("lrg")


@pytest.fixture(scope="module")
def lrg_eq():
    return builtin_signature("lrg_eq")


@pytest.fixture(scope="module")
def lcat():
    return builtin_signature("lcat")


def obj(sig, name):
    return mk_var(sig, name, "O")


def arr(sig, name, x, y):
    return mk_var(sig, name, "A", {"d": x, "c": y})


def test_dep_of_arrow_variable(lrg):
    x, y = obj(lrg, "x"), obj(lrg, "y")
    f = arr(lrg, "f", x, y)
    assert f.dep() == {f, x, y}
    assert f.boundary() == {x, y}


def test_dep_of_object_variable(lrg):
    x = obj(lrg, "x")
    assert x.dep() == {x}
    assert x.boundary() == frozenset()


def test_dep_of_composition_witness(lcat):
    x, y, z = (obj(lcat, n) for n in "xyz")
    f = arr(lcat, "f", x, y)
    g = arr(lcat, "g", y, z)
    h = arr(lcat, "h", x, z)
    w = mk_var(lcat, "w", "comp", {"t0": f, "t1": g, "t2": h})
    assert w.dep() == {w, f, g, h, x, y, z}


def test_identity_witness_boundary(lrg):
    x = obj(lrg, "x")
    f = arr(lrg, "f", x, x)
    u = mk_var(lrg, "u", "I", {"i": f})
    assert u.boundary() == {f, x}


def test_identity_witness_needs_endo_boundary(lrg):
    x, y = obj(lrg, "x"), obj(lrg, "y")
    f = arr(lrg, "f", x, y)
    with pytest.raises(FunctorialityError):
        mk_var(lrg, "u", "I", {"i": f})


def test_composition_witness_respects_equations(lcat):
    x, y, z = (obj(lcat, n) for n in "xyz")
    f = arr(lcat, "f", x, y)
    g = arr(lcat, "g", y, z)
    bad = arr(lcat, "h", y, z)  # wrong domain for t2
    with pytest.raises(FunctorialityError):
        mk_var(lcat, "w", "comp", {"t0": f, "t1": g, "t2": bad})


def test_free_vars_of_and_or_is_the_union(lrg):
    x, y, z = obj(lrg, "x"), obj(lrg, "y"), obj(lrg, "z")
    f, g = arr(lrg, "f", x, y), arr(lrg, "g", y, z)
    for node in (And, Or):
        assert node((Atom(f), Top())).free_vars() == {x, y}
        assert node((Atom(f), Atom(g))).free_vars() == {x, y, z}


def test_alpha_eq_bound_renaming(lrg_eq):
    x, y = obj(lrg_eq, "x"), obj(lrg_eq, "y")
    f = mk_var(lrg_eq, "f", "A", {"d": x, "c": y})

    def closed(hname):
        h = mk_var(lrg_eq, hname, "A", {"d": x, "c": y})
        e = mk_var(lrg_eq, "e", "eqA", {"s": f, "t": h})
        return Forall(h, Atom(e))

    assert alpha_eq(closed("h"), closed("k"))
    assert alpha_eq(closed("h"), closed("h"))


def test_alpha_eq_distinguishes_repeated_variables(lrg_eq):
    x, y = obj(lrg_eq, "x"), obj(lrg_eq, "y")
    f = mk_var(lrg_eq, "f", "A", {"d": x, "c": y})
    g = mk_var(lrg_eq, "g", "A", {"d": x, "c": y})
    ff = mk_var(lrg_eq, "e", "eqA", {"s": f, "t": f})
    fg = mk_var(lrg_eq, "e", "eqA", {"s": f, "t": g})
    assert not alpha_eq(Atom(ff), Atom(fg))


def test_universal_closure_empty(lrg):
    x = obj(lrg, "x")
    f = arr(lrg, "f", x, x)
    phi = Atom(mk_var(lrg, "u", "I", {"i": f}))
    assert universal_closure(lrg, phi, []) == phi


def test_universal_closure_orders_dependencies(lrg):
    x = obj(lrg, "x")
    f = arr(lrg, "f", x, x)
    phi = Atom(mk_var(lrg, "u", "I", {"i": f}))
    closed = universal_closure(lrg, phi, [f, x])
    # x (level 3, no boundary) must be quantified outermost
    assert isinstance(closed, Forall) and closed.var == x
    assert isinstance(closed.body, Forall) and closed.body.var == f
    assert closed.free_vars() == frozenset()


def test_compatible_sorts_examples(lrg, lrg_eq):
    x, y = obj(lrg, "x"), obj(lrg, "y")
    f = arr(lrg, "f", x, y)
    assert compatible_sorts(lrg, f) == ()

    x2, y2 = obj(lrg_eq, "x"), obj(lrg_eq, "y")
    f2 = mk_var(lrg_eq, "f", "A", {"d": x2, "c": y2})
    assert compatible_sorts(lrg_eq, f2) == ("eqA",)

    assert compatible_sorts(lrg, x) == ("A", "I")


def test_endo_arrow_is_I_compatible(lrg):
    x = obj(lrg, "x")
    f = arr(lrg, "f", x, x)
    assert compatible_sorts(lrg, f) == ("I",)


def test_compatible_sorts_need_a_position_of_the_sort():
    """A sort with no arrow to x's sort is not listed: apart's B sits
    under R alone and O under A alone."""
    sig = parse_signature((GOLDEN / "apart.folds").read_text())
    assert compatible_sorts(sig, mk_var(sig, "x", "O")) == ("A",)
    assert compatible_sorts(sig, mk_var(sig, "x", "B")) == ("R",)


def test_same_boundary_same_compatible_sorts(lrg_eq, lcat):
    for sig in (lrg_eq, lcat):
        x, y = obj(sig, "x"), obj(sig, "y")
        f = mk_var(sig, "f", "A", {"d": x, "c": y})
        g = mk_var(sig, "g", "A", {"d": x, "c": y})
        assert compatible_sorts(sig, f) == compatible_sorts(sig, g)


def test_free_vars_of_atom_is_boundary(lrg):
    x = obj(lrg, "x")
    f = arr(lrg, "f", x, x)
    u = mk_var(lrg, "u", "I", {"i": f})
    assert Atom(u).free_vars() == {f, x}


def test_terms_keep_the_frozen_dataclass_contract():
    """Each term class, ``sigcore.Arrow`` among them, builds its instances
    in one step, and keeps the defaults, keyword construction, repr and
    immutability of a frozen dataclass; the cached ``dep``, ``boundary``
    and free variables rely on the last."""
    o = Variable("o", "O")
    f = Variable("f", "A", (("d", o), ("c", o)))
    assert o.proj == () and Variable(name="o", sort="O") == o
    e = Exists(f, Top())
    assert e.untruncated is False
    assert Exists(f, Top(), True).untruncated is True
    assert repr(e) == "Exists(var=f:A(o,o), body=Top(), untruncated=False)"
    assert repr(Forall(o, Implies(Atom(f), Bottom()))) == (
        "Forall(var=o:O, body=Implies(lhs=Atom(var=f:A(o,o)), "
        "rhs=Bottom()))")
    assert repr(Equiv("A", f, f)) == (
        "Equiv(sort='A', alpha=f:A(o,o), beta=f:A(o,o))")
    terms = [o, f, Top(), Bottom(), Atom(f), And((Top(), Bottom())),
             Or((Top(),)), Implies(Top(), Bottom()), Iff(Top(), Top()),
             Forall(o, Top()), e, Equiv("A", f, f), Arrow(("d",), "A", "O")]
    for t in terms:
        names = type(t)._fields
        again = type(t)(**{n: getattr(t, n) for n in names})
        assert again == t and hash(again) == hash(t) and again is not t
        for n in names or ["extra"]:
            with pytest.raises(FrozenInstanceError):
                setattr(t, n, None)


def _twin_cases():
    """Each value class, the fields of its ``dataclass(frozen=True)``
    twin, as ``(name,)`` or ``(name, default)``, and argument tuples to
    build both from; the first omits every default."""
    o = Variable("o", "O")
    f = Variable("f", "A", (("d", o), ("c", o)))
    M, N = corpus()["TermCat"], corpus()["Z2Cat"]
    h = identity_hom(M)
    span = Span(M, h, h)
    two = [("lhs",), ("rhs",)]
    return [
        (Variable, [("name",), ("sort",), ("proj", ())],
         [("o", "O"), ("f", "A", (("d", o), ("c", o))), ("o", "A")]),
        (Top, [], [()]),
        (Bottom, [], [()]),
        (Atom, [("var",)], [(f,), (o,)]),
        (And, [("args",)], [((Top(),),), ((Top(), Bottom()),)]),
        (Or, [("args",)], [((Top(),),), ((Bottom(),),)]),
        (Implies, two, [(Top(), Bottom()), (Bottom(), Top())]),
        (Iff, two, [(Top(), Bottom()), (Top(), Bottom())]),
        (Forall, [("var",), ("body",)], [(o, Top()), (f, Top())]),
        (Exists, [("var",), ("body",), ("untruncated", False)],
         [(o, Top()), (o, Top(), True), (o, Top(), False)]),
        (Equiv, [("sort",), ("alpha",), ("beta",)],
         [("A", f, f), ("O", o, o)]),
        (Arrow, [("path",), ("dom",), ("cod",)],
         [(("d",), "A", "O"), ((), "O", "O")]),
        (Gen, [("name",), ("dom",), ("cod",)],
         [("d", "A", "O"), ("c", "A", "O")]),
        (Hom, [("src",), ("dst",), ("maps",)],
         [(M, M, h.maps), (M, N, {}), (M, M, dict(h.maps))]),
        (Span, [("apex",), ("left",), ("right",)], [(M, h, h), (N, h, h)]),
        (SpanResult, [("status",), ("span", None)],
         [("absent",), ("found", span), ("absent", None)]),
        (FiniteCategory, [("name",), ("objects",), ("arrows",),
                          ("compose",), ("identities",)],
         [("c", (), (), {}, {}), ("TermCat", ("*",), (("id", "*", "*"),),
                                  {("id", "id"): "id"}, {"*": "id"})]),
    ]


def test_value_classes_match_a_frozen_dataclass_twin():
    """Every class ``sigcore._term`` builds has the fields, defaults,
    positional and keyword construction, repr, equality, hash and
    immutability of the same class declared as a frozen dataclass."""
    built, twins = [], []
    for cls, spec, samples in _twin_cases():
        twin = make_dataclass(cls.__name__, [(n, object, *d)
                                              for n, *d in spec],
                              frozen=True)
        names = tuple(fd.name for fd in fields(twin))
        assert cls._fields == names, cls
        for args in samples:
            t, w = cls(*args), twin(*args)
            assert all(getattr(t, n) == getattr(w, n) for n in names)
            assert cls(**{n: getattr(t, n) for n in names}) == t
            if cls not in (Arrow, Variable):  # each prints its own way
                assert repr(t) == repr(w)
            try:
                expected = hash(w)
            except TypeError:
                with pytest.raises(TypeError):
                    hash(t)
            else:
                assert hash(t) == expected
            for n in names or ["extra"]:
                for change, message in ((lambda x: setattr(x, n, None),
                                         "cannot assign to field"),
                                        (lambda x: delattr(x, n),
                                         "cannot delete field")):
                    for x in (t, w):
                        with pytest.raises(FrozenInstanceError,
                                           match=f"{message} '{n}'"):
                            change(x)
            assert (t == args) is (w == args) is False
            built.append(t)
            twins.append(w)
        for c in (cls, twin):
            with pytest.raises(TypeError):
                c(*[None] * (len(names) + 1))
    # within a class and across classes, such as Implies and Iff
    assert ([a == b for a in built for b in built]
            == [a == b for a in twins for b in twins])
