from dataclasses import FrozenInstanceError, fields

import pytest

from foldsat.errors import FunctorialityError
from foldsat.sigcore import Arrow
from foldsat.stdlib import builtin_signature
from foldsat.synkit import (And, Atom, Bottom, Equiv, Exists, Forall, Iff,
                            Implies, Or, Top, Variable, compatible_sorts,
                            mk_var)
from paper_checks import alpha_eq, universal_closure


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
        names = [fd.name for fd in fields(t)]
        again = type(t)(**{n: getattr(t, n) for n in names})
        assert again == t and hash(again) == hash(t) and again is not t
        for n in names or ["extra"]:
            with pytest.raises(FrozenInstanceError):
                setattr(t, n, None)
