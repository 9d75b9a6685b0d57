from pathlib import Path

import pytest

from foldsat.cli import parse_signature, parse_structure
from foldsat.errors import SortMismatch
from foldsat.finsem import card_iso_elems, saturation_profile
from foldsat.isogen import (_fillers, _ind, generic_context, ind,
                            iso_formula, sort_equiv)
from foldsat.pretty import pformat
from foldsat.stdlib import builtin_signature
from foldsat.synkit import (And, Equiv, Exists, Forall, Implies, Top,
                            deepest_first, mk_var, seat)
from paper_checks import alpha_eq

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


def parallel_pair(sig):
    x, y = obj(sig, "x"), obj(sig, "y")
    f = arr(sig, "f", x, y)
    g = arr(sig, "g", x, y)
    return x, y, f, g


# -- _fillers -----------------------------------------------------------

def fillers(sig, R, p, x, y):
    """The ``~=`` under the ``forall``s of each conjunct ``_fillers``
    returns, with what ``seat`` puts at p and the pool that ``_ind``
    builds once per (x, y): their variables by sort, deepest first."""
    pool = {}
    for v in deepest_first(sig, x.dep() | y.dep()):
        pool.setdefault(v.sort, []).append(v)
    eqs = []
    side = seat(sig, p, x, y)
    assert side is not None
    names = {v.name for v in x.dep() | y.dep()}
    for phi in _fillers(sig, R, side, pool, names):
        while isinstance(phi, Forall):
            phi = phi.body
        assert isinstance(phi, Equiv) and phi.sort == R
        eqs.append(phi)
    return eqs


def test_arrow_equality_fillers_three_patterns(lrg_eq):
    x, y, f, g = parallel_pair(lrg_eq)
    p = lrg_eq.cls(("s",))
    eqs = fillers(lrg_eq, "eqA", p, f, g)
    # the non-distinguished position is filled by a fresh h, by f, or by g
    t_fillers = {dict(eq.alpha.proj)["t"] for eq in eqs}
    assert len(eqs) == 3
    assert f in t_fillers and g in t_fillers
    fresh = (t_fillers - {f, g}).pop()
    assert dict(fresh.proj) == {"d": x, "c": y}
    for eq in eqs:
        assert dict(eq.alpha.proj)["s"] == f
        assert dict(eq.beta.proj)["s"] == g
        assert dict(eq.alpha.proj)["t"] == dict(eq.beta.proj)["t"]


def test_shared_position_forces_equal_objects(lcat):
    """A position of R that p does not fix is filled by one variable on
    both sides, so x and y must agree wherever p reaches its boundary,
    or ``seat`` rules p out and ``_ind`` walks no group there.  That
    holds of p itself exactly when p factors through another position.
    A variable cannot sit at a position that sends two of its
    positions, along which it projects apart, to one."""
    x, y, z = obj(lcat, "x"), obj(lcat, "y"), obj(lcat, "z")
    p = lcat.cls(("i", "d"))
    # p is i followed by d (= i.c): i's filler would hold x and y
    assert seat(lcat, p, x, y) is None
    assert seat(lcat, p, x, x) == {p: (x, x)}
    factored = {t for _, below in lcat.filling("I") for _, t in below}
    assert factored == {p}
    # eqA's t shares s's endpoints, and comp's t1 shares t0's codomain
    # and t2 its domain, so f and g must agree at both ends
    d, c = lcat.cls(("d",)), lcat.cls(("c",))
    f, g, h = arr(lcat, "f", x, y), arr(lcat, "g", x, z), arr(lcat, "h", x, y)
    for q in ("s", "t0"):
        q = lcat.cls((q,))
        assert seat(lcat, q, f, g) is None and seat(lcat, q, g, f) is None
        assert seat(lcat, q, f, h) == {q: (f, h), lcat.compose(q, d): (x, x),
                                       lcat.compose(q, c): (y, y)}
    # neither f nor g can sit at I's position i, which sends d and c to
    # one position; two loops at x can
    i = lcat.cls(("i",))
    assert lcat.compose(i, d) == lcat.compose(i, c)
    assert seat(lcat, i, f, g) is None and seat(lcat, i, f, f) is None
    u, v = arr(lcat, "u", x, x), arr(lcat, "v", x, x)
    assert seat(lcat, i, u, v) == {i: (u, v), lcat.compose(i, d): (x, x)}
    assert list(_ind(lcat, f, g)) == []
    assert isinstance(ind(lcat, f, g), Top)


def test_fit_is_decided_per_position():
    """fork's R takes K at p2, where nothing is forced, but at p1 only
    over a boundary whose two points coincide.  So R tells apart the two
    elements of K over (u, v) that R holds, one of them, at p2: Ind(x, y)
    at K has a group for (R, p2) alone, and Fork is totally saturated."""
    sig = parse_signature((GOLDEN / "fork.folds").read_text())
    M = parse_structure((GOLDEN / "Fork.str").read_text(), sig)
    positions = [("R", p) for p in sig.hom("R", "K")]
    assert [p.name for _, p in positions] == ["p1", "p2"]
    groups = list(_ind(sig, *generic_context(sig, "K")))
    assert [positions[i] for i, _ in groups] == [("R", sig.cls(("p2",)))]
    assert card_iso_elems(M, "K", "k1", "k2") == 0
    assert saturation_profile(M) == {1: True, 2: True, 3: True,
                                     "total": True}


def test_object_fillers_for_arrow_sort(lcat):
    x, y = obj(lcat, "x"), obj(lcat, "y")
    p = lcat.cls(("d",))
    eqs = fillers(lcat, "A", p, x, y)
    c_fillers = {dict(eq.alpha.proj)["c"] for eq in eqs}
    assert len(eqs) == 3
    assert x in c_fillers and y in c_fillers
    fresh = (c_fillers - {x, y}).pop()
    assert fresh.proj == ()


# -- ind ----------------------------------------------------------------

def test_ind_level_one_is_top():
    for name in ("lrg", "lrg_eq", "lcat"):
        sig = builtin_signature(name)
        x = obj(sig, "x")
        f = arr(sig, "f", x, x)
        u = mk_var(sig, "u", "I", {"i": f})
        v = mk_var(sig, "v", "I", {"i": f})
        assert isinstance(ind(sig, u, v), Top)


def test_ind_lrg_parallel_arrows_is_top(lrg):
    _, _, f, g = parallel_pair(lrg)
    assert isinstance(ind(lrg, f, g), Top)


def test_ind_mismatched_sorts_rejected(lrg):
    x = obj(lrg, "x")
    f = arr(lrg, "f", x, x)
    with pytest.raises(SortMismatch):
        ind(lrg, x, f)


def test_arrow_equality_ind_six_conjuncts(lrg_eq):
    x, y, f, g = parallel_pair(lrg_eq)
    phi = ind(lrg_eq, f, g)
    assert isinstance(phi, And) and len(phi.args) == 6
    assert phi.free_vars() == {f, g, x, y}

    def eq_atomvar(a, b):
        return mk_var(lrg_eq, "e", "eqA", {"s": a, "t": b})

    h = arr(lrg_eq, "h", x, y)
    expected = [
        Forall(h, Equiv("eqA", eq_atomvar(f, h), eq_atomvar(g, h))),
        Equiv("eqA", eq_atomvar(f, f), eq_atomvar(g, f)),
        Equiv("eqA", eq_atomvar(f, g), eq_atomvar(g, g)),
        Forall(h, Equiv("eqA", eq_atomvar(h, f), eq_atomvar(h, g))),
        Equiv("eqA", eq_atomvar(f, f), eq_atomvar(f, g)),
        Equiv("eqA", eq_atomvar(g, f), eq_atomvar(g, g)),
    ]
    for want in expected:
        assert any(alpha_eq(got, want) for got in phi.args), pformat(want)


def test_ind_free_vars(lcat):
    x, y, f, g = parallel_pair(lcat)
    phi = ind(lcat, f, g)
    assert phi.free_vars() == {f, g, x, y}


def test_ind_deterministic(lcat):
    x, y, f, g = parallel_pair(lcat)
    assert pformat(ind(lcat, f, g)) == pformat(ind(lcat, f, g))


# -- iso_formula --------------------------------------------------------

def test_iso_formula_level_one_sorts_top():
    for name in ("lrg", "lrg_eq", "lcat"):
        sig = builtin_signature(name)
        for K in sig.sorts:
            if sig.level(K) == 1:
                _, _, phi = iso_formula(sig, K)
                assert isinstance(phi, Top)


def test_iso_formula_lcat_objects_six_arrow_families(lcat):
    x, y, phi = iso_formula(lcat, "O")
    assert isinstance(phi, And) and len(phi.args) == 6
    # only the arrow sort contributes; comp/I/eqA positions are vacuous
    for part in phi.args:
        inner = part.body if isinstance(part, Forall) else part
        assert isinstance(inner, Equiv) and inner.sort == "A"


def test_iso_formula_generic_context(lcat):
    x, y, _ = iso_formula(lcat, "A")
    assert x.sort == y.sort == "A"
    assert x.boundary() == y.boundary()
    assert x != y


def test_iso_formula_deterministic(lcat):
    for K in lcat.sorts:
        a = iso_formula(lcat, K)[2]
        b = iso_formula(lcat, K)[2]
        assert pformat(a) == pformat(b)


# -- sort_equiv ---------------------------------------------------------

def test_sort_equiv_shape(lrg):
    x, y = obj(lrg, "x"), obj(lrg, "y")
    a = arr(lrg, "axx", x, x)
    b = arr(lrg, "ayy", y, y)
    phi = sort_equiv(lrg, "A", a, b)
    assert isinstance(phi, And) and len(phi.args) == 3
    assert phi.free_vars() == {x, y}
    func, inj, surj = phi.args
    assert isinstance(func, Forall)
    assert func.body.untruncated
    assert surj.body.untruncated


def test_sort_equiv_lrg_endo_unfolds_to_identity_atoms(lrg):
    # Ind between endo-arrows in lrg is the single I-equivalence
    x, y = obj(lrg, "x"), obj(lrg, "y")
    f = arr(lrg, "f", x, x)
    g = arr(lrg, "g", y, y)
    phi = ind(lrg, f, g)
    assert isinstance(phi, Equiv) and phi.sort == "I"


def test_expand_equiv_level_decreases(lcat):
    # every Equiv node produced at the object level concerns sort A, and
    # expanding it only introduces Equiv nodes at strictly lower levels,
    # so full expansion terminates
    def equiv_sorts(f, acc):
        if isinstance(f, Equiv):
            acc.add(f.sort)
        elif isinstance(f, And):
            for a in f.args:
                equiv_sorts(a, acc)
        elif isinstance(f, (Forall, Exists)):
            equiv_sorts(f.body, acc)
        elif isinstance(f, Implies):
            equiv_sorts(f.lhs, acc)
            equiv_sorts(f.rhs, acc)
        return acc

    _, _, phi = iso_formula(lcat, "O")
    for part in phi.args:
        node = part.body if isinstance(part, Forall) else part
        expanded = sort_equiv(lcat, node.sort, node.alpha, node.beta)
        inner = equiv_sorts(expanded, set())
        for s in inner:
            assert lcat.level(s) < lcat.level(node.sort)
