"""Hom-classes, functoriality checks and deep input against a brute-force
oracle.

The oracle enumerates every non-empty composable generator path, merges
paths one-step rewrites by the declared equations relate with union-find,
and takes the least member by (length, generator index) as the canonical
path.  ``Signature`` builds the same classes without enumerating paths.
"""

import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from foldsat.cli import main
from foldsat.errors import CompositionError, CycleError, FunctorialityError
from foldsat.finsem import validate_structure
from foldsat.sigcore import validate_signature
from foldsat.synkit import Variable, compatible_sorts, mk_var


# -- oracle --------------------------------------------------------------

def all_paths(raw):
    """Every non-empty composable generator path, with its endpoints."""
    out_of = {s: [] for s in raw["sorts"]}
    for g, d, c in raw["arrows"]:
        out_of[d].append((g, c))
    paths = []
    stack = [((g,), d, c) for g, d, c in raw["arrows"]]
    while stack:
        path, dom, cod = stack.pop()
        paths.append((path, dom, cod))
        for g, c in out_of[cod]:
            stack.append((path + (g,), dom, c))
    return paths


class Oracle:
    """Hom-classes of a raw signature by path enumeration."""

    def __init__(self, raw):
        self.paths = all_paths(raw)
        index = {g: i for i, (g, _, _) in enumerate(raw["arrows"])}
        parent = {p: p for p, _, _ in self.paths}

        def find(p):
            while parent[p] != p:
                parent[p] = parent[parent[p]]
                p = parent[p]
            return p

        for lhs, rhs in raw["equations"]:
            n = len(lhs)
            for p, _, _ in self.paths:
                for i in range(len(p) - n + 1):
                    if p[i:i + n] == lhs:
                        q = p[:i] + rhs + p[i + n:]
                        parent[find(p)] = find(q)

        def key(p):
            return (len(p), tuple(index[g] for g in p))

        members = {}
        for p, _, _ in self.paths:
            members.setdefault(find(p), []).append(p)
        self.canon = {}
        self.classes = {}  # canonical path -> all member paths
        for group in members.values():
            c = min(group, key=key)
            self.classes[c] = group
            for p in group:
                self.canon[p] = c
        ends = {p: (d, c) for p, d, c in self.paths}
        sort_index = {s: i for i, s in enumerate(raw["sorts"])}
        self.out = {s: [] for s in raw["sorts"]}
        for c in self.classes:
            self.out[ends[c][0]].append(c)
        for s in self.out:
            self.out[s].sort(key=lambda c: (sort_index[ends[c][1]], key(c)))
        self.ends = ends

    def respects(self, walk, start_sort, elems):
        """Whether every member path of every class out of
        ``start_sort`` has one image under ``walk`` at each element."""
        for c in self.out[start_sort]:
            for e in elems:
                if len({walk(p, e) for p in self.classes[c]}) > 1:
                    return False
        return True


# -- generators ----------------------------------------------------------

@st.composite
def dag_signatures(draw):
    """A random DAG signature of at most 5 sorts, with up to 3 equations
    between random parallel paths.  Arrows run from a higher-numbered sort
    to a lower one, and the declaration order of the sorts is shuffled."""
    n = draw(st.integers(1, 5))
    ranked = [f"S{i}" for i in range(n)]
    arrows = []
    if n > 1:
        ends = draw(st.lists(st.integers(1, n - 1).flatmap(
            lambda d: st.tuples(st.just(d), st.integers(0, d - 1))),
            max_size=7))
        arrows = [(f"g{i}", ranked[d], ranked[c])
                  for i, (d, c) in enumerate(ends)]
    sorts = draw(st.permutations(ranked))
    raw = {"sorts": list(sorts), "arrows": arrows, "equations": []}
    by_ends, by_first = {}, {}
    for p, d, c in all_paths(raw):
        by_ends.setdefault((d, c), []).append(p)
        by_first.setdefault((p[0], c), []).append(p)
    # pairs sharing a first generator, as in i.d = i.c, drawn as often as
    # any parallel pair: they are what makes a sort incompatible with a
    # variable
    parallel = sorted(ps for groups in (by_ends, by_first)
                      for ps in groups.values() if len(ps) > 1)
    if parallel:
        for _ in range(draw(st.integers(0, 3))):
            ps = draw(st.sampled_from(parallel))
            lhs, rhs = draw(st.permutations(ps))[:2]
            raw["equations"].append((lhs, rhs))
    return raw


def _codomains_first(raw):
    sig = validate_signature(raw)
    return sorted(sig.sorts, key=lambda s: -sig.level(s)), sig


def _walk_vars(path, v):
    for g in path:
        v = dict(v.proj)[g]
    return v


def _variable_pool(sig, order, data):
    """Two variables of each sort whose positions can be filled, built
    without checks, so a variable may break an equation."""
    pool = {s: [] for s in sig.sorts}
    for s in order:
        gens = sig.out_gens(s)
        if any(not pool[g.cod] for g in gens):
            continue
        for _ in range(2):
            proj = tuple((g.name, data.draw(st.sampled_from(pool[g.cod])))
                         for g in gens)
            pool[s].append(Variable(f"v{sum(map(len, pool.values()))}",
                                    s, proj))
    return pool


# -- hom-classes ---------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(dag_signatures())
def test_classes_match_path_enumeration(raw):
    sig = validate_signature(raw)
    oracle = Oracle(raw)
    for s in sig.sorts:
        assert [a.path for a in sig.out(s)] == oracle.out[s]
        for t in sig.sorts:
            want = [c for c in oracle.out[s] if oracle.ends[c][1] == t]
            if s == t:
                want = [()] + want
            assert [a.path for a in sig.hom(s, t)] == want
    for p, d, c in oracle.paths:
        a = sig.cls(p)
        assert (a.path, a.dom, a.cod) == (oracle.canon[p], d, c)
    for s in sig.sorts:
        for f in (sig.hom(s, s)[0],) + sig.out(s):
            for g in (sig.hom(f.cod, f.cod)[0],) + sig.out(f.cod):
                h = sig.compose(f, g)
                assert h.path == (oracle.canon[f.path + g.path]
                                  if f.path + g.path else ())
                assert (h.dom, h.cod) == (s, g.cod)


# -- functoriality -------------------------------------------------------

def draw_structure(sig, order, data):
    """Carriers of 0 to 2 elements per sort, with one added to an empty
    codomain of an arrow out of a non-empty sort, and total maps drawn at
    random, so the maps may break an equation."""
    carriers = {s: [f"{s}e{i}" for i in range(data.draw(st.integers(0, 2)))]
                for s in sig.sorts}
    for s in reversed(order):
        for g in sig.out_gens(s):
            if carriers[s] and not carriers[g.cod]:
                carriers[g.cod].append(f"{g.cod}e0")
    maps = {}
    for g in sig.gens:
        maps[g.name] = {e: data.draw(st.sampled_from(carriers[g.cod]))
                        for e in carriers[g.dom]}
    return carriers, maps


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(dag_signatures(), st.data())
def test_validate_structure_matches_class_check(raw, data):
    order, sig = _codomains_first(raw)
    carriers, maps = draw_structure(sig, order, data)
    oracle = Oracle(raw)

    def walk(path, e):
        for g in path:
            e = maps[g][e]
        return e

    want = all(oracle.respects(walk, s, carriers[s]) for s in sig.sorts)
    raw_structure = {"carriers": carriers, "maps": maps}
    if want:
        validate_structure(sig, raw_structure)
    else:
        with pytest.raises(FunctorialityError):
            validate_structure(sig, raw_structure)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(dag_signatures(), st.data())
def test_mk_var_matches_class_check(raw, data):
    """Fillers are drawn from a pool of variables built without checks,
    so a filler may itself break an equation."""
    order, sig = _codomains_first(raw)
    pool = _variable_pool(sig, order, data)
    s = data.draw(st.sampled_from([s for s in sig.sorts if all(
        pool[g.cod] for g in sig.out_gens(s))]))
    fillers = {g.name: data.draw(st.sampled_from(pool[g.cod]))
               for g in sig.out_gens(s)}
    oracle = Oracle(raw)
    candidate = Variable("new", s, tuple(
        (g.name, fillers[g.name]) for g in sig.out_gens(s)))
    want = oracle.respects(_walk_vars, s, [candidate])
    if want:
        assert mk_var(sig, "new", s, fillers) == candidate
    else:
        with pytest.raises(FunctorialityError):
            mk_var(sig, "new", s, fillers)


# -- closed form and deep input ------------------------------------------

def diamond_stack(k):
    """X_j -a_j-> L_j -l_j-> X_{j-1} and X_j -b_j-> R_j -r_j-> X_{j-1},
    with a_j.l_j = b_j.r_j, for j = 1..k: 2^k generator paths from X_k
    to X_0, but k(9k+1)/2 hom-classes."""
    sorts, arrows, eqs = ["X0"], [], []
    for j in range(1, k + 1):
        sorts += [f"L{j}", f"R{j}", f"X{j}"]
        arrows += [(f"l{j}", f"L{j}", f"X{j - 1}"),
                   (f"r{j}", f"R{j}", f"X{j - 1}"),
                   (f"a{j}", f"X{j}", f"L{j}"),
                   (f"b{j}", f"X{j}", f"R{j}")]
        eqs.append(((f"a{j}", f"l{j}"), (f"b{j}", f"r{j}")))
    return {"sorts": sorts, "arrows": arrows, "equations": eqs}


def test_diamond13_closed_form():
    start = time.perf_counter()
    sig = validate_signature(diamond_stack(13))
    assert time.perf_counter() - start < 1.0
    assert sum(len(sig.out(s)) for s in sig.sorts) == 13 * (9 * 13 + 1) // 2
    assert sig.height == 27
    assert len(sig.hom("X13", "X0")) == 1


def _cycle(n):
    return {"sorts": [f"S{i}" for i in range(n)],
            "arrows": [(f"g{i}", f"S{i}", f"S{(i + 1) % n}")
                       for i in range(n)],
            "equations": []}


def test_deep_cycle_is_cycle_error():
    with pytest.raises(CycleError):
        validate_signature(_cycle(1500))


def test_deep_cycle_cli_exits_2(tmp_path, capsys):
    raw = _cycle(1500)
    decls = "\n".join(f"  sort {d} {{ {g}: {c} }};"
                      for g, d, c in raw["arrows"])
    path = tmp_path / "cycle.folds"
    path.write_text(f"signature cycle {{\n{decls}\n}}\n")
    assert main(["check-sig", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cycle through sorts")


def _add_fork_equation(raw, by_ends, data):
    """Add an equation g.p1 = g.p2 for two parallel paths p1, p2 after a
    generator g, where the signature has such a pair."""
    forks = [(g, p1, p2) for g, _, c in raw["arrows"]
             for (d, _), ps in sorted(by_ends.items()) if d == c
             for p1 in ps for p2 in ps if p1 < p2]
    if forks:
        g, p1, p2 = data.draw(st.sampled_from(forks))
        raw["equations"].append(((g,) + p1, (g,) + p2))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(dag_signatures(), st.data())
def test_compatible_sorts_matches_pairwise_check(raw, data):
    """R is compatible with x when it has an arrow q: R -> K, and any
    two positions of x that such a q composes to the same class project
    to one variable.
    So that incompatible sorts occur, an equation g.p1 = g.p2 is added
    where the signature allows one, and x is drawn at a sort with two
    parallel paths out of it where there is one."""
    by_ends = {}
    for p, d, c in all_paths(raw):
        by_ends.setdefault((d, c), []).append(p)
    _add_fork_equation(raw, by_ends, data)
    order, sig = _codomains_first(raw)
    pool = _variable_pool(sig, order, data)
    forked = {d for (d, _), ps in by_ends.items() if len(ps) > 1}
    x = data.draw(st.sampled_from(
        [v for s in sig.sorts if s in forked for v in pool[s]]
        or [v for vs in pool.values() for v in vs]))
    K = x.sort
    want = tuple(
        R for R in sig.sorts if sig.level(R) < sig.level(K) and sig.hom(R, K)
        and all(_walk_vars(p1.path, x) == _walk_vars(p2.path, x)
                for q in sig.hom(R, K) for p1 in sig.out(K)
                for p2 in sig.out(K)
                if sig.compose(q, p1) == sig.compose(q, p2)))
    assert compatible_sorts(sig, x) == want


def test_compatible_sorts_compares_positions_per_arrow():
    """q1.a = q2.b relates two different arrows R -> K, so it puts no
    condition on x: only positions one arrow q identifies must agree."""
    sig = validate_signature({
        "sorts": ["E", "K", "R"],
        "arrows": [("a", "K", "E"), ("b", "K", "E"),
                   ("q1", "R", "K"), ("q2", "R", "K")],
        "equations": [(("q1", "a"), ("q2", "b"))]})
    e1, e2 = mk_var(sig, "e1", "E"), mk_var(sig, "e2", "E")
    x = mk_var(sig, "x", "K", {"a": e1, "b": e2})
    assert compatible_sorts(sig, x) == ("R",)


# -- the signature's tables against what they replace -----------------------

@settings(max_examples=200, deadline=None)
@given(dag_signatures())
def test_compose_matches_fold(raw):
    """Each composite is the class the path fold gives, and a
    non-composable pair raises."""
    sig = validate_signature(raw)
    arrows = [a for s in sig.sorts for a in (sig.hom(s, s)[0],) + sig.out(s)]
    for f in arrows:
        for g in arrows:
            if f.cod == g.dom:
                assert sig.compose(f, g) is sig._fold(f.path, g)
            else:
                with pytest.raises(CompositionError):
                    sig.compose(f, g)


@settings(max_examples=200, deadline=None)
@given(dag_signatures())
def test_filling_lists_each_position_after_its_images(raw):
    """``filling(K)`` lists each position out of K once, deepest codomain
    first and in ``out`` order within a level; each pair is a generator
    out of the position's codomain and the composite with it, which comes
    earlier in the list."""
    sig = validate_signature(raw)
    for K in sig.sorts:
        table = sig.filling(K)
        order = [q for q, _ in table]
        out = list(sig.out(K))
        assert order == sorted(out, key=lambda q: (-sig.level(q.cod),
                                                   out.index(q)))
        for i, (q, below) in enumerate(table):
            assert [g for g, _ in below] \
                == [g.name for g in sig.out_gens(q.cod)]
            for g, t in below:
                assert t == sig.compose(q, sig.cls((g,)))
                assert t in order[:i]
        assert sig.filling(K) is table


def compatible_sorts_by_loop(sig, x):
    """``compatible_sorts`` by one pass over each arrow q: R -> K, which
    records x's projection at each composite q∘p and finds a clash; a
    sort with no such arrow is not listed."""
    K = x.sort
    lv = sig.level(K)
    if lv == 1:
        return ()
    positions = [(p, x.proj_along(p.path)) for p in sig.out(K)]
    out = []
    for R in sig.sorts:
        if sig.level(R) >= lv:
            continue
        image, hom = {}, sig.hom(R, K)
        if hom and all(image.setdefault((q.path, sig.compose(q, p).path), v)
                       == v for q in hom for p, v in positions):
            out.append(R)
    return tuple(out)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(dag_signatures(), st.data())
def test_compatible_sorts_matches_loop(raw, data):
    by_ends = {}
    for p, d, c in all_paths(raw):
        by_ends.setdefault((d, c), []).append(p)
    _add_fork_equation(raw, by_ends, data)
    order, sig = _codomains_first(raw)
    pool = _variable_pool(sig, order, data)
    for x in (v for vs in pool.values() for v in vs):
        assert compatible_sorts(sig, x) == compatible_sorts_by_loop(sig, x)


def mk_var_full_walk(sig, name, sort, fillers):
    """``mk_var`` as it was before validity marks: sorts checked, then
    every variable of the dependency closure checked against the
    equations at its sort."""
    proj = []
    for g in sig.out_gens(sort):
        v = fillers[g.name]
        assert v.sort == g.cod
        proj.append((g.name, v))
    var = Variable(name, sort, tuple(proj))
    stack, seen = [var], set()
    while stack:
        w = stack.pop()
        if id(w) in seen:
            continue
        seen.add(id(w))
        for lhs, rhs in sig.equations_at(w.sort):
            if w.proj_along(lhs) != w.proj_along(rhs):
                raise FunctorialityError(
                    f"variable {name}:{sort} breaks equation "
                    f"{'.'.join(lhs)} = {'.'.join(rhs)} at {w.name}")
        stack.extend(v for _, v in w.proj)
    return var


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(dag_signatures(), st.data())
def test_validity_marks_match_full_walk(raw, data):
    """Fillers come from a pool of raw variables, which may break an
    equation, and of variables ``mk_var`` built and so marked.  Each
    call accepts or rejects as the full walk does, with the same
    message; what it accepts joins the pool."""
    order, sig = _codomains_first(raw)
    pool = _variable_pool(sig, order, data)
    sorts = [s for s in sig.sorts
             if all(pool[g.cod] for g in sig.out_gens(s))]
    for i in range(data.draw(st.integers(1, 12))):
        s = data.draw(st.sampled_from(sorts))
        fillers = {g.name: data.draw(st.sampled_from(pool[g.cod]))
                   for g in sig.out_gens(s)}
        try:
            want = mk_var_full_walk(sig, f"m{i}", s, fillers)
        except FunctorialityError as exc:
            with pytest.raises(FunctorialityError) as got:
                mk_var(sig, f"m{i}", s, fillers)
            assert str(got.value) == str(exc)
            continue
        var = mk_var(sig, f"m{i}", s, fillers)
        assert var == want
        pool[s].append(var)
