"""The four benchmark workloads: generated inputs, jobs and oracles.

Each workload is a batch of jobs.  A job is one CLI-equivalent command
(`check-model`, `eval --card`, `sat --total`, `hsip`, `equiv`,
`check-sig`, `levels`, `gen-iso`) over `.folds`/`.str`/`.thy` text made
here from `foldsat.stdlib`.  The seed draws the family members, the
element and sort names and the carrier order; no verdict depends on
them, so every seed has the same answers and the same job sizes.

Every job carries an oracle: a zero-argument callable that returns the
expected answer from something other than the timed call (the
construction of the input, a brute-force oracle of `foldsat.stdlib`, or
a closed form).  Oracles run after set-up and are not part of
`setup_s`.

Wall-tier jobs are sized far past what the current code decides within
the per-job limit (at least three times the limit on a 2-core x86-64
machine); they time out and count as undecided, so an asymptotic fix
shows as a higher `decided_frac`.  Decided jobs take at most a third of
the limit there, so no job sits near it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Formulas for `eval --card` with their closed forms over a finite
# category C.  The `~=` count is 1: arrows of a category are told apart
# by eqA, so Ind on a hom-set is equality and the identity is the only
# bijection counted.  `test_bench` checks this against
# `finsem.equiv_card_via_bijections` on small members.
EVAL_FORMULAS = {
    "endo-equiv": ("forall x:O. A(x,x) ~= A(x,x)", lambda C: 1),
    "comp-count": ("sum x:O. sum y:O. sum z:O. sum f:A(x,y). "
                   "sum g:A(y,z). sum h:A(x,z). comp(f,g,h)",
                   lambda C: len(C.compose)),
}

# Which level-1 witness a mutant drops, and the axiom it must fail.
MUTANT_AXIOM = {"eqA": "E1-refl", "I": "I1-exists", "comp": "C1-total"}


@dataclass
class Job:
    slot: str        # stable name of the job within its workload
    kind: str        # the CLI command it stands for
    texts: dict      # file and argument texts, keyed by CLI role
    oracle: object   # zero-argument callable giving the expected answer
    wall: bool = False
    expected: object = None


@dataclass(frozen=True)
class Workload:
    why: str
    slots: tuple     # (builder name, args...) in run order, walls last


# -- families -------------------------------------------------------------

class Families:
    """Builds categories, structures and text from one seed.

    ``fs`` is the namespace of freshly imported foldsat modules; ``tr``
    records the time spent inside `foldsat.stdlib` while tracing.
    """

    def __init__(self, fs, seed, tr):
        self.fs = fs
        self.rng = random.Random(seed)
        self.tr = tr
        self._names = set()
        with tr.span("stdlib.build"):
            lcat = fs.stdlib.builtin_signature("lcat")
            tcat = fs.stdlib.tcat_axioms()
        self.lcat_text = fs.cli.format_signature(lcat)
        self.tcat_text = fs.cli.format_theory(tcat, "tcat", lcat)

    def fresh(self, prefix):
        while True:
            name = f"{prefix}{self.rng.randrange(10 ** 5)}"
            if name not in self._names:
                self._names.add(name)
                return name

    # categories (oracle side)

    def poset(self, n, pairs):
        """A random poset on n elements with exactly ``pairs`` strictly
        comparable pairs, so that every seed's member costs the same."""
        objs = [self.fresh("p") for _ in range(n)]
        while True:
            covers = [(objs[i], objs[j]) for i in range(n)
                      for j in range(i + 1, n) if self.rng.random() < 0.3]
            with self.tr.span("stdlib.build"):
                C = self.fs.stdlib._poset_category(self.fresh("P"), objs,
                                                   covers)
            if len(C.arrows) == n + pairs:
                return C

    def chain(self, n):
        objs = [self.fresh("c") for _ in range(n)]
        with self.tr.span("stdlib.build"):
            return self.fs.stdlib._poset_category(
                self.fresh("Chain"), objs, list(zip(objs, objs[1:])))

    def vee(self, k, up):
        """V (two minimal elements below a top) or Λ (two maximal
        elements above a bottom), plus k discrete objects; the same
        element names in both, so only the order tells them apart."""
        a, b, c = "va", "vb", "vc"
        objs = [a, b, c] + [f"d{i}" for i in range(k)]
        covers = [(a, c), (b, c)] if up else [(c, a), (c, b)]
        with self.tr.span("stdlib.build"):
            return self.fs.stdlib._poset_category(
                ("V" if up else "L") + str(k), objs, covers)

    def cyclic(self, n):
        g = [self.fresh("g") for _ in range(n)]
        comp = {(g[a], g[b]): g[(a + b) % n]
                for a in range(n) for b in range(n)}
        with self.tr.span("stdlib.build"):
            return self.fs.stdlib.FiniteCategory(
                f"Z{n}", ("o",), tuple((x, "o", "o") for x in g), comp,
                {"o": g[0]})

    def indiscrete(self, n):
        objs = [self.fresh("o") for _ in range(n)]
        arr = {(x, y): self.fresh("u") for x in objs for y in objs}
        comp = {(arr[x, y], arr[y, z]): arr[x, z]
                for x in objs for y in objs for z in objs}
        with self.tr.span("stdlib.build"):
            return self.fs.stdlib.FiniteCategory(
                f"Indisc{n}", tuple(objs),
                tuple((a, x, y) for (x, y), a in arr.items()), comp,
                {x: arr[x, x] for x in objs})

    # structures and text

    def structure(self, C):
        with self.tr.span("stdlib.build"):
            return self.fs.stdlib.category_to_structure(C)

    def relabel(self, M, drop=None, dup=None, at=None):
        """M with fresh element names and shuffled carriers.  ``drop``
        removes the element of that level-1 sort all of whose positions
        are the arrow ``at``; ``dup`` adds a second element over the
        boundary of that element.  A mutant keeps a fixed witness and
        its carriers' order: the evaluator stops at the first failing
        assignment, so a random choice would set the job's cost."""
        sig = M.sig
        ren = {K: {e: self.fresh(K[0].lower()) for e in M.carrier(K)}
               for K in sig.sorts}
        carriers = {K: [ren[K][e] for e in M.carrier(K)] for K in sig.sorts}
        maps = {g.name: {ren[g.dom][e]: ren[g.cod][v]
                         for e, v in M.maps[g.name].items()}
                for g in sig.gens}
        for K in (drop, dup):
            if K is None:
                continue
            orig = ren[K][next(e for e in M.carrier(K) if all(
                M.apply_gen(g.name, e) == at for g in sig.out_gens(K)))]
            if K == drop:
                carriers[K].remove(orig)
                for g in sig.out_gens(K):
                    del maps[g.name][orig]
            else:
                copy = self.fresh(K[0].lower())
                carriers[K].append(copy)
                for g in sig.out_gens(K):
                    maps[g.name][copy] = maps[g.name][orig]
        if drop is None:
            for K in carriers:
                self.rng.shuffle(carriers[K])
        N = self.fs.finsem.validate_structure(
            sig, {"carriers": carriers, "maps": maps})
        return self.fs.cli.format_structure(N, self.fresh("S"))

    def text(self, C, drop=None, dup=None):
        """C as structure text; a mutant drops or duplicates the witness
        over the identity of C's first object."""
        return self.relabel(self.structure(C), drop, dup,
                            C.identities[C.objects[0]])


# -- signatures -----------------------------------------------------------

def diamond_raw(k):
    """A stack of k diamonds: X_j -a_j-> L_j -l_j-> X_{j-1} and
    X_j -b_j-> R_j -r_j-> X_{j-1} with a_j.l_j = b_j.r_j.  It has
    k(9k+1)/2 non-identity hom-classes but 2^k generator paths from X_k
    to X_0."""
    sorts, arrows, eqs = ["X0"], [], []
    for j in range(1, k + 1):
        sorts += [f"L{j}", f"R{j}", f"X{j}"]
        arrows += [(f"l{j}", f"L{j}", f"X{j - 1}"),
                   (f"r{j}", f"R{j}", f"X{j - 1}"),
                   (f"a{j}", f"X{j}", f"L{j}"),
                   (f"b{j}", f"X{j}", f"R{j}")]
        eqs.append(((f"a{j}", f"l{j}"), (f"b{j}", f"r{j}")))
    return {"sorts": sorts, "arrows": arrows, "equations": eqs}


def diamond_answer(k):
    levels = {"X0": 2 * k + 1}
    for j in range(1, k + 1):
        levels.update({f"L{j}": 2 * (k - j) + 2, f"R{j}": 2 * (k - j) + 2,
                       f"X{j}": 2 * (k - j) + 1})
    return {"height": 2 * k + 1, "levels": levels,
            "hom_classes": k * (9 * k + 1) // 2}


# Levels and non-identity hom-class counts of the built-in signatures,
# by hand from their arrows and equations (lcat: A 2, I 2, eqA 4 and
# comp 6, since t0.d = t2.d, t1.d = t0.c and t1.c = t2.c).
BUILTIN_LEVELS = {
    "lrg": {"O": 3, "A": 2, "I": 1},
    "lrg_eq": {"O": 3, "A": 2, "I": 1, "eqA": 1},
    "lcat": {"O": 3, "A": 2, "comp": 1, "I": 1, "eqA": 1},
}
BUILTIN_CLASSES = {"lrg": 4, "lrg_eq": 8, "lcat": 14}


def renamed_builtin(fam, name):
    """A built-in signature with seed-drawn sort and arrow names and a
    shuffled declaration order, as text, plus its closed-form answer."""
    with fam.tr.span("stdlib.build"):
        sig = fam.fs.stdlib.builtin_signature(name)
    sren = {K: fam.fresh("S") for K in sig.sorts}
    gren = {g.name: fam.fresh("g") for g in sig.gens}
    sorts = [sren[K] for K in sig.sorts]
    fam.rng.shuffle(sorts)
    arrows = [(gren[g.name], sren[g.dom], sren[g.cod]) for g in sig.gens]
    eqs = [(tuple(gren[g] for g in lhs), tuple(gren[g] for g in rhs))
           for lhs, rhs in sig.equations]
    levels = {sren[K]: lv for K, lv in BUILTIN_LEVELS[name].items()}
    answer = {"height": 3, "levels": levels,
              "hom_classes": BUILTIN_CLASSES[name]}
    return folds_text({"sorts": sorts, "arrows": arrows, "equations": eqs},
                      fam.fresh("sig")), answer


def folds_text(raw, name):
    """`.folds` text of a raw signature.  Written here rather than with
    ``cli.format_signature``, which needs the validated signature: for
    the wall-tier diamonds validation is the work being measured."""
    dom = {g: d for g, d, _ in raw["arrows"]}
    lines = [f"signature {name} {{"]
    for K in raw["sorts"]:
        decl = f"  sort {K}"
        outs = [f"{g}: {c}" for g, d, c in raw["arrows"] if d == K]
        if outs:
            decl += " { " + ", ".join(outs) + " }"
        eqs = [f"{'.'.join(lhs)} = {'.'.join(rhs)}"
               for lhs, rhs in raw["equations"] if dom[lhs[0]] == K]
        if eqs:
            decl += " eq { " + "; ".join(eqs) + " }"
        lines.append(decl + ";")
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- job builders ---------------------------------------------------------
# Each returns one Job; `slot` names are stable across seeds.

def _category(fam, family, n):
    if family == "poset":
        return fam.poset(n, pairs=n)
    if family == "chain":
        return fam.chain(n)
    if family == "cyclic":
        return fam.cyclic(n)
    if family == "indiscrete":
        return fam.indiscrete(n)
    raise ValueError(family)


def check_model(fam, family, n, drop=None, wall=False):
    C = _category(fam, family, n)
    slot = f"check-model {family}{n}" + (f" -{drop}" if drop else "")
    texts = {"signature": fam.lcat_text, "theory": fam.tcat_text,
             "model": fam.text(C, drop=drop)}
    want = MUTANT_AXIOM.get(drop)
    return Job(slot, "check-model", texts,
               lambda: (want is None, want), wall)


def eval_card(fam, family, n, formula, wall=False):
    C = _category(fam, family, n)
    expr, closed_form = EVAL_FORMULAS[formula]
    texts = {"signature": fam.lcat_text, "model": fam.text(C),
             "expr": expr}
    return Job(f"eval {formula} {family}{n}", "eval-card", texts,
               lambda: closed_form(C), wall)


def sat_total(fam, family, n, dup=None, wall=False):
    C = _category(fam, family, n)
    texts = {"signature": fam.lcat_text, "model": fam.text(C, dup=dup)}
    stdlib = fam.fs.stdlib
    oracle = (lambda: False) if dup else (lambda: stdlib.is_gaunt(C))
    slot = f"sat {family}{n}" + (f" +{dup}" if dup else "")
    return Job(slot, "sat-total", texts, oracle, wall)


def hsip_copy(fam, family, n):
    """A structure against a relabelled copy of itself: isomorphic."""
    C = _category(fam, family, n)
    M = fam.structure(C)
    texts = {"signature": fam.lcat_text,
             "left": fam.relabel(M), "right": fam.relabel(M)}
    return Job(f"hsip {family}{n} copy", "hsip", texts, lambda: True)


def hsip_vee(fam, k, wall=False):
    """V against Λ plus k discrete objects each: not isomorphic."""
    texts = {"signature": fam.lcat_text,
             "left": fam.text(fam.vee(k, True)),
             "right": fam.text(fam.vee(k, False))}
    return Job(f"hsip V/L+{k}", "hsip", texts, lambda: False, wall)


def hsip_vee_copy(fam, k):
    """V plus k discrete objects against a relabelled copy."""
    M = fam.structure(fam.vee(k, True))
    texts = {"signature": fam.lcat_text,
             "left": fam.relabel(M), "right": fam.relabel(M)}
    return Job(f"hsip V+{k} copy", "hsip", texts, lambda: True)


def equiv(fam, left, right, found):
    """`equiv` on unsaturated pairs; ``found`` is known from the
    construction: Z_n with its relabelling and an indiscrete category
    with the terminal one are equivalent, Z_p and Z_q for p != q are
    not."""
    (lf, ln), (rf, rn) = left, right
    lc, rc = _category(fam, lf, ln), _category(fam, rf, rn)
    texts = {"signature": fam.lcat_text, "left": fam.text(lc),
             "right": fam.text(rc)}
    return Job(f"equiv {lf}{ln} {rf}{rn}", "equiv", texts,
               lambda: found)


def sig_job(fam, kind, shape, k=None, wall=False):
    if shape == "diamond":
        raw = diamond_raw(k)
        fam.rng.shuffle(raw["sorts"])
        fam.rng.shuffle(raw["arrows"])
        text = folds_text(raw, fam.fresh("D"))
        answer = diamond_answer(k)
        slot = f"{kind} diamond{k}"
    else:
        text, answer = renamed_builtin(fam, shape)
        slot = f"{kind} {shape}"
    return Job(slot, kind, {"signature": text}, lambda: answer, wall)


BUILDERS = {"check_model": check_model, "eval_card": eval_card,
            "sat_total": sat_total, "hsip_copy": hsip_copy,
            "hsip_vee": hsip_vee, "hsip_vee_copy": hsip_vee_copy,
            "equiv": equiv, "sig_job": sig_job}


# -- the workloads --------------------------------------------------------

# Each batch is small enough that one pass over its decided jobs takes
# about a second or two on a 2-core x86-64 machine, so a run repeats it
# ten times or more and every job's median spans the whole run; a busy
# spell of a shared machine then moves few of a job's attempts.  A
# batch has small jobs, then a cluster of nearly one size around the
# median, a cluster around the 75th percentile, and one or two large
# jobs; then the two wall-tier jobs.  Jobs in the two clusters have a
# fixed shape (chains, Z_n, indiscrete categories, diamonds), so no seed
# moves a percentile; random posets sit at the small and large ends.
WORKLOADS = {
    "evaluate": Workload(
        "check-model with the 11 tcat axioms and eval --card: the "
        "evaluator's quantifier loop, memo hashing, fiber scan and the "
        "permutation loop of ~=; no search, so the control for isogen, "
        "homspan and sigcore changes",
        slots=(
            ("eval_card", "poset", 4, "comp-count"),
            ("check_model", "cyclic", 1),
            ("eval_card", "chain", 4, "comp-count"),
            ("check_model", "indiscrete", 1),
            ("eval_card", "cyclic", 4, "comp-count"),
            ("eval_card", "indiscrete", 3, "comp-count"),
            ("eval_card", "poset", 5, "comp-count"),
            # around the median
            ("check_model", "chain", 2),
            ("check_model", "chain", 2, "comp"),
            ("eval_card", "indiscrete", 2, "endo-equiv"),
            ("check_model", "indiscrete", 2, "comp"),
            ("check_model", "cyclic", 2, "eqA"),
            ("check_model", "indiscrete", 2, "eqA"),
            ("eval_card", "cyclic", 2, "endo-equiv"),
            # around the 75th percentile
            ("check_model", "chain", 3, "comp"),
            ("check_model", "chain", 3, "eqA"),
            ("eval_card", "chain", 4, "endo-equiv"),
            ("check_model", "chain", 3, "I"),
            ("check_model", "chain", 3),
            ("check_model", "poset", 3),
            # large
            ("eval_card", "poset", 5, "endo-equiv"),
            ("check_model", "poset", 4),
            # wall tier
            ("eval_card", "cyclic", 8, "endo-equiv", True),
            ("check_model", "cyclic", 7, None, True),
        )),
    "saturation": Workload(
        "sat --total: every element pair regenerates Ind under element "
        "names, so Ind generation and many small ~= evaluations "
        "dominate; answer is is_gaunt, or no for a duplicated witness",
        slots=(
            ("sat_total", "indiscrete", 1),
            ("sat_total", "indiscrete", 1, "eqA"),
            ("sat_total", "cyclic", 1),
            ("sat_total", "indiscrete", 1, "I"),
            ("sat_total", "chain", 1, "eqA"),
            ("sat_total", "indiscrete", 1, "comp"),
            ("sat_total", "cyclic", 1, "I"),
            # around the median
            ("sat_total", "cyclic", 2),
            ("sat_total", "chain", 2, "comp"),
            ("sat_total", "cyclic", 2, "eqA"),
            ("sat_total", "chain", 2, "I"),
            ("sat_total", "cyclic", 2, "comp"),
            ("sat_total", "chain", 2, "eqA"),
            ("sat_total", "cyclic", 2, "I"),
            # around the 75th percentile
            ("sat_total", "indiscrete", 2),
            ("sat_total", "indiscrete", 2, "I"),
            ("sat_total", "chain", 2),
            ("sat_total", "indiscrete", 2, "comp"),
            ("sat_total", "cyclic", 3, "eqA"),
            ("sat_total", "indiscrete", 2, "eqA"),
            # large
            ("sat_total", "chain", 3),
            ("sat_total", "poset", 4),
            # wall tier
            ("sat_total", "cyclic", 8, None, True),
            ("sat_total", "chain", 14, None, True),
        )),
    "identity": Workload(
        "hsip on totally saturated pairs (relabelled copies; V vs Λ plus "
        "k discrete objects) and equiv on unsaturated pairs: the "
        "homspan searches, mixing found and rejected pairs",
        slots=(
            ("equiv", ("indiscrete", 1), ("indiscrete", 1), True),
            ("equiv", ("cyclic", 1), ("indiscrete", 1), True),
            ("hsip_copy", "chain", 1),
            # around the median
            ("equiv", ("cyclic", 2), ("cyclic", 2), True),
            ("equiv", ("cyclic", 2), ("indiscrete", 1), False),
            ("hsip_copy", "chain", 2),
            ("equiv", ("cyclic", 3), ("indiscrete", 1), False),
            ("equiv", ("indiscrete", 2), ("indiscrete", 1), True),
            ("equiv", ("cyclic", 2), ("cyclic", 3), False),
            # around the 75th percentile
            ("hsip_vee", 0),
            ("hsip_vee_copy", 0),
            ("equiv", ("cyclic", 3), ("cyclic", 3), True),
            # large
            ("hsip_vee", 1),
            ("equiv", ("cyclic", 4), ("cyclic", 2), False),
            # wall tier
            ("hsip_vee", 6, True),
            ("hsip_vee", 7, True),
        )),
    "signature": Workload(
        "check-sig, levels and gen-iso over generated .folds text "
        "(diamond stacks, renamed lcat-like signatures): sigcore path "
        "enumeration and isogen alone do the work",
        slots=(
            ("sig_job", "levels", "lrg"),
            ("sig_job", "check-sig", "lcat"),
            ("sig_job", "gen-iso", "lrg_eq"),
            ("sig_job", "gen-iso", "lcat"),
            ("sig_job", "check-sig", "diamond", 4),
            ("sig_job", "gen-iso", "diamond", 2),
            ("sig_job", "gen-iso", "diamond", 3),
            # around the median
            ("sig_job", "check-sig", "diamond", 7),
            ("sig_job", "levels", "diamond", 7),
            ("sig_job", "check-sig", "diamond", 7),
            ("sig_job", "levels", "diamond", 7),
            ("sig_job", "check-sig", "diamond", 7),
            ("sig_job", "levels", "diamond", 7),
            ("sig_job", "check-sig", "diamond", 7),
            # around the 75th percentile
            ("sig_job", "gen-iso", "diamond", 4),
            ("sig_job", "levels", "diamond", 8),
            ("sig_job", "gen-iso", "diamond", 4),
            ("sig_job", "gen-iso", "diamond", 4),
            ("sig_job", "check-sig", "diamond", 8),
            ("sig_job", "gen-iso", "diamond", 4),
            # large
            ("sig_job", "check-sig", "diamond", 9),
            ("sig_job", "gen-iso", "diamond", 5),
            # wall tier
            ("sig_job", "check-sig", "diamond", 13, True),
            ("sig_job", "gen-iso", "diamond", 9, True),
        )),
}


def build_jobs(fs, workload, seed, tr):
    """The jobs of one workload, in run order, with texts but without
    expected answers."""
    fam = Families(fs, seed, tr)
    jobs, seen = [], {}
    for builder, *args in WORKLOADS[workload].slots:
        job = BUILDERS[builder](fam, *args)
        seen[job.slot] = seen.get(job.slot, 0) + 1
        if seen[job.slot] > 1:
            job.slot += f" #{seen[job.slot]}"
        jobs.append(job)
    return jobs
