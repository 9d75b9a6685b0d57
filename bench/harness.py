"""Running jobs: set-up, per-job time limit, verdicts, spans, metrics.

One process, one client, a closed loop: the next job starts when the
previous one has returned or been stopped.  Each job calls the public
functions the matching CLI command calls (``cli.parse_*``, then
``finsem``, ``homspan``, ``isogen`` or ``sigcore``), so a job costs what
the command costs minus interpreter start-up, which is counted in
``setup_s`` instead.
"""

from __future__ import annotations

import gc
import importlib
import resource
import signal
import statistics
import sys
import time
from types import SimpleNamespace

from workloads import WORKLOADS, build_jobs

FOLDSAT_MODULES = ("cli", "errors", "finsem", "homspan", "isogen", "pretty",
                   "sigcore", "stdlib", "synkit")

# Set-ups per run, before and after the timed phase; setup_s is their
# median.  Splitting them keeps a few seconds of a busy machine from
# moving all of them at once.
SETUPS_BEFORE, SETUPS_AFTER = 7, 8
# Per-job time limit.  Decided jobs take at most a quarter of it on a
# 2-core x86-64 machine and wall-tier jobs at least three times it.
LIMIT_S = 2.0
# Rounds a run makes however short ``seconds`` is: the smallest batch has
# four decided jobs above its 75th percentile.
MIN_ROUNDS = 3


# -- spans ----------------------------------------------------------------

class _NoSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class NullTracer:
    """Records nothing; used for the untraced runs."""

    enabled = False
    _span = _NoSpan()

    def span(self, name, **_):
        return self._span


class Tracer:
    """Spans kept in memory: name, start, end, parent and job id."""

    enabled = True

    def __init__(self):
        self.spans = []
        self._stack = []
        self.job = None

    def span(self, name, **attrs):
        return _Span(self, name, attrs)


class _Span:
    def __init__(self, tracer, name, attrs):
        self.tracer = tracer
        self.name = name
        self.attrs = attrs

    def __enter__(self):
        tr = self.tracer
        self.parent = tr._stack[-1] if tr._stack else None
        self.index = len(tr.spans)
        tr.spans.append(None)
        tr._stack.append(self.index)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        end = time.perf_counter()
        tr = self.tracer
        tr._stack.pop()
        tr.spans[self.index] = {
            "name": self.name, "start": self.start, "end": end,
            "parent": self.parent, "job": tr.job, **self.attrs}
        return False


def traced(tr, name, fn):
    """``fn`` wrapped in a span, for calls the program makes between its
    own modules (installed only while tracing)."""
    def wrapper(*args, **kwargs):
        with tr.span(name):
            return fn(*args, **kwargs)
    wrapper.__wrapped__ = fn
    return wrapper


# -- per-job time limit -----------------------------------------------------

class JobTimeout(Exception):
    """Raised in the job by SIGALRM when it runs past its limit."""


def _on_alarm(signum, frame):
    raise JobTimeout()


def run_limited(fn, limit_s):
    """Run ``fn()`` and stop it after ``limit_s`` seconds of wall time.

    Returns (outcome, value, seconds) with outcome ``"ok"``, ``"timeout"``
    or the class name of the exception it raised.
    """
    old = signal.signal(signal.SIGALRM, _on_alarm)
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, limit_s)
        try:
            value = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        return "ok", value, time.perf_counter() - start
    except JobTimeout:
        return "timeout", None, time.perf_counter() - start
    except Exception as exc:  # any failure of the program is an outcome
        return type(exc).__name__, None, time.perf_counter() - start
    finally:
        signal.signal(signal.SIGALRM, old)


# -- calibration -------------------------------------------------------------
# A shared host runs the same code up to about 1.5 times slower or faster
# from one stretch of seconds to the next, so raw times of two runs made
# minutes apart differ by more than most changes to the program.  Every
# timed step is therefore followed by a short pure-Python reference
# routine, and the step's time is scaled by REF_S over the mean time of
# the reference just before and just after it: the time the step would
# take on a machine that runs the reference in REF_S.  The reference is
# part of the benchmark, not of foldsat, so a change to the program moves
# the step and not the reference.

# Nominal time of ``reference()``: about its time on a 2-core x86-64
# machine, so that scaled times read as seconds there.
REF_S = 0.003


def reference():
    """Fixed work in the style of the program: small tuples and strings
    as dictionary keys, then a sort."""
    d = {}
    for i in range(8000):
        k = (i % 97, str(i % 13))
        d[k] = d.get(k, 0) + i
    return len(sorted(d.items()))


def reference_s():
    start = time.perf_counter()
    reference()
    return time.perf_counter() - start


class Calibration:
    """The reference timed between steps; ``scale()`` returns the factor
    for the step just finished."""

    def __init__(self):
        self.last = reference_s()

    def scale(self):
        now = reference_s()
        factor = 2 * REF_S / (self.last + now)
        self.last = now
        return factor


# -- set-up ---------------------------------------------------------------

def import_foldsat():
    """Import foldsat afresh, as a new ``foldsat`` process would."""
    for name in [m for m in sys.modules
                 if m == "foldsat" or m.startswith("foldsat.")]:
        del sys.modules[name]
    importlib.import_module("foldsat")
    return SimpleNamespace(**{
        m: importlib.import_module(f"foldsat.{m}") for m in FOLDSAT_MODULES})


def setup(workload, seed, tr):
    """One set-up: import foldsat and build the workload's inputs.
    Returns the modules, the jobs, the seconds taken and, when tracing,
    the seconds spent in foldsat.stdlib."""
    gc.collect()
    first = len(tr.spans) if tr.enabled else 0
    start = time.perf_counter()
    fs = import_foldsat()
    jobs = build_jobs(fs, workload, seed, tr)
    secs = time.perf_counter() - start
    build_s = None
    if tr.enabled:
        build_s = sum(s["end"] - s["start"] for s in tr.spans[first:]
                      if s["name"] == "stdlib.build")
    return fs, jobs, secs, build_s


def expect(jobs):
    """Compute every job's expected answer."""
    for job in jobs:
        job.expected = job.oracle()
    return jobs


def prepare(workload, seed, tr):
    """Set up once and compute every job's expected answer."""
    fs, jobs, secs, build_s = setup(workload, seed, tr)
    return fs, expect(jobs), secs, build_s


# -- the commands -----------------------------------------------------------
# Each takes the foldsat modules, the job texts and the tracer and returns
# (verdict, artefacts); artefacts feed the traced counters only.

def _parse(fs, tr, what, text, *args):
    fn = getattr(fs.cli, f"parse_{what}")
    with tr.span("cli.parse", chars=len(text)):
        return fn(text, *args)


def cmd_check_model(fs, t, tr):
    sig = _parse(fs, tr, "signature", t["signature"])
    theory = _parse(fs, tr, "theory", t["theory"], sig)
    M = _parse(fs, tr, "structure", t["model"], sig)
    with tr.span("finsem.satisfies"):
        ok, report = fs.finsem.satisfies(M, theory)
    failed = {r["axiom"] for r in report if not r["ok"]}
    return (ok, failed), {"sig": sig, "models": [M],
                          "formulas": [phi for _, phi in theory]}


def cmd_eval_card(fs, t, tr):
    sig = _parse(fs, tr, "signature", t["signature"])
    M = _parse(fs, tr, "structure", t["model"], sig)
    phi = _parse(fs, tr, "formula", t["expr"], sig)
    if phi.free_vars():
        raise fs.errors.OpenFormula("eval requires a closed formula")
    with tr.span("finsem.eval_card"):
        n = fs.finsem.eval_card(M, phi)
    return n, {"sig": sig, "models": [M], "formulas": [phi]}


def _saturation(fs, tr, M):
    with tr.span("finsem.saturation"):
        return fs.finsem.saturation_profile(M)


def cmd_sat_total(fs, t, tr):
    sig = _parse(fs, tr, "signature", t["signature"])
    M = _parse(fs, tr, "structure", t["model"], sig)
    profile = _saturation(fs, tr, M)
    return profile["total"], {"sig": sig, "saturated": [M]}


def cmd_hsip(fs, t, tr):
    """`foldsat hsip` without its first step, checking both structures
    against the theory: every input is a category by construction, the
    check is the evaluate workload's work, and here it would outweigh
    the search the workload is for."""
    sig = _parse(fs, tr, "signature", t["signature"])
    M = _parse(fs, tr, "structure", t["left"], sig)
    N = _parse(fs, tr, "structure", t["right"], sig)
    _saturation(fs, tr, M)
    _saturation(fs, tr, N)
    with tr.span("homspan.hsip"):
        verdict = fs.homspan.hsip_decide(M, N)
    return verdict, {"sig": sig, "saturated": [M, N]}


def cmd_equiv(fs, t, tr):
    sig = _parse(fs, tr, "signature", t["signature"])
    M = _parse(fs, tr, "structure", t["left"], sig)
    N = _parse(fs, tr, "structure", t["right"], sig)
    _saturation(fs, tr, M)
    _saturation(fs, tr, N)
    with tr.span("homspan.find_span"):
        res = fs.homspan.find_span(M, N)
    return res.status, {"sig": sig, "saturated": [M, N],
                        "status": res.status}


def cmd_check_sig(fs, t, tr):
    sig = _parse(fs, tr, "signature", t["signature"])
    verdict = {"height": sig.height, "levels": dict(sig.levels),
               "hom_classes": sum(len(sig.out(K)) for K in sig.sorts)}
    return verdict, {"sig": sig}


def cmd_levels(fs, t, tr):
    sig = _parse(fs, tr, "signature", t["signature"])
    order = {K: i for i, K in enumerate(sig.sorts)}
    pairs = sorted(sig.levels.items(), key=lambda kv: (kv[1], order[kv[0]]))
    return pairs, {"sig": sig}


def cmd_gen_iso(fs, t, tr):
    sig = _parse(fs, tr, "signature", t["signature"])
    out = []
    for K in sig.sorts:
        with tr.span("isogen.iso_formula"):
            x, y, phi = fs.isogen.iso_formula(sig, K)
        out.append((K, x, y, phi, fs.pretty.pformat(phi)))
    return (sig, out), {"sig": sig, "iso": [phi for _, _, _, phi, _ in out]}


COMMANDS = {"check-model": cmd_check_model, "eval-card": cmd_eval_card,
            "sat-total": cmd_sat_total, "hsip": cmd_hsip,
            "equiv": cmd_equiv, "check-sig": cmd_check_sig,
            "levels": cmd_levels, "gen-iso": cmd_gen_iso}


# -- verdict checks -----------------------------------------------------------

def verdict_ok(fs, job, verdict):
    """Does a verdict match the job's expected answer?"""
    want = job.expected
    if job.kind == "check-model":
        ok, failed = verdict
        want_ok, axiom = want
        return ok == want_ok and (axiom is None or axiom in failed)
    if job.kind == "equiv":
        # a known non-equivalent pair accepts absent and bound_exceeded
        return (verdict == "found") == want
    if job.kind == "levels":
        levels = [lv for _, lv in verdict]
        return dict(verdict) == want["levels"] and levels == sorted(levels)
    if job.kind == "gen-iso":
        return gen_iso_round_trips(fs, *verdict, want)
    return verdict == want


def gen_iso_round_trips(fs, sig, out, want):
    """One formula per sort, and each printed formula parses back (over
    its own context) to a formula that prints the same."""
    if sorted(K for K, *_ in out) != sorted(want["levels"]):
        return False
    for _, x, y, _, text in out:
        env = {v.name: v for v in x.dep() | y.dep()}
        try:
            back = fs.cli.parse_formula(text, sig, env)
        except fs.errors.FoldsError:
            return False
        if fs.pretty.pformat(back) != text:
            return False
    return True


# -- one job ----------------------------------------------------------------

def fresh_process_state(fs):
    """Drop what one job leaves behind in the process, so the next job
    starts as a new `foldsat` command would.  The Ind cache is global
    and keyed on the signature, and every job parses its own signature,
    so no job could reuse another's entries; kept, it would hold every
    parsed signature and make memory grow with the number of jobs run."""
    cache = getattr(fs.isogen, "_IND_CACHE", None)
    if cache is not None:
        cache.clear()
    gc.collect()


def run_job(fs, job, limit_s, tr, cal=None):
    """Run one job under the time limit; returns its record and, when it
    finished, the artefacts for the traced counters.  With a
    ``Calibration`` the record's ``scale`` turns its raw ``seconds`` into
    seconds at the reference speed; without one it is 1."""
    fresh_process_state(fs)
    outcome, value, secs = run_limited(
        lambda: COMMANDS[job.kind](fs, job.texts, tr), limit_s)
    rec = {"slot": job.slot, "outcome": outcome, "seconds": secs,
           "scale": cal.scale() if cal else 1.0, "correct": None}
    if outcome != "ok":
        return rec, None
    verdict, artefacts = value
    rec["correct"] = verdict_ok(fs, job, verdict)
    return rec, artefacts


# -- traced counters ----------------------------------------------------------

def _nodes(fs, phi):
    """Every node of a formula tree."""
    stack = [phi]
    while stack:
        node = stack.pop()
        yield node
        for v in vars(node).values():
            if isinstance(v, fs.synkit.Formula):
                stack.append(v)
            elif isinstance(v, tuple):
                stack.extend(a for a in v if isinstance(a, fs.synkit.Formula))


def _fibers(fs, M, K):
    return [fs.finsem.fiber(M, K, d)
            for d in fs.finsem.boundary_instances(M, K)]


def count(fs, artefacts):
    """Work counts of one finished job, from the public API."""
    sig = artefacts["sig"]
    c = {"hom_classes": sum(len(sig.out(K)) for K in sig.sorts),
         "formula_nodes": sum(1 for phi in artefacts.get("iso", ())
                              for _ in _nodes(fs, phi)),
         "equiv_fiber_max": 0, "ind_pairs": 0}
    for M in artefacts.get("models", ()):
        for phi in artefacts.get("formulas", ()):
            for K in {n.sort for n in _nodes(fs, phi)
                      if isinstance(n, fs.synkit.Equiv)}:
                c["equiv_fiber_max"] = max(
                    [c["equiv_fiber_max"]]
                    + [len(F) for F in _fibers(fs, M, K)])
    for M in artefacts.get("saturated", ()):
        c["ind_pairs"] += sum(len(F) ** 2 for K in sig.sorts
                              for F in _fibers(fs, M, K))
    if "status" in artefacts:
        c["find_span"] = 1
        c["conclusive"] = int(artefacts["status"] in ("found", "absent"))
    return c


# -- the run ----------------------------------------------------------------

def install_wrappers(fs, tr):
    """Spans around the two calls between the program's own modules that
    the per-module table separates: signature validation inside
    ``cli.parse_signature`` and the isomorphism search inside
    ``hsip_decide``/``find_span``.  Returns a function that removes them."""
    patched = [(fs.cli, "validate_signature", "sigcore.validate"),
               (fs.homspan, "structure_iso", "homspan.structure_iso")]
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in patched]
    for (mod, attr, name), (_, _, fn) in zip(patched, saved):
        setattr(mod, attr, traced(tr, name, fn))

    def remove():
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)
    return remove


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_workload(workload, seed, seconds, trace):
    """Set up, then run the batch round after round for about
    ``seconds``; return end-to-end metrics, plus per-module ones when
    tracing.

    Wall-tier jobs run in the first round only: they are stopped at the
    limit every time, so repeating them would spend the run on waiting.
    Every metric is computed per job of the batch from the job's median
    over its attempts, so it does not depend on how many rounds fit.
    Every set-up and every job is followed by the reference routine and
    its time scaled to the reference speed (see ``Calibration``)."""
    tr = Tracer() if trace else NullTracer()
    cal = Calibration()
    setups = []

    def timed_setup():
        fs, jobs, secs, build_s = setup(workload, seed, tr)
        k = cal.scale()
        setups.append((secs * k, build_s and build_s * k, secs))
        return fs, jobs

    for _ in range(SETUPS_BEFORE):
        fs, jobs = timed_setup()
    expect(jobs)
    cal = Calibration()
    if trace:
        tr.spans = []
    untraced = NullTracer()
    attempts = {job.slot: [] for job in jobs}
    traced_attempts = {job.slot: [] for job in jobs}
    rss = None
    rounds, pass_s = 0, 0.0
    start = time.perf_counter()
    # at least MIN_ROUNDS, so that ten attempts lie beyond the 75th
    # percentile; then stop where the time is nearest to ``seconds``
    while (rounds < MIN_ROUNDS
           or time.perf_counter() - start + pass_s / 2 < seconds):
        begun = time.perf_counter()
        for job in jobs:
            if job.wall and rounds > 0:
                continue
            if job.wall and rss is None:
                rss = peak_rss_mb()
            if not trace:
                attempts[job.slot].append(
                    run_job(fs, job, LIMIT_S, untraced, cal)[0])
                continue
            # the same job untraced and traced, alternating which goes
            # first, for the tracing overhead
            attempt = sum(map(len, attempts.values()))
            pair = {}
            for mode in (("plain", "traced") if attempt % 2 == 0
                         else ("traced", "plain")):
                if mode == "plain":
                    pair[mode] = run_job(fs, job, LIMIT_S, untraced, cal)
                    continue
                tr.job, tr._stack = attempt, []
                remove = install_wrappers(fs, tr)
                try:
                    pair[mode] = run_job(fs, job, LIMIT_S, tr, cal)
                finally:
                    remove()
            rec, artefacts = pair["traced"]
            rec["attempt"] = attempt
            rec["counts"] = count(fs, artefacts) if artefacts else None
            attempts[job.slot].append(pair["plain"][0])
            traced_attempts[job.slot].append(rec)
        rounds += 1
        pass_s = time.perf_counter() - begun
        if rss is None:
            rss = peak_rss_mb()
    spans = tr.spans if trace else None
    if trace:
        tr.spans = []
    cal = Calibration()
    for _ in range(SETUPS_AFTER):
        timed_setup()
    result = summarize(attempts, statistics.median(s for s, _, _ in setups),
                       rss)
    result["rounds"] = rounds
    result["raw_setup_s"] = statistics.median(r for _, _, r in setups)
    if trace:
        result["layers"] = layer_metrics(
            spans, attempts, traced_attempts,
            statistics.median(b for _, b, _ in setups))
        result["spans"] = spans
    return result


def summarize(attempts, setup_s, rss):
    """End-to-end metrics from each job's attempts.

    A job's time is the median over its attempts of the attempt's time
    at the reference speed.  Verdict times and ``jobs_per_s`` cover the
    jobs that returned a verdict in most attempts; the others count
    against decided_frac only, so the fixed waits of the wall-tier jobs
    do not dilute the rate.  ``rss`` is the peak before the first
    wall-tier job: a job stopped at the limit holds what it had built
    by then, which measures only how far it got, and each job starts
    from a fresh state, so later rounds repeat the first.  The result
    also gives the verdict times without scaling, for reference."""
    records = [r for recs in attempts.values() for r in recs]
    decided, slots, raw, answered = 0.0, {}, {}, {}
    for slot, recs in attempts.items():
        ok = [r for r in recs if r["outcome"] == "ok"]
        slots[slot] = statistics.median(r["seconds"] * r["scale"]
                                        for r in recs)
        raw[slot] = statistics.median(r["seconds"] for r in recs)
        decided += sum(bool(r["correct"]) for r in recs) / len(recs)
        if 2 * len(ok) > len(recs):
            answered[slot] = len(ok)
    times = [slots[s] for s in answered]
    verdicts = sum(answered[s] / len(attempts[s]) for s in answered)
    undecided = {}
    for r in records:
        if r["outcome"] != "ok":
            key = f'{r["slot"]}: {r["outcome"]}'
            undecided[key] = undecided.get(key, 0) + 1
    tail = p75(times)
    return {
        "attempted": len(records),
        "wrong_verdicts": sum(r["correct"] is False for r in records),
        "errors": sum(r["outcome"] not in ("ok", "timeout")
                      for r in records),
        "undecided": undecided,
        "wrong": sorted({r["slot"] for r in records
                         if r["correct"] is False}),
        "tail": {"percentile": 75, "jobs": len(times),
                 "samples_beyond": sum(n for s, n in answered.items()
                                       if slots[s] > tail)},
        "job_seconds": slots,
        "raw_job_seconds": raw,
        "raw_verdict_p50_s": (statistics.median(raw[s] for s in answered)
                              if answered else None),
        "raw_verdict_tail_s": p75([raw[s] for s in answered]),
        "metrics": {
            "jobs_per_s": verdicts / sum(times) if times else 0.0,
            "verdict_p50_s": statistics.median(times) if times else None,
            "verdict_tail_s": tail,
            "decided_frac": decided / len(attempts),
            "setup_s": setup_s,
            "peak_rss_mb": rss,
        },
    }


def p75(times):
    """The 75th percentile, interpolated between order statistics."""
    if len(times) > 1:
        return statistics.quantiles(times, n=4, method="inclusive")[2]
    return (times or [None])[0]


def layer_metrics(spans, attempts, traced_attempts, build_s):
    """Per-module metrics for one pass over the batch, from the traced
    attempts.  Every ``*_s`` is self time, a span's duration minus that
    of its child spans, scaled to the reference speed with its job's
    factor, taken per job as the median over its attempts and summed
    over the jobs.  Counts come from one finished attempt of
    each job; rates are counts over the self time of jobs that
    finished in every attempt."""
    child = [0.0] * len(spans)
    # a span the time limit cut inside the tracer's own code stays None
    for s in spans:
        if s is not None and s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    by_attempt = {}
    for s, c in zip(spans, child):
        if s is None:
            continue
        per = by_attempt.setdefault(s["job"], {})
        per[s["name"]] = per.get(s["name"], 0.0) + s["end"] - s["start"] - c
        if s["name"] == "cli.parse":
            per["chars"] = per.get("chars", 0) + s["chars"]
            per["calls"] = per.get("calls", 0) + 1

    names = ("cli.parse", "sigcore.validate", "isogen.iso_formula",
             "finsem.satisfies", "finsem.eval_card", "finsem.saturation",
             "homspan.hsip", "homspan.find_span", "homspan.structure_iso")
    total = dict.fromkeys(names, 0.0)
    done_s = dict.fromkeys(names, 0.0)
    counts = dict.fromkeys(("hom_classes", "formula_nodes", "ind_pairs",
                            "find_span", "conclusive", "chars", "calls"), 0)
    fiber_max, plain, traced = 0, 0.0, 0.0
    for slot, recs in traced_attempts.items():
        per = [by_attempt.get(r["attempt"], {}) for r in recs]
        finished = all(r["outcome"] == "ok" for r in recs)
        for name in names:
            t = statistics.median(p.get(name, 0.0) * r["scale"]
                                  for p, r in zip(per, recs))
            total[name] += t
            if finished:
                done_s[name] += t
        if not finished:
            continue
        c = {**recs[0]["counts"], "chars": per[0].get("chars", 0),
             "calls": per[0].get("calls", 0)}
        for key in counts:
            counts[key] += c.get(key, 0)
        fiber_max = max(fiber_max, c["equiv_fiber_max"])
        if all(r["correct"] for r in attempts[slot]):
            plain += statistics.median(r["seconds"] * r["scale"]
                                       for r in attempts[slot])
            traced += statistics.median(r["seconds"] * r["scale"]
                                        for r in recs)

    def rate(n, name):
        return n / done_s[name] if done_s[name] else 0.0

    return {
        "cli.parse_s": total["cli.parse"],
        "cli.parse_calls": counts["calls"],
        "cli.parse_chars_per_s": rate(counts["chars"], "cli.parse"),
        "sigcore.validate_s": total["sigcore.validate"],
        "sigcore.hom_classes": counts["hom_classes"],
        "sigcore.classes_per_s": rate(counts["hom_classes"],
                                      "sigcore.validate"),
        "isogen.iso_formula_s": total["isogen.iso_formula"],
        "isogen.formula_nodes": counts["formula_nodes"],
        "isogen.nodes_per_s": rate(counts["formula_nodes"],
                                   "isogen.iso_formula"),
        "finsem.satisfies_s": total["finsem.satisfies"],
        "finsem.eval_card_s": total["finsem.eval_card"],
        "finsem.equiv_fiber_max": fiber_max,
        "finsem.saturation_s": total["finsem.saturation"],
        "finsem.ind_pairs": counts["ind_pairs"],
        "finsem.ind_pairs_per_s": rate(counts["ind_pairs"],
                                       "finsem.saturation"),
        "homspan.hsip_s": total["homspan.hsip"],
        "homspan.find_span_s": total["homspan.find_span"],
        "homspan.structure_iso_s": total["homspan.structure_iso"],
        "homspan.conclusive_frac": (counts["conclusive"] / counts["find_span"]
                                    if counts["find_span"] else 0.0),
        "stdlib.build_s": build_s,
        "trace_overhead_frac": traced / plain - 1 if plain else 0.0,
    }
