"""Command-line interface and the text formats.

Three file kinds share one lexer: signature files (``.folds``),
structure files (``.str``) and theory files (``.thy``).  The formula
syntax round-trips with :func:`foldsat.pretty.pformat`.  Every command
supports ``--json`` emitting ``{"ok": ..., "witness": ..., "report":
...}``; exit status is 0 for a positive answer, 1 for a negative one and
2 for errors (for ``equiv``, an inconclusive bounded search also exits
2).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from .errors import FoldsError, OpenFormula, ParseError
from .finsem import (check_saturation, eval_card, eval_prop, satisfies,
                     saturation_profile, validate_structure)
from .homspan import Hom, _hom_search, find_span, hsip_decide, is_fibsurj
from .isogen import iso_formula
from .pretty import pformat, var_decl
from .sigcore import validate_signature
from .synkit import (And, Atom, Bottom, Equiv, Exists, Forall, Iff, Implies,
                     Or, Top, compatible_sorts, mk_var)

# -- lexer ---------------------------------------------------------------

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+|\#[^\n]*)
  | (?P<op><->|->|~=|[{}();,:=.&|])
  | (?P<ident>[\w'*]+(?:-[\w'*]+)*)
  | (?P<bad>.)
""", re.VERBOSE)

_KEYWORDS = {"signature", "structure", "theory", "sort", "eq", "over",
             "axiom", "forall", "exists", "sum", "true", "false"}


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind  # "op" | "ident" | "eof"
        self.text = text
        self.line = line
        self.col = col


def _lex(text):
    """One pass of ``_TOKEN_RE``; every character falls in some group,
    and only whitespace can hold a newline."""
    tokens = []
    line, bol = 1, 0
    for m in _TOKEN_RE.finditer(text):
        kind, s = m.lastgroup, m.group()
        if kind == "ws":
            if "\n" in s:
                line += s.count("\n")
                bol = m.start() + s.rindex("\n") + 1
        elif kind == "bad":
            raise ParseError(f"unexpected character {s!r}", line,
                             m.start() - bol + 1)
        else:
            tokens.append(_Token(kind, s, line, m.start() - bol + 1))
    tokens.append(_Token("eof", "", line, len(text) - bol + 1))
    return tokens


class _Parser:
    def __init__(self, text):
        self.tokens = _lex(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def at(self, text):
        return self.peek().text == text and self.peek().kind != "eof"

    def accept(self, text):
        if self.at(text):
            return self.next()
        return None

    def expect(self, text):
        tok = self.next()
        if tok.text != text or tok.kind == "eof":
            raise ParseError(f"expected {text!r}, got {tok.text!r}",
                             tok.line, tok.col)
        return tok

    def ident(self, what="name"):
        tok = self.next()
        if tok.kind != "ident":
            raise ParseError(f"expected {what}, got {tok.text!r}",
                             tok.line, tok.col)
        return tok.text

    def done(self):
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(f"unexpected trailing input {tok.text!r}",
                             tok.line, tok.col)


# -- signature files -----------------------------------------------------

def parse_signature(text):
    """``signature NAME { sort S; sort A { d: S, c: S } eq { i.d = i.c };
    ... }``; ``a.p`` is the path applying ``a`` first."""
    p = _Parser(text)
    p.expect("signature")
    name = p.ident("signature name")
    p.expect("{")
    sorts, arrows, equations = [], [], []
    while not p.accept("}"):
        p.expect("sort")
        K = p.ident("sort name")
        sorts.append(K)
        if p.accept("{"):
            while True:
                g = p.ident("arrow name")
                p.expect(":")
                cod = p.ident("sort name")
                arrows.append((g, K, cod))
                if not p.accept(","):
                    break
            p.expect("}")
        if p.accept("eq"):
            p.expect("{")
            while not p.accept("}"):
                equations.append((_parse_path(p), None))
                p.expect("=")
                equations[-1] = (equations[-1][0], _parse_path(p))
                p.accept(";")
        p.accept(";")
    p.done()
    raw = {"sorts": sorts, "arrows": arrows, "equations": equations}
    return validate_signature(raw, name=name)


def _parse_path(p):
    path = [p.ident("arrow name")]
    while p.accept("."):
        path.append(p.ident("arrow name"))
    return tuple(path)


# -- structure files -----------------------------------------------------

def parse_structure(text, sig):
    """``structure NAME over SIG { O = { a, b }; A = { u(a,b) }; I = {
    (ida) }; }``; rows may be named (``w:(ida)`` or ``u(a,b)``),
    anonymous (``(ida)``) or bare names for empty boundaries."""
    p = _Parser(text)
    p.expect("structure")
    p.ident("structure name")
    p.expect("over")
    signame = p.ident("signature name")
    if signame != sig.name:
        raise ParseError(f"structure is over {signame!r}, expected "
                         f"{sig.name!r}")
    p.expect("{")
    carriers = {K: [] for K in sig.sorts}
    maps = {g.name: {} for g in sig.gens}
    auto = 0
    while not p.accept("}"):
        tok = p.peek()
        K = p.ident("sort name")
        if K not in carriers:
            raise ParseError(f"unknown sort {K!r}", tok.line, tok.col)
        p.expect("=")
        p.expect("{")
        if not p.at("}"):
            while True:
                elem, args = _parse_row(p)
                if elem is None:
                    auto += 1
                    elem = f"_{K.lower()}{auto}"
                carriers[K].append(elem)
                gens = sig.out_gens(K)
                if args is not None and len(args) != len(gens):
                    raise ParseError(
                        f"element {elem!r} of sort {K} needs "
                        f"{len(gens)} boundary entries, got {len(args)}")
                for g, a in zip(gens, args or ()):
                    maps[g.name][elem] = a
                if not p.accept(","):
                    break
        p.expect("}")
        p.accept(";")
    p.done()
    return validate_structure(sig, {"carriers": carriers, "maps": maps})


def _parse_row(p):
    if p.at("("):
        return None, _parse_args(p)
    elem = p.ident("element name")
    p.accept(":")
    if p.at("("):
        return elem, _parse_args(p)
    return elem, None


def _parse_args(p):
    p.expect("(")
    args = []
    if not p.at(")"):
        while True:
            args.append(p.ident("element name"))
            if not p.accept(","):
                break
    p.expect(")")
    return args


# -- formulas ------------------------------------------------------------

def parse_formula(text, sig, env=None):
    p = _Parser(text)
    phi = _parse_formula(p, sig, dict(env or {}))
    p.done()
    return phi


def _parse_formula(p, sig, env):
    return _quant(p, sig, env)


def _quant(p, sig, env):
    for kw, node, untrunc in (("forall", Forall, False),
                              ("exists", Exists, False),
                              ("sum", Exists, True)):
        if p.accept(kw):
            v = _parse_decl(p, sig, env)
            p.expect(".")
            inner = dict(env)
            inner[v.name] = v
            body = _quant(p, sig, inner)
            if untrunc:
                return node(v, body, untruncated=True)
            return node(v, body)
    return _iff(p, sig, env)


def _parse_decl(p, sig, env):
    name = p.ident("variable name")
    p.expect(":")
    return _sort_app(p, sig, env, name)


def _sort_app(p, sig, env, name):
    tok = p.peek()
    K = p.ident("sort name")
    if K not in sig.levels:
        raise ParseError(f"unknown sort {K!r}", tok.line, tok.col)
    fillers = {}
    gens = sig.out_gens(K)
    if p.at("("):
        args = _parse_args(p)
        if len(args) != len(gens):
            raise ParseError(f"sort {K} takes {len(gens)} arguments, "
                             f"got {len(args)}", tok.line, tok.col)
        for g, a in zip(gens, args):
            if a not in env:
                raise ParseError(f"unbound variable {a!r}",
                                 tok.line, tok.col)
            fillers[g.name] = env[a]
    elif gens:
        raise ParseError(f"sort {K} takes {len(gens)} arguments",
                         tok.line, tok.col)
    try:
        return mk_var(sig, name, K, fillers)
    except FoldsError as exc:
        raise ParseError(str(exc), tok.line, tok.col)


def _iff(p, sig, env):
    lhs = _implies(p, sig, env)
    if p.accept("<->"):
        return Iff(lhs, _implies(p, sig, env))
    return lhs


def _implies(p, sig, env):
    lhs = _or(p, sig, env)
    if p.accept("->"):
        return Implies(lhs, _implies(p, sig, env))
    return lhs


def _or(p, sig, env):
    args = [_and(p, sig, env)]
    while p.accept("|"):
        args.append(_and(p, sig, env))
    return args[0] if len(args) == 1 else Or(tuple(args))


def _and(p, sig, env):
    args = [_unary(p, sig, env)]
    while p.accept("&"):
        args.append(_unary(p, sig, env))
    return args[0] if len(args) == 1 else And(tuple(args))


# The variable behind an atom or a side of ~= stands only for its boundary:
# it is never printed, bound, compared by alpha_eq or evaluated, so every
# such variable takes this name, which no identifier can spell.
_ATOM_VAR = ""


def _unary(p, sig, env):
    if p.accept("true"):
        return Top()
    if p.accept("false"):
        return Bottom()
    if p.accept("("):
        phi = _quant(p, sig, env)
        p.expect(")")
        return phi
    alpha = _sort_app(p, sig, env, _ATOM_VAR)
    if p.accept("~="):
        tok = p.peek()
        beta = _sort_app(p, sig, env, _ATOM_VAR)
        if beta.sort != alpha.sort:
            raise ParseError("~= needs two applications of the same "
                             "sort", tok.line, tok.col)
        return Equiv(alpha.sort, alpha, beta)
    return Atom(alpha)


def parse_context(decls, sig):
    """Parse variable declarations like ``x:O`` ``f:A(x,x)`` in order."""
    env = {}
    out = []
    for decl in decls:
        p = _Parser(decl)
        v = _parse_decl(p, sig, env)
        p.done()
        env[v.name] = v
        out.append(v)
    return out


# -- theory files --------------------------------------------------------

def parse_theory(text, sig):
    """``theory NAME over SIG { axiom NAME: FORMULA; ... }``"""
    p = _Parser(text)
    p.expect("theory")
    p.ident("theory name")
    p.expect("over")
    signame = p.ident("signature name")
    if signame != sig.name:
        raise ParseError(f"theory is over {signame!r}, expected "
                         f"{sig.name!r}")
    p.expect("{")
    axioms = []
    while not p.accept("}"):
        p.expect("axiom")
        name = p.ident("axiom name")
        p.expect(":")
        phi = _parse_formula(p, sig, {})
        p.accept(";")
        axioms.append((name, phi))
    p.done()
    return axioms


# -- serializers ---------------------------------------------------------

def format_signature(sig) -> str:
    by_sort = {K: [] for K in sig.sorts}
    for lhs, rhs in sig.equations:
        by_sort[sig.gen(lhs[0]).dom].append((lhs, rhs))
    lines = [f"signature {sig.name} {{"]
    for K in sig.sorts:
        gens = sig.out_gens(K)
        decl = f"  sort {K}"
        if gens:
            decl += " { " + ", ".join(f"{g.name}: {g.cod}"
                                      for g in gens) + " }"
        eqs = by_sort[K]
        if eqs:
            decl += (" eq { "
                     + "; ".join(f"{'.'.join(l)} = {'.'.join(r)}"
                                 for l, r in eqs)
                     + " }")
        lines.append(decl + ";")
    lines.append("}")
    return "\n".join(lines) + "\n"


def format_structure(M, name) -> str:
    sig = M.sig
    lines = [f"structure {name} over {sig.name} {{"]
    for K in sig.sorts:
        gens = sig.out_gens(K)
        rows = []
        for e in M.carrier(K):
            if gens:
                args = ",".join(M.apply_gen(g.name, e) for g in gens)
                rows.append(f"{e}({args})")
            else:
                rows.append(str(e))
        lines.append(f"  {K} = {{ " + ", ".join(rows) + " };")
    lines.append("}")
    return "\n".join(lines) + "\n"


def format_theory(axioms, name, sig) -> str:
    lines = [f"theory {name} over {sig.name} {{"]
    for axiom_name, phi in axioms:
        lines.append(f"  axiom {axiom_name}: {pformat(phi)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- file loading --------------------------------------------------------

def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def load_signature(path):
    return parse_signature(_read(path))


def load_structure(path, sig):
    return parse_structure(_read(path), sig)


def load_theory(path, sig):
    return parse_theory(_read(path), sig)


# -- commands ------------------------------------------------------------

class _Result:
    def __init__(self, ok, lines=(), witness=None, report=None, code=None):
        self.ok = ok
        self.lines = list(lines)
        self.witness = witness
        self.report = report
        self.code = code if code is not None else (0 if ok else 1)

    def payload(self):
        return {"ok": self.ok, "witness": self.witness,
                "report": self.report}


def _sorted_levels(sig):
    order = {K: i for i, K in enumerate(sig.sorts)}
    return sorted(sig.levels.items(), key=lambda kv: (kv[1], order[kv[0]]))


def _cmd_check_sig(args):
    sig = load_signature(args.signature)
    report = {"name": sig.name, "sorts": list(sig.sorts),
              "height": sig.height, "levels": dict(sig.levels)}
    return _Result(True, [f"ok: {sig.name} (height {sig.height})"],
                   report=report)


def _cmd_levels(args):
    sig = load_signature(args.signature)
    pairs = _sorted_levels(sig)
    line = " ".join(f"{K}:{lvl}" for K, lvl in pairs)
    return _Result(True, [line],
                   witness={K: lvl for K, lvl in pairs})


def _cmd_compat(args):
    sig = load_signature(args.signature)
    ctx = parse_context(args.context, sig)
    if not ctx:
        raise ParseError("at least one declaration is required")
    sorts = compatible_sorts(sig, ctx[-1])
    return _Result(True, [" ".join(sorts)], witness=list(sorts))


def _cmd_gen_iso(args):
    sig = load_signature(args.signature)
    x, y, phi = iso_formula(sig, args.sort)
    lines = []
    if args.verbose:
        boundary = sorted(x.boundary() | y.boundary(),
                          key=lambda v: (-sig.level(v.sort), v.name))
        for v in boundary + [x, y]:
            lines.append(f"var {var_decl(v)}")
    lines.append(pformat(phi))
    return _Result(True, lines,
                   witness={"x": var_decl(x), "y": var_decl(y),
                            "formula": pformat(phi)})


def _cmd_eval(args):
    sig = load_signature(args.signature)
    M = load_structure(args.model, sig)
    phi = parse_formula(args.expr, sig)
    if phi.free_vars():
        raise OpenFormula("eval requires a closed formula")
    if args.card:
        n = eval_card(M, phi)
        return _Result(True, [str(n)], witness=n)
    ok = eval_prop(M, phi)
    return _Result(ok, ["true" if ok else "false"], witness=ok)


def _cmd_check_model(args):
    sig = load_signature(args.signature)
    theory = load_theory(args.theory, sig)
    M = load_structure(args.model, sig)
    ok, report = satisfies(M, theory)
    lines = [f"{r['axiom']}: {'ok' if r['ok'] else 'FAILED'}"
             for r in report]
    lines.append("model: ok" if ok else "model: FAILED")
    return _Result(ok, lines, report=report)


def _cmd_sat(args):
    sig = load_signature(args.signature)
    M = load_structure(args.model, sig)
    if args.level is not None:
        violations = [v for K in sig.sorts if sig.level(K) <= args.level
                      for v in check_saturation(M, K)]
        ok = not violations
        report = {"level": args.level, "violations": violations}
        return _Result(ok, [f"level {args.level}: "
                            + ("saturated" if ok else "not saturated")],
                       report=report)
    profile = saturation_profile(M)
    lines = [f"level {n}: "
             + ("saturated" if profile[n] else "not saturated")
             for n in range(1, sig.height + 1)]
    lines.append("total: " + ("yes" if profile["total"] else "no"))
    ok = profile["total"] if args.total else True
    report = {str(n): profile[n] for n in range(1, sig.height + 1)}
    report["total"] = profile["total"]
    return _Result(ok, lines, report=report)


def _cmd_hom(args):
    sig = load_signature(args.signature)
    M = load_structure(args.left, sig)
    N = load_structure(args.right, sig)
    for maps in _hom_search(M, N):
        if args.fibsurj:
            ok, _ = is_fibsurj(Hom(M, N, maps))
            if not ok:
                continue
        kind = "fiberwise surjective hom" if args.fibsurj else "hom"
        return _Result(True, [f"{kind} found"],
                       witness={K: dict(m) for K, m in maps.items()})
    return _Result(False, ["no hom found" if not args.fibsurj
                           else "no fiberwise surjective hom found"])


def _apex_bound(args, M, N):
    limit = args.max_apex
    if limit is None:
        env = os.environ.get("FOLDS_MAX_APEX")
        if env is not None:
            try:
                limit = int(env)
            except ValueError:
                raise ValueError(f"FOLDS_MAX_APEX must be an integer, "
                                 f"got {env!r}") from None
    if limit is None:
        return None
    return {K: limit for K in M.sig.sorts}


def _cmd_equiv(args):
    sig = load_signature(args.signature)
    M = load_structure(args.left, sig)
    N = load_structure(args.right, sig)
    res = find_span(M, N, apex_bound=_apex_bound(args, M, N))
    if res.status == "found":
        span = res.span
        witness = {
            "apex": {K: [repr(e) for e in span.apex.carrier(K)]
                     for K in sig.sorts},
            "left": {K: {repr(e): v for e, v in span.left.maps[K].items()}
                     for K in sig.sorts},
            "right": {K: {repr(e): v
                          for e, v in span.right.maps[K].items()}
                      for K in sig.sorts},
        }
        return _Result(True, ["equivalent: span found"], witness=witness,
                       report={"status": res.status})
    code = 1 if res.status == "absent" else 2
    text = ("not equivalent" if res.status == "absent"
            else "inconclusive: search bound exceeded")
    return _Result(False, [text], report={"status": res.status},
                   code=code)


def _cmd_hsip(args):
    sig = load_signature(args.signature)
    theory = load_theory(args.theory, sig)
    M = load_structure(args.left, sig)
    N = load_structure(args.right, sig)
    reports = {}
    for label, S in (("left", M), ("right", N)):
        ok, rep = satisfies(S, theory)
        reports[label] = rep
        if not ok:
            raise FoldsError(f"{label} structure does not satisfy the "
                             f"theory")
    verdict = hsip_decide(M, N)
    return _Result(verdict,
                   ["isomorphic" if verdict else "not isomorphic"],
                   witness=verdict, report=reports)


# -- entry point ---------------------------------------------------------

def _build_parser():
    ap = argparse.ArgumentParser(
        prog="foldsat",
        description="Dependent-sort signatures, generated isomorphism "
                    "formulas and finite model checking.")
    ap.add_argument("--json", action="store_true",
                    help="emit a JSON object instead of text")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-sig", help="validate a signature file")
    p.add_argument("signature")
    p.set_defaults(fn=_cmd_check_sig)

    p = sub.add_parser("levels", help="print sort levels")
    p.add_argument("signature")
    p.set_defaults(fn=_cmd_levels)

    p = sub.add_parser("compat",
                       help="sorts compatible with the last declared "
                            "variable")
    p.add_argument("signature")
    p.add_argument("context", nargs="+",
                   help="declarations like x:O f:A(x,x)")
    p.set_defaults(fn=_cmd_compat)

    p = sub.add_parser("gen-iso",
                       help="generate the isomorphism formula of a sort")
    p.add_argument("signature")
    p.add_argument("sort")
    p.add_argument("--verbose", action="store_true",
                   help="also print the canonical context")
    p.set_defaults(fn=_cmd_gen_iso)

    p = sub.add_parser("eval", help="evaluate a closed formula")
    p.add_argument("signature")
    p.add_argument("model")
    p.add_argument("-e", "--expr", required=True)
    p.add_argument("--card", action="store_true",
                   help="print the witness count instead of truth")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("check-model",
                       help="check a structure against a theory")
    p.add_argument("signature")
    p.add_argument("theory")
    p.add_argument("model")
    p.set_defaults(fn=_cmd_check_model)

    p = sub.add_parser("sat", help="saturation report")
    p.add_argument("signature")
    p.add_argument("model")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--level", type=int)
    g.add_argument("--total", action="store_true",
                   help="succeed only when totally saturated")
    p.set_defaults(fn=_cmd_sat)

    p = sub.add_parser("hom", help="search for a homomorphism")
    p.add_argument("signature")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--fibsurj", action="store_true",
                   help="require fiberwise surjectivity")
    p.set_defaults(fn=_cmd_hom)

    p = sub.add_parser("equiv",
                       help="search for a span of fiberwise surjections")
    p.add_argument("signature")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--max-apex", type=int, default=None,
                   help="per-sort apex size bound (default: product of "
                        "carrier sizes; env FOLDS_MAX_APEX)")
    p.set_defaults(fn=_cmd_equiv)

    p = sub.add_parser("hsip",
                       help="decide structure identity for saturated "
                            "models")
    p.add_argument("signature")
    p.add_argument("theory")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(fn=_cmd_hsip)
    return ap


def main(argv=None):
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        result = args.fn(args)
    except (FoldsError, OSError, ValueError, RecursionError) as exc:
        msg = ("input nested too deeply" if isinstance(exc, RecursionError)
               else str(exc))
        if args.json:
            print(json.dumps({"ok": False, "witness": None,
                              "report": {"error": msg}}))
        else:
            print(f"error: {msg}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(result.payload(), default=str))
    else:
        for line in result.lines:
            print(line)
    return result.code


if __name__ == "__main__":
    sys.exit(main())
