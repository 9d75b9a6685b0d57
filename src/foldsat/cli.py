"""Command-line interface and the text formats.

Three file kinds share one lexer: signature files (``.folds``),
structure files (``.str``) and theory files (``.thy``).  The formula
syntax round-trips with :func:`foldsat.pretty.pformat`.

The lexer returns the token strings.  A plain text, made only of
identifier characters, one-character operators and whitespace (every
corpus structure and signature file is one), is split on whitespace
once the operators are spaced out.  Any other text is read by one
``re.findall``, which the tests also hold the split to.  There, a
character that starts no token comes out as a token of its own, and is
reported before any syntax error.  Tokens carry no position: a
``ParseError`` scans the text again for the line and column of its
token.  Reading a file takes time linear in its length, and positions
cost only when an error is raised.

The commands are rows of one table, ``_COMMANDS``, from which the
argument parser is built.  Every command takes a signature file first;
:func:`main` parses it, then each theory or structure file the command
declares, in command-line order, and hands the parsed objects to the
command.  Every command supports ``--json`` emitting ``{"ok": ...,
"witness": ..., "report": ...}``; exit status is 0 for a positive
answer, 1 for a negative one and 2 for errors (for ``equiv``, an
inconclusive bounded search also exits 2).
The modules a command runs (``finsem``, ``homspan``, ``isogen`` and
``pretty``) are imported inside the functions that call them, and
``json`` only under ``--json``, so that ``check-sig`` and ``levels``
load only the lexer, the parser and the signature core.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from itertools import islice

from .errors import FoldsError, OpenFormula, ParseError
from .sigcore import validate_signature
from .synkit import (And, Atom, Bottom, Equiv, Exists, Forall, Iff, Implies,
                     Or, Top, compatible_sorts, deepest_first, mk_var)

# -- lexer ---------------------------------------------------------------
# A token is an operator or an identifier; whitespace and ``#`` comments
# separate tokens.  An operator starts with a character of _OP_START and
# an identifier never does, so a token's kind is its first character.

_OPS = "{}();,:=.&|"  # the one-character operators
_TOKEN = rf"<->|->|~=|[{_OPS}]|[\w'*]+(?:-[\w'*]+)*"
_OP_START = "<-~" + _OPS
_TOKEN_RE = re.compile(_TOKEN)
# a comment, a token, or one character that starts no token
_SCAN_RE = re.compile(rf"\#[^\n]*|{_TOKEN}|\S")
# a text whose identifiers are the runs of identifier characters between
# whitespace and one-character operators
_PLAIN_RE = re.compile(rf"[\w'*{_OPS}\s]*")


def _lex(text):
    """The token strings of ``text``: split on whitespace once the
    operators are spaced out when the text is plain, else from one
    ``findall``.  A character that starts no token is an error, raised
    before the parser reads any token."""
    if _PLAIN_RE.fullmatch(text):
        for op in _OPS:
            text = text.replace(op, f" {op} ")
        return text.split()
    tokens = _SCAN_RE.findall(text)
    if "#" in text:
        tokens = [t for t in tokens if t[0] != "#"]
    # such a character comes out as a token of its own: check each
    # distinct string once
    bad = {t for t in set(tokens) if len(t) == 1 and not _TOKEN_RE.match(t)}
    if bad:
        i = min(tokens.index(t) for t in bad)
        raise ParseError(f"unexpected character {tokens[i]!r}",
                         *_position(text, i))
    return tokens


def _position(text, i):
    """The line and column of token ``i`` of ``_lex(text)``, or of the end
    of input past the last token; found by scanning again, since only an
    error needs it."""
    starts = (m.start() for m in _SCAN_RE.finditer(text)
              if m.group()[0] != "#")
    at = next(islice(starts, i, None), len(text))
    return text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at)


class _Parser:
    """A cursor over the token strings; ``""``, which no token is, marks
    the end of input, and nothing moves the cursor past it."""

    def __init__(self, text):
        self.text = text
        self.tokens = _lex(text)
        self.tokens.append("")
        self.i = 0

    def error(self, message, i=None):
        """A ``ParseError`` at token ``i`` (default: the current one)."""
        return ParseError(message,
                          *_position(self.text, self.i if i is None else i))

    def at(self, text):
        return self.tokens[self.i] == text

    def accept(self, text):
        if self.tokens[self.i] == text:
            self.i += 1
            return True
        return False

    def expect(self, text):
        tok = self.tokens[self.i]
        if tok != text:
            raise self.error(f"expected {text!r}, got {tok!r}")
        self.i += 1

    def ident(self, what="name"):
        tok = self.tokens[self.i]
        if not tok or tok[0] in _OP_START:
            raise self.error(f"expected {what}, got {tok!r}")
        self.i += 1
        return tok

    def done(self):
        tok = self.tokens[self.i]
        if tok:
            raise self.error(f"unexpected trailing input {tok!r}")


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
                lhs = _parse_path(p)
                p.expect("=")
                equations.append((lhs, _parse_path(p)))
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


def _header(text, kind, sig):
    """A parser past the header ``KIND NAME over SIG {`` of a structure
    or theory file, where SIG must name ``sig``."""
    p = _Parser(text)
    p.expect(kind)
    p.ident(f"{kind} name")
    p.expect("over")
    at = p.i
    signame = p.ident("signature name")
    if signame != sig.name:
        raise p.error(f"{kind} is over {signame!r}, expected {sig.name!r}",
                      at)
    p.expect("{")
    return p


# -- structure files -----------------------------------------------------

def parse_structure(text, sig):
    """``structure NAME over SIG { O = { a, b }; A = { u(a,b) }; I = {
    (ida) }; }``; rows may be named (``w:(ida)`` or ``u(a,b)``),
    anonymous (``(ida)``) or bare names for empty boundaries."""
    p = _header(text, "structure", sig)
    carriers = {K: [] for K in sig.sorts}
    maps = {g.name: {} for g in sig.gens}
    auto = 0
    while not p.accept("}"):
        at = p.i
        K = p.ident("sort name")
        if K not in carriers:
            raise p.error(f"unknown sort {K!r}", at)
        p.expect("=")
        p.expect("{")
        if not p.at("}"):
            elems = carriers[K]
            gens = sig.out_gens(K)
            tables = [maps[g.name] for g in gens]
            while True:
                at = p.i
                elem, args = _parse_row(p)
                if elem is None:
                    auto += 1
                    elem = f"_{K.lower()}{auto}"
                elems.append(elem)
                if args is not None:
                    if len(args) != len(gens):
                        raise p.error(
                            f"element {elem!r} of sort {K} needs "
                            f"{len(gens)} boundary entries, got "
                            f"{len(args)}", at)
                    for table, a in zip(tables, args):
                        table[elem] = a
                if not p.accept(","):
                    break
        p.expect("}")
        p.accept(";")
    p.done()
    from .finsem import validate_structure
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
    phi = _quant(p, sig, dict(env or {}))
    p.done()
    return phi


def _quant(p, sig, env):
    for kw, node, untrunc in (("forall", Forall, False),
                              ("exists", Exists, False),
                              ("sum", Exists, True)):
        if p.accept(kw):
            at = p.i
            v = _parse_decl(p, sig, env)
            old = env.get(v.name)
            for w in env.values():
                if w is not old and old in w.dep():
                    raise p.error(f"binder {v.name!r} rebinds {v.name!r}, on "
                                  f"which the sort of {w.name!r} depends", at)
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
    at = p.i
    K = p.ident("sort name")
    if K not in sig.levels:
        raise p.error(f"unknown sort {K!r}", at)
    fillers = {}
    gens = sig.out_gens(K)
    if p.at("("):
        args = _parse_args(p)
        if len(args) != len(gens):
            raise p.error(f"sort {K} takes {len(gens)} arguments, "
                          f"got {len(args)}", at)
        for g, a in zip(gens, args):
            if a not in env:
                raise p.error(f"unbound variable {a!r}", at)
            fillers[g.name] = env[a]
    elif gens:
        raise p.error(f"sort {K} takes {len(gens)} arguments", at)
    try:
        return mk_var(sig, name, K, fillers)
    except FoldsError as exc:
        raise p.error(str(exc), at)


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
# it is never printed, bound or evaluated, so every such variable takes
# this name, which no identifier can spell.
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
        at = p.i
        beta = _sort_app(p, sig, env, _ATOM_VAR)
        if beta.sort != alpha.sort:
            raise p.error("~= needs two applications of the same sort",
                          at)
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
    p = _header(text, "theory", sig)
    axioms = []
    while not p.accept("}"):
        p.expect("axiom")
        name = p.ident("axiom name")
        p.expect(":")
        phi = _quant(p, sig, {})
        p.accept(";")
        axioms.append((name, phi))
    p.done()
    return axioms


# -- serializers ---------------------------------------------------------

def format_signature(sig) -> str:
    lines = [f"signature {sig.name} {{"]
    for K in sig.sorts:
        gens = sig.out_gens(K)
        decl = f"  sort {K}"
        if gens:
            decl += " { " + ", ".join(f"{g.name}: {g.cod}"
                                      for g in gens) + " }"
        eqs = sig.equations_at(K)
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
    from .pretty import pformat
    lines = [f"theory {name} over {sig.name} {{"]
    for axiom_name, phi in axioms:
        lines.append(f"  axiom {axiom_name}: {pformat(phi)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- commands ------------------------------------------------------------
# Each takes the parsed arguments, the signature and the files the
# command declares after it, parsed, in command-line order.

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


def _cmd_check_sig(args, sig):
    report = {"name": sig.name, "sorts": list(sig.sorts),
              "height": sig.height, "levels": dict(sig.levels)}
    return _Result(True, [f"ok: {sig.name} (height {sig.height})"],
                   report=report)


def _cmd_levels(args, sig):
    # a stable sort keeps declaration order within a level
    levels = {K: sig.level(K) for K in sorted(sig.sorts, key=sig.level)}
    line = " ".join(f"{K}:{lvl}" for K, lvl in levels.items())
    return _Result(True, [line], witness=levels)


def _cmd_compat(args, sig):
    sorts = compatible_sorts(sig, parse_context(args.context, sig)[-1])
    return _Result(True, [" ".join(sorts)], witness=list(sorts))


def _cmd_gen_iso(args, sig):
    from .isogen import iso_formula
    from .pretty import pformat
    x, y, phi = iso_formula(sig, args.sort)
    lines = []
    if args.verbose:
        for v in deepest_first(sig, x.boundary() | y.boundary()) + [x, y]:
            lines.append(f"var {v!r}")
    lines.append(pformat(phi))
    return _Result(True, lines,
                   witness={"x": repr(x), "y": repr(y),
                            "formula": pformat(phi)})


def _cmd_eval(args, sig, M):
    from .finsem import eval_card, eval_prop
    phi = parse_formula(args.expr, sig)
    if phi.free_vars():
        raise OpenFormula("eval requires a closed formula")
    if args.card:
        n = eval_card(M, phi)
        try:
            return _Result(True, [str(n)], witness=n)
        except ValueError:  # more digits than CPython converts to text
            raise FoldsError(f"a witness count of {n.bit_length()} bits is "
                             "too long to print") from None
    ok = eval_prop(M, phi)
    return _Result(ok, ["true" if ok else "false"], witness=ok)


def _cmd_check_model(args, sig, theory, M):
    from .finsem import satisfies
    ok, report = satisfies(M, theory)
    lines = [f"{r['axiom']}: {'ok' if r['ok'] else 'FAILED'}"
             for r in report]
    lines.append("model: ok" if ok else "model: FAILED")
    return _Result(ok, lines, report=report)


def _cmd_sat(args, sig, M):
    from .finsem import check_saturation, saturation_profile
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


def _cmd_hom(args, sig, M, N):
    from .homspan import _hom_search, fibsurj_homs
    kind = "fiberwise surjective hom" if args.fibsurj else "hom"
    homs = ((h.maps for h in fibsurj_homs(M, N)) if args.fibsurj
            else _hom_search(M, N))
    for maps in homs:
        return _Result(True, [f"{kind} found"], witness=maps)
    return _Result(False, [f"no {kind} found"])


def _max_apex(args):
    """The apex bound: ``--max-apex``, else ``FOLDS_MAX_APEX``, else
    None; a negative bound is an input error."""
    bound, source = args.max_apex, "--max-apex"
    env = os.environ.get("FOLDS_MAX_APEX")
    if bound is None and env is not None:
        source = "FOLDS_MAX_APEX"
        try:
            bound = int(env)
        except ValueError:
            raise ValueError(f"FOLDS_MAX_APEX must be an integer, "
                             f"got {env!r}") from None
    if bound is not None and bound < 0:
        raise ValueError(f"{source} must not be negative, got {bound}")
    return bound


def _cmd_equiv(args, sig, M, N):
    from .homspan import find_span
    res = find_span(M, N, max_apex=_max_apex(args))
    report = {"status": res.status}
    if res.status == "absent":
        return _Result(False, ["not equivalent"], report=report, code=1)
    if res.status == "bound_exceeded":
        return _Result(False, ["inconclusive: search bound exceeded"],
                       report=report, code=2)
    span = res.span
    witness = {"apex": {K: [repr(e) for e in span.apex.carrier(K)]
                        for K in sig.sorts}}
    for side, h in (("left", span.left), ("right", span.right)):
        witness[side] = {K: {repr(e): v for e, v in h.maps[K].items()}
                         for K in sig.sorts}
    return _Result(True, ["equivalent: span found"], witness=witness,
                   report=report)


def _cmd_hsip(args, sig, theory, M, N):
    from .finsem import satisfies
    from .homspan import hsip_decide
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

def _arg(*flags, **options):
    return flags, options


_STR = "structure file (.str) over the signature"
_THY = "theory file (.thy) over the signature"

# name, help, handler, then the arguments after the signature: an _arg
# each, or a list of them for a mutually exclusive group
_COMMANDS = (
    ("check-sig", "validate a signature file", _cmd_check_sig, ()),
    ("levels", "print sort levels", _cmd_levels, ()),
    ("compat", "sorts compatible with the last declared variable",
     _cmd_compat,
     (_arg("context", nargs="+", help="declarations like x:O f:A(x,x)"),)),
    ("gen-iso", "generate the isomorphism formula of a sort", _cmd_gen_iso,
     (_arg("sort", help="a sort of the signature"),
      _arg("--verbose", action="store_true",
           help="also print the canonical context"))),
    ("eval", "evaluate a closed formula", _cmd_eval,
     (_arg("model", help=_STR),
      _arg("-e", "--expr", required=True,
           help="a closed formula, in the syntax of .thy axioms"),
      _arg("--card", action="store_true",
           help="print the witness count instead of truth"))),
    ("check-model", "check a structure against a theory", _cmd_check_model,
     (_arg("theory", help=_THY), _arg("model", help=_STR))),
    ("sat", "saturation report", _cmd_sat,
     (_arg("model", help=_STR),
      [_arg("--level", type=int,
            help="report on one level, 1 to the signature's height"),
       _arg("--total", action="store_true",
            help="succeed only when totally saturated")])),
    ("hom", "search for a homomorphism", _cmd_hom,
     (_arg("left", help=_STR), _arg("right", help=_STR),
      _arg("--fibsurj", action="store_true",
           help="require fiberwise surjectivity"))),
    ("equiv", "search for a span of fiberwise surjections", _cmd_equiv,
     (_arg("left", help=_STR), _arg("right", help=_STR),
      _arg("--max-apex", type=int,
           help="per-sort apex size bound (default: product of carrier "
                "sizes; env FOLDS_MAX_APEX)"))),
    ("hsip", "decide structure identity for saturated models", _cmd_hsip,
     (_arg("theory", help=_THY), _arg("left", help=_STR),
      _arg("right", help=_STR))),
)

# the positionals naming a file to parse over the signature
_FILE_PARSERS = {"theory": parse_theory, "model": parse_structure,
                 "left": parse_structure, "right": parse_structure}


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="foldsat",
        description="Dependent-sort signatures, generated isomorphism "
                    "formulas and finite model checking.")
    ap.add_argument("--json", action="store_true",
                    help="emit a JSON object instead of text")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, text, fn, specs in _COMMANDS:
        p = sub.add_parser(name, help=text)
        p.add_argument("signature", help="signature file (.folds)")
        files = []
        for spec in specs:
            if isinstance(spec, list):
                group = p.add_mutually_exclusive_group()
                for flags, options in spec:
                    group.add_argument(*flags, **options)
            else:
                flags, options = spec
                p.add_argument(*flags, **options)
                if flags[0] in _FILE_PARSERS:
                    files.append(flags[0])
        p.set_defaults(fn=fn, files=files)
    return ap


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def main(argv=None):
    args = _build_parser().parse_args(argv)
    if args.json:
        import json
    try:
        sig = parse_signature(_read(args.signature))
        # sat's --level is checked before any other file is read
        level = getattr(args, "level", None)
        if level is not None and not 1 <= level <= sig.height:
            raise ValueError(f"--level must be between 1 and "
                             f"{sig.height}, got {level}")
        files = [_FILE_PARSERS[dest](_read(getattr(args, dest)), sig)
                 for dest in args.files]
        result = args.fn(args, sig, *files)
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
