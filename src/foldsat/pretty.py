"""Deterministic pretty-printer for formulas.

Round-trips with the parser in ``cli`` on canonical forms.  Precedence,
loosest first: quantifiers, <->, ->, |, &, atoms.
"""

from __future__ import annotations

from .synkit import (And, Atom, Bottom, Equiv, Exists, Forall, Formula, Iff,
                     Implies, Or, Top, Variable)

_PREC_QUANT = 0
_PREC_IFF = 1
_PREC_IMPLIES = 2
_PREC_OR = 3
_PREC_AND = 4
_PREC_ATOM = 5


def sort_app(v: Variable) -> str:
    """Print a sort applied to the boundary of ``v``, e.g. ``eqA(f,g)``."""
    if not v.proj:
        return v.sort
    args = ",".join(w.name for _, w in v.proj)
    return f"{v.sort}({args})"


def pformat(phi: Formula) -> str:
    def rec(f, prec):
        if isinstance(f, Top):
            return "true"
        if isinstance(f, Bottom):
            return "false"
        if isinstance(f, Atom):
            return sort_app(f.var)
        if isinstance(f, Equiv):
            s = f"{sort_app(f.alpha)} ~= {sort_app(f.beta)}"
            return s if prec <= _PREC_IFF else f"({s})"
        if isinstance(f, And):
            s = " & ".join(rec(a, _PREC_AND) for a in f.args)
            return s if prec < _PREC_AND else f"({s})"
        if isinstance(f, Or):
            s = " | ".join(rec(a, _PREC_OR) for a in f.args)
            return s if prec < _PREC_OR else f"({s})"
        if isinstance(f, Implies):
            s = (rec(f.lhs, _PREC_IMPLIES + 1) + " -> "
                 + rec(f.rhs, _PREC_IMPLIES))
            return s if prec < _PREC_IMPLIES else f"({s})"
        if isinstance(f, Iff):
            s = rec(f.lhs, _PREC_IFF + 1) + " <-> " + rec(f.rhs, _PREC_IFF + 1)
            return s if prec < _PREC_IFF else f"({s})"
        if isinstance(f, (Forall, Exists)):
            if isinstance(f, Forall):
                kw = "forall"
            else:
                kw = "sum" if f.untruncated else "exists"
            s = f"{kw} {f.var!r}. {rec(f.body, _PREC_QUANT)}"
            return s if prec == _PREC_QUANT else f"({s})"
        raise TypeError(f"unknown node {f!r}")

    return rec(phi, _PREC_QUANT)
