import io
import json
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from foldsat import cli
from foldsat.cli import (format_signature, format_structure, format_theory,
                         main, parse_formula, parse_signature,
                         parse_structure, parse_theory)
from foldsat.errors import ParseError
from foldsat.finsem import _MAX_BITS, eval_card, eval_prop
from foldsat.isogen import iso_formula
from foldsat.pretty import pformat
from foldsat.sigcore import Signature
from foldsat.stdlib import builtin_signature, tcat_axioms
from foldsat.synkit import Variable
from paper_checks import CORPUS, corpus
from test_finsem_oracle import formulas

GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.fixture(scope="module")
def lcat():
    return builtin_signature("lcat")


@pytest.fixture(scope="module")
def models():
    return corpus()


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def p(name):
    return str(CORPUS / name)


# -- round-trips ---------------------------------------------------------

def test_signature_roundtrip():
    for name in ("lrg", "lrg_eq", "lcat"):
        sig = builtin_signature(name)
        back = parse_signature(format_signature(sig))
        assert back.sorts == sig.sorts
        assert back.levels == sig.levels
        assert [(g.name, g.dom, g.cod) for g in back.gens] \
            == [(g.name, g.dom, g.cod) for g in sig.gens]


def test_structure_roundtrip(lcat, models):
    for name, M in models.items():
        back = parse_structure(format_structure(M, name), lcat)
        assert back.carriers == M.carriers
        assert back.maps == M.maps


def test_theory_roundtrip(lcat, models):
    axioms = tcat_axioms()
    back = parse_theory(format_theory(axioms, "tcat", lcat), lcat)
    assert [n for n, _ in back] == [n for n, _ in axioms]
    M = models["Z2Cat"]
    for (_, phi), (_, psi) in zip(axioms, back):
        assert pformat(psi) == pformat(phi)
        assert eval_prop(M, psi) == eval_prop(M, phi)


def test_formula_roundtrip_gen_iso():
    for signame, K in (("lrg", "O"), ("lrg", "A"), ("lcat", "O")):
        sig = builtin_signature(signame)
        x, y, phi = iso_formula(sig, K)
        env = {v.name: v for v in x.dep() | y.dep()}
        back = parse_formula(pformat(phi), sig, env)
        assert pformat(back) == pformat(phi)


def test_formula_connectives(lcat, models):
    M = models["TermCat"]
    phi = parse_formula(
        "forall x:O. (exists f:A(x,x). I(f)) & (true | false)", lcat)
    assert eval_prop(M, phi)
    psi = parse_formula("forall x:O. forall y:O. forall f:A(x,y). "
                        "A(x,y) ~= A(y,x)", lcat)
    assert eval_prop(M, psi)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(formulas(builtin_signature("lcat")))
def test_parse_inverts_pformat_on_generated_formulas(phi):
    assert parse_formula(pformat(phi), builtin_signature("lcat")) == phi


def test_parsing_twice_gives_equal_formulas(lcat):
    text = "forall x:O. forall f:A(x,x). I(f) & A(x,x) ~= A(x,x)"
    assert parse_formula(text, lcat) == parse_formula(text, lcat)


def _variables(phi):
    """Every variable object of ``phi``'s nodes, with its projections."""
    out, stack = [], [phi]
    while stack:
        node = stack.pop()
        if isinstance(node, Variable):
            out.append(node)
            stack.extend(v for _, v in node.proj)
        elif isinstance(node, tuple):
            stack.extend(node)
        elif hasattr(node, "_fields"):
            stack.extend(getattr(node, f) for f in node._fields)
    return out


def test_a_parse_builds_each_distinct_variable_once(monkeypatch, lcat):
    """tcat's 11 axioms write 86 variables, binders and the boundaries of
    atoms and ~= sides, of which 35 differ: each is built once, and equal
    variables across the axioms are one object."""
    calls = []
    real = cli.mk_var
    monkeypatch.setattr(cli, "mk_var",
                        lambda *a: calls.append(a) or real(*a))
    axioms = parse_theory((CORPUS / "tcat.thy").read_text(), lcat)
    monkeypatch.undo()
    assert len(calls) == 35
    variables = [v for _, phi in axioms for v in _variables(phi)]
    assert len({id(v) for v in variables}) == len(set(variables)) == 35
    for _, phi in axioms:
        assert parse_formula(pformat(phi), lcat) == phi


@pytest.mark.parametrize("text, renamed, card", [
    # the inner x:A(y,y) is bound only in its own scope: A(x,x) after
    # it reads the outer x:O
    ("sum y:O. sum x:O. ((sum x:A(y,y). true) & A(x,x))",
     "sum y:O. sum x:O. ((sum z:A(y,y). true) & A(x,x))", 9),
    # both eqA(f,f) are written alike, but each f is another arrow: a
    # parsed variable is keyed by what its arguments name, not by them
    ("sum y:O. sum x:O. ((sum f:A(y,y). eqA(f,f)) & "
     "(sum f:A(x,y). eqA(f,f)))",
     "sum y:O. sum x:O. ((sum f:A(y,y). eqA(f,f)) & "
     "(sum g:A(x,y). eqA(g,g)))", 6),
], ids=["restored", "keyed"])
def test_a_shadowing_binder_ends_with_its_scope(lcat, models, text,
                                                renamed, card):
    for formula in (text, renamed):
        assert eval_card(models["Chain3"], parse_formula(formula, lcat)) \
            == card


def test_parse_errors(lcat):
    with pytest.raises(ParseError):
        parse_formula("forall x:O", lcat)
    with pytest.raises(ParseError):
        parse_formula("forall x:Q. true", lcat)
    with pytest.raises(ParseError):
        parse_formula("forall x:O. A(x,y)", lcat)
    with pytest.raises(ParseError):
        parse_formula("forall f:A. true", lcat)
    with pytest.raises(ParseError):
        parse_structure("structure X over wrong { }", lcat)


def test_binder_may_not_rebind_a_variable_a_sort_depends_on(capsys, lcat):
    """The inner ``x`` would stand in the outer one's place in ``f``'s
    boundary, so the count would not be well defined; shadowing with no
    dependent in scope stays legal."""
    text = "sum x:O. sum f:A(x,x).\n  sum x:O. I(f)"
    with pytest.raises(ParseError) as err:
        parse_formula(text, lcat)
    assert str(err.value) == ("binder 'x' rebinds 'x', on which the sort "
                              "of 'f' depends (line 2, col 7)")
    code, out, _ = run(capsys, "eval", p("lcat.folds"), p("Chain3.str"),
                       "-e", text, "--card")
    assert (code, out) == (2, "")
    shadowed = parse_formula("sum x:O. sum f:A(x,x). sum f:A(x,x). "
                             "sum y:O. sum y:O. I(f)", lcat)
    assert eval_card(corpus()["Chain3"], shadowed) == 27


def test_parse_error_position_after_multiline_prefix(lcat):
    text = ("signature S {\n  # a comment\n  sort O;\n\n"
            "  sort A { d: O,\n    c: O }; sort $B;\n}\n")
    with pytest.raises(ParseError) as err:
        parse_signature(text)
    assert (err.value.line, err.value.col) == (6, 18)
    assert str(err.value) == "unexpected character '$' (line 6, col 18)"
    with pytest.raises(ParseError) as err:
        parse_formula("forall x:O.\n  A(x,\n x) &", lcat)
    assert (err.value.line, err.value.col) == (3, 6)


# each message names the token found, or '' at the end of input, and the
# position of that token
@pytest.mark.parametrize("text, message", [
    ("signature { sort O; }",
     "expected signature name, got '{' (line 1, col 11)"),
    ("signature S {\n  sort O { d -> O };\n}",
     "expected ':', got '->' (line 2, col 14)"),
    ("signature S { sort O; } }",
     "unexpected trailing input '}' (line 1, col 25)"),
    ("signature S { sort O;\n  sort",
     "expected sort name, got '' (line 2, col 7)"),
    ("# heading\nsignature S { sort O; sort A { d: O } eq { d. = d } }",
     "expected arrow name, got '=' (line 2, col 47)"),
])
def test_syntax_error_messages(text, message):
    with pytest.raises(ParseError) as err:
        parse_signature(text)
    assert str(err.value) == message


# a file over another signature is reported at the signature's name, a row
# with the wrong number of boundary entries at its first token, and the
# other faults of the header the two kinds share at the token found
@pytest.mark.parametrize("parse, text, message", [
    (parse_structure, "structure X over lrg { }",
     "structure is over 'lrg', expected 'lcat' (line 1, col 18)"),
    (parse_structure,
     "structure X over lcat {\n  O = { a };\n  A = { u(a,a), f:(a) };\n}",
     "element 'f' of sort A needs 2 boundary entries, got 1 "
     "(line 3, col 17)"),
    (parse_structure, "structure X over lcat {\n  O = { a }; A = { (a,a,a) };\n}",
     "element '_a1' of sort A needs 2 boundary entries, got 3 "
     "(line 2, col 20)"),
    (parse_theory, "theory T over\n  lrg { }",
     "theory is over 'lrg', expected 'lcat' (line 2, col 3)"),
    (parse_theory, "theory { }",
     "expected theory name, got '{' (line 1, col 8)"),
    (parse_structure, "structure X\n  lcat { }",
     "expected 'over', got 'lcat' (line 2, col 3)"),
    (parse_structure, "theory X over lcat { }",
     "expected 'structure', got 'theory' (line 1, col 1)"),
])
def test_structure_and_theory_errors_name_their_position(lcat, parse, text,
                                                         message):
    with pytest.raises(ParseError) as err:
        parse(text, lcat)
    assert str(err.value) == message


def test_bad_character_is_reported_before_syntax_errors(capsys):
    """BadChar.folds misses a comma on line 3 and holds a '$' on line 5
    (and others in a comment): the '$' is the error, with its position."""
    path = str(GOLDEN / "BadChar.folds")
    message = "unexpected character '$' (line 5, col 32)"
    assert run(capsys, "check-sig", path) == (2, "", f"error: {message}\n")
    code, out, _ = run(capsys, "--json", "check-sig", path)
    assert code == 2 and json.loads(out)["report"] == {"error": message}


def test_corpus_files_match_builtins(lcat):
    for name in ("lrg", "lrg_eq", "lcat"):
        assert (CORPUS / f"{name}.folds").read_text() \
            == format_signature(builtin_signature(name))
    assert (CORPUS / "tcat.thy").read_text() \
        == format_theory(tcat_axioms(), "tcat", lcat)


# -- commands ------------------------------------------------------------

def test_check_sig(capsys):
    code, out, _ = run(capsys, "check-sig", p("lcat.folds"))
    assert code == 0 and "lcat" in out


def test_check_sig_error(capsys, tmp_path):
    bad = tmp_path / "bad.folds"
    bad.write_text("signature bad { sort X { f: X }; }")
    code, _, err = run(capsys, "check-sig", str(bad))
    assert code == 2 and "error:" in err


def test_levels(capsys):
    code, out, _ = run(capsys, "levels", p("lrg.folds"))
    assert code == 0 and out.strip() == "I:1 A:2 O:3"
    code, out, _ = run(capsys, "levels", p("lcat.folds"))
    assert code == 0 and out.strip() == "comp:1 I:1 eqA:1 A:2 O:3"


def test_compat(capsys):
    code, out, _ = run(capsys, "compat", p("lrg.folds"), "x:O")
    assert code == 0
    assert "A" in out.split()


def test_gen_iso(capsys):
    code, out, _ = run(capsys, "gen-iso", p("lrg.folds"), "O")
    assert code == 0 and "~=" in out
    code, verbose_out, _ = run(capsys, "gen-iso", p("lrg.folds"), "O",
                               "--verbose")
    assert code == 0 and "var x:O" in verbose_out


def test_eval(capsys):
    code, out, _ = run(capsys, "eval", p("lcat.folds"), p("TermCat.str"),
                       "-e", "forall x:O. exists f:A(x,x). I(f)")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(capsys, "eval", p("lcat.folds"), p("Arrow2.str"),
                       "-e", "forall x:O. forall y:O. exists f:A(x,y). "
                             "true")
    assert code == 1 and out.strip() == "false"
    code, out, _ = run(capsys, "eval", p("lcat.folds"), p("Z2Cat.str"),
                       "-e", "sum x:O. sum f:A(x,x). eqA(f,f)", "--card")
    assert code == 0 and out.strip() == "2"


def test_eval_rejects_open_formula(capsys):
    code, _, err = run(capsys, "eval", p("lcat.folds"), p("TermCat.str"),
                       "-e", "exists f:A(x,x). I(f)")
    assert code == 2 and "error:" in err


@pytest.mark.parametrize("expr", [
    "((O ~= O) -> (O ~= O)) -> (O ~= O)",
    "(O ~= O) <-> ((O ~= O) <-> (O ~= O))",
])
def test_a_count_past_the_bit_bound_is_an_error(capsys, tmp_path, expr):
    """On Z_2, O ~= O counts 64, so each formula asks for a power tower
    such as 64 ** (64 ** 64): refused in text and --json, and in an
    axiom of check-model, with exit 2."""
    error = f"a witness count exceeds {_MAX_BITS} bits"
    code, out, err = run(capsys, "eval", p("lcat.folds"), p("Z2Cat.str"),
                         "-e", expr, "--card")
    assert (code, out, err) == (2, "", f"error: {error}\n")
    code, out, _ = run(capsys, "--json", "eval", p("lcat.folds"),
                       p("Z2Cat.str"), "-e", expr, "--card")
    assert code == 2 and json.loads(out)["report"] == {"error": error}
    theory = tmp_path / "tower.thy"
    theory.write_text(f"theory tower over lcat {{\n  axiom t: {expr};\n}}\n")
    code, out, err = run(capsys, "check-model", p("lcat.folds"),
                         str(theory), p("Z2Cat.str"))
    assert (code, out, err) == (2, "", f"error: {error}\n")


def test_a_forall_product_past_the_bit_bound_is_an_error(capsys):
    """On Z_12 each tuple of the chain counts 12 ** 1728, under the bound,
    and the chain multiplies 12 ** 4 of them: the product is refused once
    it passes the bound, in text and --json, not computed in full."""
    T = "(sum u:A(x,x). eqA(k,k))"
    expr = ("sum x:O. forall f:A(x,x). forall g:A(x,x). forall h:A(x,x). "
            f"forall k:A(x,x). {T} -> ({T} -> ({T} -> {T}))")
    error = f"a witness count exceeds {_MAX_BITS} bits"
    argv = ("eval", p("lcat.folds"), str(GOLDEN / "Z12.str"), "-e", expr,
            "--card")
    assert run(capsys, *argv) == (2, "", f"error: {error}\n")
    code, out, _ = run(capsys, "--json", *argv)
    assert code == 2 and json.loads(out)["report"] == {"error": error}


def test_a_count_too_long_to_print_is_an_error(capsys):
    """64 ** 4096 on Z_2 is under the bit bound but has more digits than
    CPython converts to text: ``eval --card`` refuses it, in text and
    --json, and ``eval`` without ``--card`` prints true."""
    argv = ("eval", p("lcat.folds"), p("Z2Cat.str"), "-e",
            "(O ~= O) -> ((O ~= O) -> (O ~= O))")
    error = "a witness count of 24577 bits is too long to print"
    assert run(capsys, *argv, "--card") == (2, "", f"error: {error}\n")
    code, out, _ = run(capsys, "--json", *argv, "--card")
    assert code == 2 and json.loads(out)["report"] == {"error": error}
    assert run(capsys, *argv) == (0, "true\n", "")


def test_check_model(capsys):
    code, out, _ = run(capsys, "check-model", p("lcat.folds"),
                       p("tcat.thy"), p("WalkIso.str"))
    assert code == 0 and "model: ok" in out


def test_check_model_failure(capsys, tmp_path):
    bad = tmp_path / "NoId.str"
    bad.write_text("structure NoId over lcat {\n"
                   "  O = { x };\n  A = { f(x,x) };\n"
                   "  comp = { m(f,f,f) };\n  I = { };\n"
                   "  eqA = { e(f,f) };\n}\n")
    code, out, _ = run(capsys, "check-model", p("lcat.folds"),
                       p("tcat.thy"), str(bad))
    assert code == 1 and "I1-exists: FAILED" in out


def test_sat(capsys):
    code, out, _ = run(capsys, "sat", p("lcat.folds"), p("TermCat.str"),
                       "--total")
    assert code == 0 and "total: yes" in out
    code, out, _ = run(capsys, "sat", p("lcat.folds"), p("Z2Cat.str"),
                       "--total")
    assert code == 1 and "level 3: not saturated" in out
    code, _, _ = run(capsys, "sat", p("lcat.folds"), p("Z2Cat.str"),
                     "--level", "2")
    assert code == 0


def test_duplicate_element_name_is_an_error(capsys, tmp_path):
    """A name listed twice for one sort, in one block or in two, is
    rejected with exit 2; one name in two sorts is allowed, since every
    table is keyed per sort."""
    dup = str(GOLDEN / "Arrow2Dup.str")
    for argv in (["sat", p("lcat.folds"), dup],
                 ["hom", p("lcat.folds"), dup, p("WalkIso.str"),
                  "--fibsurj"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "error: element 'i_0' appears twice in sort 'I'\n"
    split = tmp_path / "Split.str"
    split.write_text("structure Split over lcat {\n  O = { x };\n"
                     "  A = { f(x,x) };\n  comp = { m(f,f,f) };\n"
                     "  I = { u(f) };\n  eqA = { e(f,f) };\n"
                     "  eqA = { e(f,f) };\n}\n")
    code, _, err = run(capsys, "sat", p("lcat.folds"), str(split))
    assert code == 2 and "element 'e' appears twice in sort 'eqA'" in err
    shared = tmp_path / "Shared.str"
    shared.write_text("structure Shared over lcat {\n  O = { e };\n"
                      "  A = { e(e,e) };\n  comp = { e(e,e,e) };\n"
                      "  I = { e(e) };\n  eqA = { e(e,e) };\n}\n")
    code, out, _ = run(capsys, "sat", p("lcat.folds"), str(shared),
                       "--total")
    assert code == 0 and "total: yes" in out


@pytest.mark.parametrize("rows, names", [
    ("(x,x), _a1(x,x)", ("_a2", "_a1")),
    ("_a2(x,x), (x,x), (x,x)", ("_a2", "_a1", "_a3")),
    ("(x,x), (x,x)", ("_a1", "_a2")),
])
def test_anonymous_rows_skip_the_names_of_the_file(capsys, tmp_path, lcat,
                                                   rows, names):
    """An anonymous row is never named after a token of the file, so a
    file that names a row ``_a1`` or ``_a2`` is not rejected for a
    duplicate; without such a token the rows are ``_a1``, ``_a2``, …"""
    text = f"structure X over lcat {{ O = {{ x }}; A = {{ {rows} }}; }}"
    assert parse_structure(text, lcat).carrier("A") == names
    path = tmp_path / "X.str"
    path.write_text(text)
    code, _, err = run(capsys, "sat", p("lcat.folds"), str(path))
    assert (code, err) == (0, "")


def test_hom(capsys):
    code, out, _ = run(capsys, "hom", p("lcat.folds"), p("Arrow2.str"),
                       p("TermCat.str"))
    assert code == 0 and "hom found" in out
    code, _, _ = run(capsys, "hom", p("lcat.folds"), p("Arrow2.str"),
                     p("TermCat.str"), "--fibsurj")
    assert code == 1
    code, _, _ = run(capsys, "hom", p("lcat.folds"), p("WalkIso.str"),
                     p("TermCat.str"), "--fibsurj")
    assert code == 0


def test_equiv(capsys):
    code, out, _ = run(capsys, "equiv", p("lcat.folds"), p("WalkIso.str"),
                       p("TermCat.str"))
    assert code == 0 and "span found" in out
    code, out, _ = run(capsys, "equiv", p("lcat.folds"), p("Arrow2.str"),
                       p("Chain3.str"))
    assert code == 1 and "not equivalent" in out
    code, out, _ = run(capsys, "equiv", p("lcat.folds"), p("WalkIso.str"),
                       p("Z2Cat.str"))
    assert code == 2 and "inconclusive" in out


def test_hsip(capsys):
    code, out, _ = run(capsys, "hsip", p("lcat.folds"), p("tcat.thy"),
                       p("TermCat.str"), p("TermCat.str"))
    assert code == 0 and "isomorphic" in out.strip()
    code, out, _ = run(capsys, "hsip", p("lcat.folds"), p("tcat.thy"),
                       p("Arrow2.str"), p("Chain3.str"))
    assert code == 1 and "not isomorphic" in out
    code, _, err = run(capsys, "hsip", p("lcat.folds"), p("tcat.thy"),
                       p("WalkIso.str"), p("TermCat.str"))
    assert code == 2 and "error:" in err


# `--json` output of the search commands, byte for byte: each golden file
# holds the standard output of `foldsat --json <command> ...` as printed
# by the unrefined recursive search (the plain `hom` ones by the search
# over whole carriers), with the flags a case lists after its files.
# SquarePosetRev and Disc3Rev are relabelled copies with every carrier
# reversed, so the first isomorphism found is not the one the element
# names suggest.  The search order alone decides a plain `hom` witness.
# WalkIso and DoubledI are joined only through the product apex, whose
# largest sort (comp, 8 x 1) a bound of 7 excludes.
GOLDEN_CLI = {
    "equiv_WalkIso_TermCat": (0, "equiv", "WalkIso", "TermCat"),
    "equiv_Arrow2_Chain3": (1, "equiv", "Arrow2", "Chain3"),
    "equiv_WalkIso_Z2Cat": (2, "equiv", "WalkIso", "Z2Cat"),
    "equiv_SquarePoset_SquarePosetRev":
        (0, "equiv", "SquarePoset", "SquarePosetRev"),
    "equiv_Disc3_Disc3Rev": (0, "equiv", "Disc3", "Disc3Rev"),
    "equiv_WalkIso_DoubledI": (0, "equiv", "WalkIso", "DoubledI"),
    "equiv_WalkIso_DoubledI_max_apex_7":
        (2, "equiv", "WalkIso", "DoubledI", "--max-apex", "7"),
    "hsip_Arrow2_Chain3": (1, "hsip", "Arrow2", "Chain3"),
    "hsip_Disc2_Disc3": (1, "hsip", "Disc2", "Disc3"),
    "hsip_SquarePoset_SquarePosetRev":
        (0, "hsip", "SquarePoset", "SquarePosetRev"),
    "hsip_WalkIso_TermCat": (2, "hsip", "WalkIso", "TermCat"),
    "hom_fibsurj_WalkIso_TermCat":
        (0, "hom", "WalkIso", "TermCat", "--fibsurj"),
    "hom_fibsurj_Arrow2_TermCat":
        (1, "hom", "Arrow2", "TermCat", "--fibsurj"),
    "hom_fibsurj_SquarePoset_SquarePosetRev":
        (0, "hom", "SquarePoset", "SquarePosetRev", "--fibsurj"),
    "hom_Disc2_DoubledI": (0, "hom", "Disc2", "DoubledI"),
    "hom_Chain3_Z2Cat": (0, "hom", "Chain3", "Z2Cat"),
}


def structure_path(name):
    path = CORPUS / f"{name}.str"
    return str(path if path.exists() else GOLDEN / f"{name}.str")


@pytest.mark.parametrize("case", sorted(GOLDEN_CLI))
def test_golden_json_output(capsys, case):
    code, command, left, right, *flags = GOLDEN_CLI[case]
    argv = ["--json", command, p("lcat.folds")]
    if command == "hsip":
        argv.append(p("tcat.thy"))
    argv += [structure_path(left), structure_path(right), *flags]
    got_code, out, _ = run(capsys, *argv)
    assert got_code == code
    assert out == (GOLDEN / f"{case}.json").read_text()


def test_max_apex_admits_the_product_it_covers(capsys):
    # every sort of WalkIso x DoubledI has at most 8 elements
    code, out, _ = run(capsys, "--json", "equiv", p("lcat.folds"),
                       p("WalkIso.str"), p("DoubledI.str"), "--max-apex",
                       "8")
    assert code == 0
    assert out == (GOLDEN / "equiv_WalkIso_DoubledI.json").read_text()


SAT_VARIANTS = ([], ["--total"], ["--level", "1"], ["--level", "2"],
                ["--level", "3"])


# ParallelPair (two parallel arrows, nothing else) is saturated at level
# 1 but not at level 2: nothing above A tells its two arrows apart.  Z12,
# the cyclic group of order 12, fails at level 3 only; its card, 12!**6,
# pins six permanents of 12 x 12 matrices to the last digit
@pytest.mark.parametrize("name", sorted(path.stem
                                        for path in CORPUS.glob("*.str"))
                         + ["ParallelPair", "Z12"])
def test_sat_golden(capsys, name):
    """Every form of `sat`, text and `--json`, byte for byte as printed
    before levels were decided bottom-up (ParallelPair: as printed
    before level 2 was decided on distinct elements of a shared fiber;
    Z12: before the permanent grouped equal columns)."""
    transcript = []
    for json_flag in ([], ["--json"]):
        for extra in SAT_VARIANTS:
            code, out, _ = run(capsys, *json_flag, "sat", p("lcat.folds"),
                               structure_path(name), *extra)
            shown = " ".join([*json_flag, "sat", "lcat.folds",
                              f"{name}.str", *extra])
            transcript.append(f"$ foldsat {shown}\nexit {code}\n{out}")
    assert "".join(transcript) == (GOLDEN / f"sat_{name}.txt").read_text()


# `gen-iso --verbose` for every sort of the 3-diamond stack, byte for
# byte, as printed before the signature's compose and position tables
# existed: it pins the order of the boundary declarations and fillers
DIAMOND3 = GOLDEN / "diamond3.folds"


@pytest.mark.parametrize("sort", parse_signature(DIAMOND3.read_text()).sorts)
def test_gen_iso_diamond3_golden(capsys, sort):
    code, out, _ = run(capsys, "gen-iso", str(DIAMOND3), sort, "--verbose")
    assert code == 0
    assert out == (GOLDEN / f"gen_iso_diamond3_{sort}.txt").read_text()


# `gen-iso --verbose` for the middle sort of three parallel arrows, byte
# for byte, as printed while `Ind` still deduplicated its conjuncts up to
# alpha-equivalence: it pins that no filler pattern ever had a duplicate
def test_gen_iso_par3_golden(capsys):
    code, out, _ = run(capsys, "gen-iso", str(GOLDEN / "par3.folds"), "S",
                       "--verbose")
    assert code == 0
    assert out == (GOLDEN / "gen_iso_par3_S.txt").read_text()


# `gen-iso --verbose` for lcat's arrows, byte for byte, as printed while
# Ind was generated in one piece: its 23 conjuncts come from five (R, p)
# groups, each sorted on its own, so it pins the order across groups
def test_gen_iso_lcat_A_golden(capsys):
    code, out, _ = run(capsys, "gen-iso", p("lcat.folds"), "A", "--verbose")
    assert code == 0
    assert out == (GOLDEN / "gen_iso_lcat_A.txt").read_text()


# `gen-iso --verbose` for fork's K: R takes x at p2, and at p1 only when
# x's two points coincide, so Ind holds the three conjuncts of p2 alone
def test_gen_iso_fork_K_golden(capsys):
    code, out, _ = run(capsys, "gen-iso", str(GOLDEN / "fork.folds"), "K",
                       "--verbose")
    assert code == 0
    assert out == (GOLDEN / "gen_iso_fork_K.txt").read_text()


@pytest.mark.parametrize("argv, max_apex, message", [
    (["gen-iso", p("lcat.folds"), "NOPE"], None, "unknown sort 'NOPE'"),
    (["equiv", p("lcat.folds"), p("WalkIso.str"), p("TermCat.str")], "abc",
     "FOLDS_MAX_APEX must be an integer, got 'abc'"),
    *((["sat", p("lcat.folds"), p("Z2Cat.str"), "--level", level], None,
       f"--level must be between 1 and 3, got {level}")
      for level in ("0", "-1", "4", "9")),
    # --level is checked against the signature before the structure is read
    (["sat", p("lcat.folds"), p("nope.str"), "--level", "9"], None,
     "--level must be between 1 and 3, got 9"),
    # a negative apex bound, from the option or from the environment
    (["equiv", p("lcat.folds"), p("WalkIso.str"), p("TermCat.str"),
      "--max-apex", "-1"], None, "--max-apex must not be negative, got -1"),
    (["equiv", p("lcat.folds"), p("WalkIso.str"), p("TermCat.str")], "-3",
     "FOLDS_MAX_APEX must not be negative, got -3"),
])
def test_errors_name_the_problem(capsys, monkeypatch, argv, max_apex,
                                 message):
    if max_apex is not None:
        monkeypatch.setenv("FOLDS_MAX_APEX", max_apex)
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")
    code, out, _ = run(capsys, "--json", *argv)
    assert code == 2
    assert json.loads(out)["report"] == {"error": message}


@pytest.mark.parametrize("argv, code, builds", [
    # commands that read names, levels and fibers only
    (["check-sig", p("lcat.folds")], 0, 0),
    (["levels", p("lcat.folds")], 0, 0),
    (["check-model", p("lcat.folds"), p("tcat.thy"), p("WalkIso.str")], 0, 0),
    (["eval", p("lcat.folds"), p("Z2Cat.str"), "-e",
      "sum x:O. sum f:A(x,x). eqA(f,f)", "--card"], 0, 0),
    # level 1 settles it from fiber sizes
    (["sat", p("lcat.folds"), p("DoubledI.str"), "--total"], 1, 0),
    # commands that generate Ind
    (["gen-iso", p("lcat.folds"), "A"], 0, 1),
    (["sat", p("lcat.folds"), p("Chain3.str")], 0, 1),
])
def test_hom_classes_are_built_on_first_read(capsys, monkeypatch, argv, code,
                                             builds):
    """A signature builds its hom-classes once, and only for a command
    that reads them."""
    calls = []
    build = Signature._build_classes

    def spy(sig):
        calls.append(sig)
        build(sig)
    monkeypatch.setattr(Signature, "_build_classes", spy)
    assert run(capsys, *argv)[0] == code
    assert len(calls) == builds


COMMANDS = ("check-sig", "levels", "compat", "gen-iso", "eval",
            "check-model", "sat", "hom", "equiv", "hsip")

# argparse rejects these before any file is opened, so the paths need not
# exist
USAGE_ERRORS = (
    [],
    ["nope"],
    ["sat", "lcat.folds"],
    ["sat", "lcat.folds", "Z2Cat.str", "--level", "1", "--total"],
    ["sat", "lcat.folds", "Z2Cat.str", "--level", "one"],
    ["eval", "lcat.folds", "Z2Cat.str"],
    ["equiv", "lcat.folds", "WalkIso.str", "TermCat.str", "--max-apex", "x"],
    ["compat", "lrg.folds"],
)


# argparse's help layout changes between Python versions (3.13 prints
# `-e, --expr EXPR`); the transcript is that of 3.10 and 3.11
@pytest.mark.skipif(sys.version_info[:2] not in ((3, 10), (3, 11)),
                    reason="transcript of argparse on Python 3.10-3.11")
def test_help_and_usage_errors_golden(capsys, monkeypatch):
    """Every `--help` and argparse's usage errors, with their exit codes,
    byte for byte."""
    monkeypatch.setenv("COLUMNS", "80")
    transcript = []
    for argv in (["--help"], *([cmd, "--help"] for cmd in COMMANDS),
                 *USAGE_ERRORS):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        out, err = capsys.readouterr()
        transcript.append(f"$ {' '.join(['foldsat', *argv])}\n"
                          f"exit {exc.value.code}\n"
                          + (f"stdout:\n{out}" if out else "")
                          + (f"stderr:\n{err}" if err else ""))
    assert "".join(transcript) == (GOLDEN / "help.txt").read_text()


def test_json_output(capsys):
    code, out, _ = run(capsys, "--json", "levels", p("lrg.folds"))
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"ok", "witness", "report"}
    assert payload["ok"] is True
    assert payload["witness"] == {"I": 1, "A": 2, "O": 3}
    code, out, _ = run(capsys, "--json", "check-sig", p("nope.folds"))
    assert code == 2
    assert json.loads(out)["ok"] is False


@pytest.mark.parametrize("depth", [300, 1500])
def test_deeply_nested_formula_is_an_error(capsys, tmp_path, depth):
    expr = "".join(f"forall x_{i}:O. " for i in range(depth)) + "true"
    code, out, err = run(capsys, "eval", p("lcat.folds"), p("Chain3.str"),
                         "-e", expr)
    assert (code, out, err) == (2, "", "error: input nested too deeply\n")
    code, out, _ = run(capsys, "--json", "eval", p("lcat.folds"),
                       p("Chain3.str"), "-e", expr)
    assert code == 2
    assert json.loads(out)["report"] == {"error": "input nested too deeply"}
    # the same formula as the one axiom of a theory
    thy = tmp_path / "deep.thy"
    thy.write_text(f"theory deep over lcat {{\n  axiom deep: {expr};\n}}\n")
    code, out, err = run(capsys, "check-model", p("lcat.folds"), str(thy),
                         p("Chain3.str"))
    assert (code, out, err) == (2, "", "error: input nested too deeply\n")


# -- mutated inputs through main -------------------------------------------
# Each example edits one input file of one command by 1-4 token edits and
# runs the command in text mode and with --json.  Whatever the edit, main
# answers with exit 0, 1 or 2 and raises nothing; with --json every line
# it prints is JSON, and in text mode exit 2 is one "error:" line.

FUZZ_FORMULA = "forall x:O. exists f:A(x,x). I(f) & A(x,x) ~= A(x,x)"
# a command, then its arguments after the signature: "thy", "str" and
# "str2" stand for the theory and two structure files
FUZZ_COMMANDS = (
    ("check-sig",), ("levels",), ("sat", "str"),
    ("check-model", "thy", "str"), ("eval", "str", "-e", FUZZ_FORMULA),
    ("hom", "str", "str2", "--fibsurj"), ("hsip", "thy", "str", "str2"),
)
FUZZ_STRUCTURES = sorted(path.name for path in CORPUS.glob("*.str"))
# whitespace, words, and any other character alone
FUZZ_PIECE_RE = re.compile(r"\s+|[\w'*]+|\S")
FUZZ_JUNK = ("$", "-", "<", "~", ">", "#", "(", ")", "{", "}", ",", ";",
             ":", "=", ".", "->", "~=", "x", "O", "A", "0")


@st.composite
def fuzz_cases(draw):
    """A command line and the text of its files, one file edited."""
    cmd, *slots = draw(st.sampled_from(FUZZ_COMMANDS))
    files = {"sig": (CORPUS / "lcat.folds").read_text(),
             "thy": (CORPUS / "tcat.thy").read_text()}
    for slot in ("str", "str2"):
        files[slot] = (CORPUS / draw(st.sampled_from(FUZZ_STRUCTURES))
                       ).read_text()
    slot = draw(st.sampled_from(
        ["sig", *(s for s in slots if s in files)]))
    pieces = FUZZ_PIECE_RE.findall(files[slot])
    for _ in range(draw(st.integers(1, 4))):
        tokens = [i for i, t in enumerate(pieces) if not t.isspace()]
        if not tokens:
            pieces.append(draw(st.sampled_from(FUZZ_JUNK)))
            continue
        i = draw(st.sampled_from(tokens))
        edit = draw(st.sampled_from(("delete", "double", "swap", "junk",
                                     "rename")))
        if edit == "delete":
            del pieces[i]
        elif edit == "double":
            pieces.insert(i, pieces[i])
        elif edit == "swap":
            j = tokens[(tokens.index(i) + 1) % len(tokens)]
            pieces[i], pieces[j] = pieces[j], pieces[i]
        elif edit == "junk":
            pieces[i] = draw(st.sampled_from(FUZZ_JUNK))
        else:
            # another name of the same text keeps the syntax, mostly
            pieces[i] = draw(st.sampled_from(
                [pieces[j] for j in tokens if pieces[j][0].isalnum()]
                or FUZZ_JUNK))
    files[slot] = "".join(pieces)
    return cmd, slots, files


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def fuzz_example(cmd, **edited):
    files = {"sig": "lcat.folds", "thy": "tcat.thy", "str": "Arrow2.str",
             "str2": "WalkIso.str"}
    texts = {slot: (CORPUS / name).read_text()
             for slot, name in files.items()}
    cmd, *slots = next(c for c in FUZZ_COMMANDS if c[0] == cmd)
    return cmd, slots, {**texts, **edited}


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(fuzz_cases())
# an element name listed twice: a KeyError in `hom --fibsurj` until
# validate_structure rejected it
@example(fuzz_example("hom", str=(GOLDEN / "Arrow2Dup.str").read_text()))
def test_main_survives_edited_inputs(fuzz_dir, case):
    cmd, slots, files = case
    paths = {}
    for slot, text in files.items():
        paths[slot] = fuzz_dir / f"{slot}.txt"
        paths[slot].write_text(text, encoding="utf-8")
    argv = [cmd, str(paths["sig"]),
            *(str(paths[s]) if s in paths else s for s in slots)]
    for json_flag in ([], ["--json"]):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([*json_flag, *argv])
        assert code in (0, 1, 2)
        if json_flag:
            lines = out.getvalue().splitlines()
            assert lines
            for line in lines:
                json.loads(line)
        elif code == 2:
            assert (out.getvalue(), err.getvalue().count("\n")) == ("", 1)
            assert err.getvalue().startswith("error: ")
