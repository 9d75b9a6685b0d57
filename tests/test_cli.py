import json
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings

from foldsat.cli import (format_signature, format_structure, format_theory,
                         main, parse_formula, parse_signature,
                         parse_structure, parse_theory)
from foldsat.errors import ParseError
from foldsat.finsem import eval_prop
from foldsat.isogen import iso_formula
from foldsat.pretty import pformat
from foldsat.stdlib import builtin_signature, corpus, tcat_axioms
from test_finsem_oracle import formulas

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
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


def test_corpus_files_match_builtins(lcat, models):
    for name, M in models.items():
        disk = parse_structure((CORPUS / f"{name}.str").read_text(), lcat)
        assert disk.carriers == M.carriers
        assert disk.maps == M.maps
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
# by the unrefined recursive search.  SquarePosetRev and Disc3Rev are
# relabelled copies with every carrier reversed, so the first
# isomorphism found is not the one the element names suggest.
GOLDEN_CLI = {
    "equiv_WalkIso_TermCat": (0, "equiv", "WalkIso", "TermCat"),
    "equiv_Arrow2_Chain3": (1, "equiv", "Arrow2", "Chain3"),
    "equiv_WalkIso_Z2Cat": (2, "equiv", "WalkIso", "Z2Cat"),
    "equiv_SquarePoset_SquarePosetRev":
        (0, "equiv", "SquarePoset", "SquarePosetRev"),
    "equiv_Disc3_Disc3Rev": (0, "equiv", "Disc3", "Disc3Rev"),
    "hsip_Arrow2_Chain3": (1, "hsip", "Arrow2", "Chain3"),
    "hsip_Disc2_Disc3": (1, "hsip", "Disc2", "Disc3"),
    "hsip_SquarePoset_SquarePosetRev":
        (0, "hsip", "SquarePoset", "SquarePosetRev"),
    "hsip_WalkIso_TermCat": (2, "hsip", "WalkIso", "TermCat"),
    "hom_fibsurj_WalkIso_TermCat": (0, "hom", "WalkIso", "TermCat"),
    "hom_fibsurj_Arrow2_TermCat": (1, "hom", "Arrow2", "TermCat"),
    "hom_fibsurj_SquarePoset_SquarePosetRev":
        (0, "hom", "SquarePoset", "SquarePosetRev"),
}


def structure_path(name):
    path = CORPUS / f"{name}.str"
    return str(path if path.exists() else GOLDEN / f"{name}.str")


@pytest.mark.parametrize("case", sorted(GOLDEN_CLI))
def test_golden_json_output(capsys, case):
    code, command, left, right = GOLDEN_CLI[case]
    argv = ["--json", command, p("lcat.folds")]
    if command == "hsip":
        argv.append(p("tcat.thy"))
    argv += [structure_path(left), structure_path(right)]
    if command == "hom":
        argv.append("--fibsurj")
    got_code, out, _ = run(capsys, *argv)
    assert got_code == code
    assert out == (GOLDEN / f"{case}.json").read_text()


SAT_VARIANTS = ([], ["--total"], ["--level", "1"], ["--level", "2"],
                ["--level", "3"])


# ParallelPair (two parallel arrows, nothing else) is saturated at level
# 1 but not at level 2: nothing above A tells its two arrows apart
@pytest.mark.parametrize("name", sorted(path.stem
                                        for path in CORPUS.glob("*.str"))
                         + ["ParallelPair"])
def test_sat_golden(capsys, name):
    """Every form of `sat`, text and `--json`, byte for byte as printed
    before levels were decided bottom-up (ParallelPair: as printed
    before level 2 was decided on distinct elements of a shared fiber)."""
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
def test_deeply_nested_formula_is_an_error(capsys, depth):
    expr = "".join(f"forall x_{i}:O. " for i in range(depth)) + "true"
    code, out, err = run(capsys, "eval", p("lcat.folds"), p("Chain3.str"),
                         "-e", expr)
    assert (code, out, err) == (2, "", "error: input nested too deeply\n")
    code, out, _ = run(capsys, "--json", "eval", p("lcat.folds"),
                       p("Chain3.str"), "-e", expr)
    assert code == 2
    assert json.loads(out)["report"] == {"error": "input nested too deeply"}
