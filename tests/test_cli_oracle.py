"""The lexer of ``foldsat.cli`` against the one it replaced.

``cli._lex`` returns bare token strings, split on whitespace for a plain
text and from one ``findall`` otherwise, and finds a token's position
only when an error asks for it (``cli._position``).  The split must give
``_SCAN_RE.findall``'s tokens on every plain text.
The oracle, ``paper_checks.lex_with_positions``, tracks the line and
column of every token as it scans.  On random texts over the token
alphabet, with whitespace, comments, newlines and junk characters, and
on corpus files with random edits, the two must give the same token
texts and kinds, the same position for every token and for the end of
input, and the same error for a character that starts no token.
"""

from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from foldsat.cli import _OP_START, _PLAIN_RE, _SCAN_RE, _lex, _position
from foldsat.errors import ParseError
from paper_checks import lex_with_positions

ROOT = Path(__file__).resolve().parent.parent
CORPUS_TEXTS = sorted(
    path.read_text()
    for path in [*(ROOT / "corpus").iterdir(),
                 *(ROOT / "tests" / "golden").iterdir()]
    if path.suffix in (".folds", ".str", ".thy"))

PIECES = (
    # operators
    "<->", "->", "~=", "{", "}", "(", ")", ";", ",", ":", "=", ".", "&",
    "|",
    # identifiers and their pieces
    "x", "A1", "f'", "g*", "_", "a-b", "id_0", "é", "٣", "-x", "x-",
    # whitespace, newlines and comments
    " ", "  ", "\t", "\n", "\r\n", "\x0b", "\xa0", "# note", "#", "# $ <",
    # characters that start no token, alone or next to ones that do
    "$", "-", "<", "~", ">", "@", "!", "[", "?", "\x00", "<-", "-<", "~~",
)

SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def assert_lexers_agree(text):
    try:
        want = lex_with_positions(text)
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            _lex(text)
        assert (str(got.value), got.value.line, got.value.col) \
            == (str(exc), exc.line, exc.col)
        return
    got = _lex(text)
    assert got == [t.text for t in want[:-1]]
    assert ["op" if t[0] in _OP_START else "ident" for t in got] \
        == [t.kind for t in want[:-1]]
    # the last index is past every token: the end of input
    assert [_position(text, i) for i in range(len(want))] \
        == [(t.line, t.col) for t in want]


@SETTINGS
@given(st.lists(st.sampled_from(PIECES), max_size=40).map("".join))
@example("")
@example("a-\n-b")
@example("x # $\n$")
@example("sort A { d: O }\n  ~ = x")
def test_lexer_matches_oracle_on_random_texts(text):
    assert_lexers_agree(text)


@st.composite
def edited_corpus_texts(draw):
    """A corpus or golden input file with 1-4 random edits: a piece of
    ``PIECES`` inserted, or a stretch of up to 5 characters deleted."""
    text = draw(st.sampled_from(CORPUS_TEXTS))
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(text)))
        if draw(st.booleans()):
            text = text[:at] + draw(st.sampled_from(PIECES)) + text[at:]
        else:
            text = text[:at] + text[at + draw(st.integers(1, 5)):]
    return text


@settings(SETTINGS, max_examples=60)
@given(edited_corpus_texts())
def test_lexer_matches_oracle_on_edited_corpus_files(text):
    assert_lexers_agree(text)


def test_lexer_matches_oracle_on_corpus_files():
    for text in CORPUS_TEXTS:
        assert_lexers_agree(text)


# the alphabet of a plain text: identifier characters, non-ASCII word
# characters among them, the one-character operators and whitespace
PLAIN_PIECES = ("x", "A1", "f'", "g*", "_", "id_0", "é", "٣", "ß", "Ω",
                "{", "}", "(", ")", ";", ",", ":", "=", ".", "&", "|",
                " ", "\t", "\n", "\r\n", "\x0b", "\xa0", "\u2003",
                "\x1c")
# pieces outside it: each sends a text down the findall path
OTHER_PIECES = ("-", "a-b", "->", "<->", "~=", "<", ">", "~", "#",
                "# c", "$", "@", "\x00")


@SETTINGS
@given(st.lists(st.sampled_from(PLAIN_PIECES), max_size=40).map("".join))
@example("structure S over lcat { O = { a }; A = { f(a,a) }; }")
def test_split_lexer_matches_findall_on_plain_texts(text):
    assert _PLAIN_RE.fullmatch(text)
    assert _lex(text) == _SCAN_RE.findall(text)
    assert_lexers_agree(text)


@SETTINGS
@given(st.lists(st.sampled_from(PLAIN_PIECES), max_size=30).map("".join),
       st.sampled_from(OTHER_PIECES), st.data())
def test_text_outside_the_plain_alphabet_takes_the_findall_path(text, piece,
                                                               data):
    """One piece outside the alphabet anywhere in a plain text: the
    tokens, or the first error at its line and column, of the oracle."""
    at = data.draw(st.integers(0, len(text)))
    text = text[:at] + piece + text[at:]
    assert not _PLAIN_RE.fullmatch(text)
    assert_lexers_agree(text)
