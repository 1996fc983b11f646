from __future__ import annotations

import operator
import random

try:
    from re import _parser as sre_parser  # Python 3.11 and later
except ImportError:  # Python 3.10
    import sre_parse as sre_parser

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from autopatch.errors import AutopatchError, BothEmpty
from autopatch.metrics import (
    _TOKEN_PATTERN,
    edit_distance_similarity,
    levenshtein,
    line_overlap,
    token_overlap,
    tokenize,
)

from helpers import dp_levenshtein, two_pass_tokenize

# --- tokenizer ---------------------------------------------------------------


def test_tokenize_simple_declaration():
    assert tokenize("int x=1;") == ["int", "x", "=", "1", ";"]


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_comment_only():
    assert tokenize("// only a comment") == []
    assert tokenize("/* block\ncomment */") == []


def test_tokenize_operators_longest_match():
    assert tokenize("a<<=b") == ["a", "<<=", "b"]
    assert tokenize("x->y") == ["x", "->", "y"]
    assert tokenize("a<b") == ["a", "<", "b"]
    assert tokenize("std::sort") == ["std", "::", "sort"]


def test_tokenize_literals_as_single_tokens():
    tokens = tokenize('printf("a b // c", \'x\', 1.5e-3f, 0xFFul);')
    assert '"a b // c"' in tokens
    assert "'x'" in tokens
    assert "1.5e-3f" in tokens
    assert "0xFFul" in tokens


def test_tokenize_unknown_bytes_single_char():
    assert tokenize("a @ b") == ["a", "@", "b"]


# Lexically loaded characters appear four times as often as the plain ones, so
# unterminated comments, strings and escapes come up; the non-ASCII ones
# include a Unicode space, a Unicode digit and a letter that \w accepts.
_LEXICAL = list("/*\"'\\\n\r.ex0123456789<>=:-+&") * 4
_PLAIN = list("abcdxyzABCZ_ \t;(){}[]#!%^|~,?")
_NON_ASCII = ["é", "λ", "\u0663", "\u00a0", "\u2028", "😀", "\x1c"]


_SPACES = " \t\n\r\x0b\x0c\u00a0\u2028"
_CODE_RUN = st.text(alphabet=st.sampled_from(_LEXICAL + _PLAIN + _NON_ASCII), max_size=80)
_SPACE_RUN = st.text(alphabet=_SPACES, min_size=20, max_size=400)
# An ending that leaves whitespace, a comment or a string open at the end.
_OPEN_END = st.sampled_from(["", " ", "\n\t  \n", " " * 300, "/*", "/* open *", "x /* open\n",
                             '"', '"open \\"', "'", "// to the end"])
# Runs of code and long runs of whitespace, then one of those endings.
_LEXED_TEXT = st.builds(operator.add,
                        st.lists(st.one_of(_CODE_RUN, _SPACE_RUN), max_size=4).map("".join),
                        _OPEN_END)


@settings(max_examples=500, deadline=None)
@example("n = 0x1Ful + 0XaB;")
@example("x = .5;")
@example("f(...);")
@example("i++; // done")
@given(_LEXED_TEXT)
def test_tokenize_equals_two_pass_oracle(code):
    assert tokenize(code) == two_pass_tokenize(code)


def _opcode_names(node):
    """The name of every opcode in a parsed pattern, at any depth."""
    if isinstance(node, sre_parser.SubPattern):
        node = node.data
    if isinstance(node, (list, tuple)):
        for item in node:
            yield from _opcode_names(item)
    elif hasattr(node, "name"):
        yield node.name


def test_token_pattern_keeps_to_python_3_10_syntax():
    # The package runs on Python 3.10, which has no atomic group and no
    # possessive quantifier; one would compile here and fail there.
    assert _TOKEN_PATTERN.groups == 1
    names = set(_opcode_names(sre_parser.parse(_TOKEN_PATTERN.pattern, _TOKEN_PATTERN.flags)))
    assert "MAX_REPEAT" in names
    assert not names & {"ATOMIC_GROUP", "POSSESSIVE_REPEAT"}


def test_trailing_whitespace_is_one_match():
    # Without the end anchor nothing matches there, after a scan that
    # restarts at every character of the run: quadratic in its length.
    assert _TOKEN_PATTERN.findall(" \t\n" * 1000) == ["", ""]


# --- line overlap -------------------------------------------------------------


def test_line_overlap_identical():
    code = "\n".join(f"line{i};" for i in range(10))
    assert line_overlap(code, code) == 100.0


def test_line_overlap_partial():
    truth = "a;\nb;\nc;\nd;\n"
    generated = "a;\nb;\nc;\nx;\n"
    assert line_overlap(generated, truth) == 75.0


def test_line_overlap_disjoint():
    assert line_overlap("a;\n", "b;\n") == 0.0


def test_line_overlap_multiset_semantics():
    truth = "a;\na;\nb;\n"
    generated = "a;\n"
    assert line_overlap(generated, truth) == pytest.approx(100.0 / 3)


def test_line_overlap_ignores_blank_and_comment_lines():
    truth = "a;\n\n// note\nb;\n"
    generated = "  a;  \nb;\n"
    assert line_overlap(generated, truth) == 100.0


def test_line_overlap_empty_ground_truth():
    with pytest.raises(AutopatchError, match="^ground truth has no normalized lines$"):
        line_overlap("a;", "\n// nothing\n")


def test_line_overlap_asymmetric():
    truth = "a;\nb;\n"
    generated = "a;\nb;\nc;\nd;\n"
    assert line_overlap(generated, truth) == 100.0
    assert line_overlap(truth, generated) == 50.0


# --- edit distance similarity ---------------------------------------------------


def test_eds_identical():
    assert edit_distance_similarity("int main(){}", "int main(){}") == 1.0


def test_eds_kitten_sitting():
    assert edit_distance_similarity("kitten", "sitting") == pytest.approx(1 - 3 / 7)


def test_eds_empty_vs_nonempty():
    assert edit_distance_similarity("", "abcdef") == 0.0


def test_eds_both_empty():
    with pytest.raises(BothEmpty):
        edit_distance_similarity("  \n ", "\t")


def test_eds_whitespace_normalized():
    assert edit_distance_similarity("int  main ( )", "int main ( )") == 1.0


def test_levenshtein_matches_dp_oracle_random_sample():
    rng = random.Random(11)
    alphabet = "abcx "
    for _ in range(150):
        a = "".join(rng.choice(alphabet) for _ in range(rng.randrange(30)))
        b = "".join(rng.choice(alphabet) for _ in range(rng.randrange(30)))
        assert levenshtein(a, b) == dp_levenshtein(a, b)


# Lengths at and around the 64-bit word boundaries, where a bit-vector
# implementation that works word by word would carry between words.
_BOUNDARY_LENGTHS = (0, 1, 2, 62, 63, 64, 65, 66, 127, 128, 129, 191, 192, 193, 300)
_ALPHABETS = ("ab", "abc x\n", "aé€ж", "a😀𝄞\U0010fffd", "{}();=+ intmax0123")


@st.composite
def _string_pairs(draw):
    """Two strings over one alphabet (ASCII, non-ASCII or astral-plane), each
    0-300 characters long; the second is drawn independently or as a few
    random edits of the first, so distances are both large and small."""
    alphabet = draw(st.sampled_from(_ALPHABETS))
    length = st.one_of(st.sampled_from(_BOUNDARY_LENGTHS), st.integers(0, 300))
    chars = st.sampled_from(alphabet)

    def text() -> str:
        n = draw(length)
        return "".join(draw(st.lists(chars, min_size=n, max_size=n)))

    a = text()
    if draw(st.booleans()):
        b = text()
    else:
        b = list(a)
        for _ in range(draw(st.integers(0, 5))):
            at = draw(st.integers(0, len(b)))
            edit = draw(st.sampled_from(("insert", "delete", "substitute")))
            if edit == "insert" or not b:
                b.insert(at, draw(chars))
            else:
                at = min(at, len(b) - 1)
                if edit == "delete":
                    del b[at]
                else:
                    b[at] = draw(chars)
        b = "".join(b)
    if draw(st.integers(0, 9)) == 0:  # one side empty
        a, b = draw(st.sampled_from(((a, ""), ("", b))))
    return a, b


@settings(max_examples=200, deadline=None)
@given(_string_pairs())
def test_levenshtein_equals_dp_oracle_across_word_boundaries(strings):
    a, b = strings
    expected = dp_levenshtein(a, b)
    assert levenshtein(a, b) == expected
    assert levenshtein(b, a) == expected


def test_levenshtein_long_texts_with_known_distance():
    rng = random.Random(4096)
    text = "".join(rng.choice("{}();=+-<> \nintforwhilex0123") for _ in range(4096))
    middle = len(text) // 2
    deleted = text[:middle] + text[middle + 1:]
    substituted = text[:middle] + ("#" if text[middle] != "#" else "@") + text[middle + 1:]
    assert levenshtein(text, text) == 0
    assert levenshtein(text, deleted) == 1
    assert levenshtein(deleted, text) == 1
    assert levenshtein(text, substituted) == 1
    assert levenshtein(text, "#" + text[1:] + "😀") == 2
    assert levenshtein(text, "") == levenshtein("", text) == 4096


# --- token overlap ---------------------------------------------------------------


def test_token_overlap_identical():
    code = "int x = 1; return x;"
    assert token_overlap(code, code) == 100.0


def test_token_overlap_one_of_five_replaced():
    truth = "int x = 1 ;"
    generated = "int y = 1 ;"
    assert token_overlap(generated, truth) == 80.0


def test_token_overlap_disjoint():
    assert token_overlap("a b c", "x y z") == 0.0


def test_token_overlap_empty_ground_truth():
    with pytest.raises(AutopatchError, match="^ground truth has no tokens$"):
        token_overlap("int x;", "// nothing here")


def test_token_overlap_asymmetric():
    truth = "a b"
    generated = "a b c d"
    assert token_overlap(generated, truth) == 100.0
    assert token_overlap(truth, generated) == 50.0


# --- property tests ---------------------------------------------------------------

code_text = st.text(
    alphabet=st.characters(codec="ascii", exclude_characters="\x00"),
    max_size=120,
)


@settings(max_examples=150, deadline=None)
@given(generated=code_text, truth=code_text)
def test_ranges_hold(generated, truth):
    if tokenize(truth):
        assert 0.0 <= token_overlap(generated, truth) <= 100.0
    try:
        assert 0.0 <= line_overlap(generated, truth) <= 100.0
    except AutopatchError as exc:
        assert str(exc) == "ground truth has no normalized lines"
    try:
        assert 0.0 <= edit_distance_similarity(generated, truth) <= 1.0
    except BothEmpty:
        pass


@settings(max_examples=100, deadline=None)
@given(text=code_text.filter(lambda t: t.strip()))
def test_eds_self_is_one(text):
    assert edit_distance_similarity(text, text) == 1.0


@settings(max_examples=100, deadline=None)
@given(a=code_text, b=code_text)
def test_eds_symmetric(a, b):
    try:
        forward = edit_distance_similarity(a, b)
    except BothEmpty:
        return
    assert forward == edit_distance_similarity(b, a)


@settings(max_examples=100, deadline=None)
@given(text=code_text.filter(lambda t: bool(tokenize(t))))
def test_token_overlap_self_is_hundred(text):
    assert token_overlap(text, text) == 100.0
