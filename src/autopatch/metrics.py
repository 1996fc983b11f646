"""Lexical similarity metrics between generated and ground-truth code.

Three measures: matching-line percentage, normalized edit-distance similarity,
and matching-token percentage. Line and token overlap use multiset
intersection against the ground truth, so repeated lines and tokens count
proportionally; both are asymmetric (ground truth is the denominator).
Edit-distance similarity is symmetric.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from itertools import repeat

from .errors import AutopatchError, BothEmpty

# Longest-match-first C/C++ operator inventory. Single characters are caught
# by the catch-all alternative at the end of the token group.
_OPERATORS = [
    "<<=", ">>=", "->*", "...", "<=>",
    "::", "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=",
    "&&", "||", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "##",
]

# One match per token: the whitespace before it, then the token in the one
# group. A comment, or the end of the text after any trailing whitespace,
# matches outside the group, so `findall` yields "" for it. Identifiers and
# single punctuators, the commonest tokens, come first: no later alternative
# starts with their characters. `\Z` takes the trailing whitespace in one
# match, where a scan would restart at each of its characters.
_TOKEN_PATTERN = re.compile(
    r"""
    \s*
    (?: /\*.*?\*/            # block comment
      | //[^\n]*             # line comment
      | ( [A-Za-z_]\w*         # identifier / keyword
        | [;(){},\[\]]         # single punctuator
        | "(?:\\.|[^"\\])*"    # string literal
        | '(?:\\.|[^'\\])*'    # char literal
        | 0[xX][0-9a-fA-F]+[uUlL]*                       # hex literal
        | (?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?[fFlLuU]*  # numeric literal
        | OPERATORS
        | \S                  # any other character, one token each
        )
      | \Z                   # the end, after trailing whitespace
    )
    """.replace("OPERATORS", "|".join(re.escape(op) for op in _OPERATORS)),
    re.VERBOSE | re.DOTALL,
)


def tokenize(code: str) -> list[str]:
    """C-family lexing: identifiers, literals, and operators (longest match
    first) become one token each; comments and whitespace are dropped."""
    return [token for token in _TOKEN_PATTERN.findall(code) if token]


def _normalized_lines(text: str) -> list[str]:
    """Trimmed lines with blank and comment-only lines dropped."""
    lines = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("//"):
            continue
        if line.startswith("/*") and line.endswith("*/") and line.count("/*") == 1:
            continue
        lines.append(line)
    return lines


def normalize_whitespace(text: str) -> str:
    """Collapse all whitespace runs to single spaces (edit-distance input)."""
    return " ".join(text.split())


def _multiset_overlap(split, generated: str, ground_truth: str, empty_reason: str) -> float:
    """Percentage of the ground truth's items, as `split` cuts them, that the
    generated code holds too (multiset intersection)."""
    truth_items = split(ground_truth)
    if not truth_items:
        raise AutopatchError(empty_reason)
    matched = Counter(split(generated)) & Counter(truth_items)
    return sum(matched.values()) / len(truth_items) * 100.0


def line_overlap(generated: str, ground_truth: str) -> float:
    """Percentage of ground-truth lines present in the generated code
    (multiset intersection over normalized lines)."""
    return _multiset_overlap(_normalized_lines, generated, ground_truth,
                             "ground truth has no normalized lines")


def levenshtein(a: str, b: str) -> int:
    """Character-level Levenshtein distance, computed with the bit-parallel
    algorithm of Myers (J. ACM 46(3), 1999) in the formulation of Hyyrö
    (2001), on Python ints of any width.

    Bit i of the column vectors `pv`/`mv` says that cell i+1 of the current
    DP column is one more/less than cell i; the shorter string indexes the
    bits and the longer one is read once, one column per character. Every
    operation carries information only towards higher bits, so bits past the
    shorter string's length never reach the low ones: `pv` is masked only to
    keep it from growing (`mv` never gets such bits, as it shares none with
    `pv`). `mask ^ x` stands for `~x` and keeps every value non-negative,
    which CPython operates on faster.
    """
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    peq: dict[str, int] = {}  # character -> bits of its positions in b
    bit = 1
    for ch in b:
        peq[ch] = peq.get(ch, 0) | bit
        bit <<= 1
    mask = bit - 1
    pv, mv = mask, 0
    for eq in map(peq.get, a, repeat(0)):
        x = eq | mv
        d0 = (((x & pv) + pv) ^ pv) | x
        hp = mv | ((d0 | pv) ^ mask)
        hn = d0 & pv
        hp = (hp << 1) | 1
        pv = ((hn << 1) | ((d0 | hp) ^ mask)) & mask
        mv = hp & d0
    # The last column's top cell is len(a); the vertical deltas sum to the rest.
    return len(a) + pv.bit_count() - mv.bit_count()


def edit_distance_similarity(generated: str, ground_truth: str) -> float:
    """1 - distance/max-length over whitespace-normalized text, in [0, 1]."""
    a = normalize_whitespace(generated)
    b = normalize_whitespace(ground_truth)
    if not a and not b:
        raise BothEmpty("both texts empty after normalization")
    return 1.0 - levenshtein(a, b) / max(len(a), len(b))


def token_overlap(generated: str, ground_truth: str) -> float:
    """Percentage of ground-truth tokens present in the generated code
    (multiset intersection)."""
    return _multiset_overlap(tokenize, generated, ground_truth, "ground truth has no tokens")


@dataclass(frozen=True)
class LexicalScores:
    line_overlap_pct: float
    eds: float
    token_overlap_pct: float


def compute_lexical(generated: str, ground_truth: str) -> LexicalScores:
    return LexicalScores(
        line_overlap_pct=line_overlap(generated, ground_truth),
        eds=edit_distance_similarity(generated, ground_truth),
        token_overlap_pct=token_overlap(generated, ground_truth),
    )
