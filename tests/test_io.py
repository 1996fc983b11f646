"""The JSON gate `_io.loads` against its exact oracle: it fails exactly when
strict UTF-8 decoding, JSON parsing or re-encoding the decoded text as
UTF-8 fails, and otherwise returns the same object, although it re-encodes
only documents that hold a `\\u` escape."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autopatch._io import loads

from helpers import json_text_oracle


def _escape(code: int) -> st.SearchStrategy[str]:
    return st.sampled_from([f"\\u{code:04x}", f"\\u{code:04X}"])


_HIGH = st.integers(0xD800, 0xDBFF)
_LOW = st.integers(0xDC00, 0xDFFF)

# Pieces of the text between a JSON string's quotes.
_PIECE = st.one_of(
    st.text(st.characters(exclude_categories=("Cs",), exclude_characters='"\\'), max_size=4),
    st.integers(0, 0xFFFF).flatmap(_escape),  # any \uXXXX escape
    _HIGH.flatmap(_escape),  # a lone high surrogate
    _LOW.flatmap(_escape),  # a lone low surrogate
    st.tuples(_HIGH, _LOW).map(lambda pair: f"\\u{pair[0]:04x}\\u{pair[1]:04X}"),  # a valid pair
    st.sampled_from(["\\\\u", "\\\\ud800", "\\\\\\ud800", "\\n", "\\\""]),  # an escaped backslash before u; other escapes
    st.sampled_from(["\xe9", "\u2028", "\U0001f600", "\xa0"]),  # raw non-ASCII
)
_STRING = st.lists(_PIECE, max_size=5).map(lambda pieces: '"' + "".join(pieces) + '"')
_DOCUMENT = st.recursive(
    _STRING | st.sampled_from(["0", "-2.5e3", "true", "null"]),
    lambda inner: (
        st.lists(inner, max_size=3).map(lambda items: "[" + ",".join(items) + "]")
        | st.lists(st.tuples(_STRING, inner), max_size=3).map(
            lambda items: "{" + ",".join(f"{key}:{value}" for key, value in items) + "}")
    ),
    max_leaves=6,
)
# A stray continuation or lead byte, an encoded surrogate, a code point past
# U+10FFFF, or any short run of bytes.
_BAD_BYTES = (st.sampled_from([b"\xff", b"\x80", b"\xc3", b"\xed\xa0\x80", b"\xf4\x90\x80\x80"])
              | st.binary(min_size=1, max_size=3))


@st.composite
def _raw_documents(draw) -> bytes:
    """A drawn document as UTF-8, with up to two runs of random or invalid
    UTF-8 bytes spliced in."""
    raw = draw(_DOCUMENT).encode("utf-8")
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(raw)))
        raw = raw[:at] + draw(_BAD_BYTES) + raw[at:]
    return raw


@settings(max_examples=600, deadline=None)
@given(raw=_raw_documents())
def test_loads_equals_its_oracle(raw):
    try:
        expected = json_text_oracle(raw)
    except ValueError:
        with pytest.raises(ValueError):
            loads(raw)
    else:
        assert loads(raw) == expected


@pytest.mark.parametrize("raw", [b'"\\ud800"', b'{"k\\uDFFF": 1}', b'["\\\\", "\\ud83d"]'])
def test_loads_rejects_a_lone_surrogate_escape(raw):
    with pytest.raises(ValueError, match="lone surrogate"):
        loads(raw)
