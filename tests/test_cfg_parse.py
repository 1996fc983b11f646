from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from autopatch.analyzer import _strip_diagnostics, parse_cfg_dump, split_dump_functions
from autopatch.cfg import normalize_statement, serialize_cfg
from autopatch.errors import AutopatchError

from conftest import DUMP_DIR, GOLDEN_DIR
from helpers import (every_line_strip_diagnostics, every_pattern_parse_cfg_dump, format_as_dump,
                     outcome, random_cfg, regex_normalize_statement, scan_block, scan_successors)

# Hand-counted from the committed dump files: unique non-NULL successor edges,
# statements = numbered elements plus label lines (case/default/goto targets).
DUMP_EXPECTATIONS = [
    # (fixture, blocks, edges, statements)
    ("prog01", 3, 2, 2),
    ("prog02", 6, 6, 21),
    ("prog03", 7, 7, 17),
    ("prog04", 7, 7, 11),
    ("prog05", 7, 8, 19),
    ("prog06", 7, 7, 12),
    ("prog07", 6, 6, 16),
    ("prog08", 10, 11, 28),
    ("prog09", 7, 8, 18),
    ("prog10", 6, 5, 3),
    ("prog11", 6, 6, 12),
    ("prog12", 10, 11, 26),
]


def _load(name: str) -> str:
    return (DUMP_DIR / f"{name}.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("name,blocks,edges,statements", DUMP_EXPECTATIONS)
def test_parsed_counts_match_hand_counts(name, blocks, edges, statements):
    cfg = parse_cfg_dump(_load(name))
    assert len(cfg.blocks) == blocks
    assert len(cfg.edges) == edges
    assert sum(len(b.statements) for b in cfg.blocks) == statements


@pytest.mark.parametrize("name,blocks,edges,statements", DUMP_EXPECTATIONS)
def test_structural_invariants_hold(name, blocks, edges, statements):
    cfg = parse_cfg_dump(_load(name))
    ids = {b.id for b in cfg.blocks}
    assert all(src in ids and dst in ids for src, dst in cfg.edges)
    assert not any(dst == cfg.entry_id for _, dst in cfg.edges)
    assert not any(src == cfg.exit_id for src, _ in cfg.edges)


@pytest.mark.parametrize("name,blocks,edges,statements", DUMP_EXPECTATIONS)
def test_dump_round_trip(name, blocks, edges, statements):
    first = parse_cfg_dump(_load(name))
    second = parse_cfg_dump(format_as_dump(first))
    assert first == second


def test_entry_exit_identified():
    cfg = parse_cfg_dump(_load("prog01"))
    assert cfg.entry_id == 2
    assert cfg.exit_id == 0
    assert cfg.block(cfg.entry_id).statements == ()


def test_case_labels_preserved_as_statements():
    cfg = parse_cfg_dump(_load("prog05"))
    labels = [s for b in cfg.blocks for s in b.statements if s.endswith(":")]
    assert "case 1:" in labels and "case 2:" in labels and "default:" in labels


def test_null_successors_skipped():
    cfg = parse_cfg_dump(_load("prog10"))  # while(true){break;} folds one edge to NULL
    assert all(isinstance(dst, int) for _, dst in cfg.edges)


def test_dangling_successor_is_parse_error():
    dump = (
        "int main()\n"
        " [B2 (ENTRY)]\n"
        "   Succs (1): B9\n"
        "\n"
        " [B0 (EXIT)]\n"
    )
    with pytest.raises(AutopatchError, match=r"^dump line 0: edge B2->B9 references a missing block$"):
        parse_cfg_dump(dump)


def test_missing_entry_is_parse_error():
    dump = " [B1]\n   1: x\n   Succs (1): B0\n\n [B0 (EXIT)]\n"
    with pytest.raises(AutopatchError, match="^dump line 0: no ENTRY block in dump$"):
        parse_cfg_dump(dump)


_EXIT = " [B0 (EXIT)]\n   Preds (1): B1\n"

# (dump, exact message): each structural fault names its line, or line 0 when
# it concerns the dump as a whole.
PARSE_ERRORS = {
    "second ENTRY": (
        "int main()\n [B2 (ENTRY)]\n   Succs (1): B1\n\n [B1 (ENTRY)]\n   Succs (1): B0\n\n" + _EXIT,
        "dump line 5: second ENTRY block"),
    "second EXIT": (
        "int main()\n [B2 (ENTRY)]\n   Succs (1): B0\n\n [B1 (EXIT)]\n\n" + _EXIT,
        "dump line 7: second EXIT block"),
    "content before any block": (
        "int main()\n   1: x\n [B2 (ENTRY)]\n   Succs (1): B0\n\n" + _EXIT,
        "dump line 2: content outside any block: '1: x'"),
    "signature twice": (
        "int main()\nint f()\n [B2 (ENTRY)]\n   Succs (1): B0\n\n" + _EXIT,
        "dump line 2: unexpected section line 'int f()'"),
    "signature inside the first block": (
        " [B2 (ENTRY)]\nint main()\n   Succs (1): B0\n\n" + _EXIT,
        "dump line 2: unexpected section line 'int main()'"),
    "unrecognized successor": (
        "int main()\n [B2 (ENTRY)]\n   Succs (2): B1 C0\n\n [B1]\n   Succs (1): B0\n\n" + _EXIT,
        "dump line 3: unrecognized successor 'C0'"),
    "no blocks": ("int main()\n\n", "dump line 0: no blocks found in dump"),
    "no EXIT block": (
        "int main()\n [B2 (ENTRY)]\n   Succs (1): B1\n\n [B1]\n   1: x\n",
        "dump line 0: no EXIT block in dump"),
    "duplicate block ids": (
        "int main()\n [B2 (ENTRY)]\n   Succs (1): B1\n\n [B1]\n   Succs (1): B0\n\n"
        " [B1]\n   1: y\n\n" + _EXIT,
        "dump line 0: duplicate block ids"),
}


@pytest.mark.parametrize("case", PARSE_ERRORS)
def test_parse_error_names_its_line(case):
    dump, message = PARSE_ERRORS[case]
    with pytest.raises(AutopatchError) as raised:
        parse_cfg_dump(dump)
    assert str(raised.value) == message


def test_multi_function_dump_rejected_by_single_parser():
    dump = _load("prog01") + "\n" + _load("prog02")
    with pytest.raises(AutopatchError, match=r"^dump line \d+: unexpected section line "):
        parse_cfg_dump(dump)


def test_split_dump_functions_separates_sections():
    dump = _load("prog01") + "\n" + _load("prog02")
    sections = split_dump_functions(dump)
    assert len(sections) == 2
    assert all(sig.startswith("int main") for sig, _ in sections)
    parsed = [parse_cfg_dump(body) for _, body in sections]
    assert len(parsed[0].blocks) == 3
    assert len(parsed[1].blocks) == 6


def test_unknown_indented_lines_become_opaque_statements():
    dump = (
        "int main()\n"
        " [B2 (ENTRY)]\n"
        "   Succs (1): B1\n"
        "\n"
        " [B1]\n"
        "   1: x\n"
        "   (some exotic element kind)\n"
        "   Succs (1): B0\n"
        "\n"
        " [B0 (EXIT)]\n"
        "   Preds (1): B1\n"
    )
    cfg = parse_cfg_dump(dump)
    assert cfg.block(1).statements == ("x", "(some exotic element kind)")


@pytest.mark.parametrize("name", [n for n, *_ in DUMP_EXPECTATIONS])
def test_serialization_deterministic(name):
    cfg = parse_cfg_dump(_load(name))
    again = parse_cfg_dump(_load(name))
    assert serialize_cfg(cfg) == serialize_cfg(again)
    assert serialize_cfg(cfg).encode() == serialize_cfg(again).encode()


def test_serialization_injective_over_fixture_set():
    texts = {}
    for name, *_ in DUMP_EXPECTATIONS:
        texts[name] = serialize_cfg(parse_cfg_dump(_load(name)))
    values = list(texts.values())
    assert len(set(values)) == len(values)


@pytest.mark.parametrize("name", ["prog03", "prog05"])
def test_serialization_matches_golden(name):
    cfg = parse_cfg_dump(_load(name))
    golden = (GOLDEN_DIR / f"{name}.serialized.txt").read_text(encoding="utf-8")
    assert serialize_cfg(cfg) == golden


def test_statement_normalization_masks_dump_references():
    cfg = parse_cfg_dump(_load("prog03"))
    statements = [s for b in cfg.blocks for s in b.statements]
    assert any("[B_._]" in s for s in statements)
    assert not any("[B4.1]" in s for s in statements)


# --- each fast path against the reference it replaced --------------------------
#
# The references in `helpers` try every pattern on every line and scan the
# whole graph per lookup. The generated text holds each thing a guard keys on:
# lines with and without a marker; whitespace beyond ASCII that `str.split`
# and the regex `\s` both take (the separators \x1c-\x1f, NEL, NBSP, the
# ideographic space), some of which `str.splitlines` also breaks lines at;
# `[Bn.m]` references; digits that `\d` takes (`٣`) and does not (`²`); lines
# that start with `[`, `T`, `P` or `S` and match no pattern; opaque lines.

_SPACES = [" ", "   ", "\t", "\x1f", "\xa0", "\u3000", " \x1f\t"]
_BREAKS = ["\n"] * 6 + ["\r\n", "\r", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\x0b"]


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.sampled_from(_SPACES + _BREAKS + ["\u200b", "x", "+", "[B", "[B1.2]", "[B٣.²]",
                                                    "[B12.٣]", ".", "]", "1", "_"]),
                max_size=30).map("".join))
def test_normalize_statement_equals_the_regex_reference(text):
    assert normalize_statement(text) == regex_normalize_statement(text)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_graph_lookups_equal_a_scan_of_the_graph(seed):
    cfg = random_cfg(random.Random(seed))
    for block_id in range(-1, max(b.id for b in cfg.blocks) + 2):
        assert outcome(cfg.block, block_id) == outcome(scan_block, cfg, block_id)
        assert cfg.successors(block_id) == scan_successors(cfg, block_id)


_DIAGNOSTIC_LINES = [
    "input.cpp:3:5: warning: unused variable 'x'", "a.cpp:1: error: bad", "b.cpp:2:1: note: here",
    " c.cpp:1:1: warning: indented", "x: warning: no line number", "1 warning generated.",
    "2 errors generated.", "1 warning and 1 error generated.", "generated.", "٣ warnings generated.",
    "int main()", " [B1]", "   1: x", "",
]


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(_DIAGNOSTIC_LINES) | st.text(alphabet=": warnig.\t1xe", max_size=12),
                max_size=8),
       st.lists(st.sampled_from(_BREAKS), min_size=8, max_size=8))
def test_strip_diagnostics_equals_the_every_line_reference(lines, breaks):
    text = "".join(line + brk for line, brk in zip(lines, breaks))
    assert _strip_diagnostics(text) == every_line_strip_diagnostics(text)


# Lines a block holds, and lines that match no pattern though they start
# like one.
_BODIES = [
    "1: x = [B1.2] + 1", "2: [B2.1] < [B3.4]", "٣: y", "10:x", "3:\ta \x1f b", "1:",
    "T: while [B2.2]", "T: if [B1.1]", "T:", "Preds (2): B1 B3", "Preds (1):",
    "Succs (1): NULL", "Succs (1): B1(Unreachable)", "case 1:", "label:", "x", "x+\xa0[B4.5]",
]
_ODD_BODIES = [
    "²: z", "Tx: y", "T x", "Preds", "P: x", "Succs", "S: x", "[B1", "[B2.1]++", "[x",
]


@st.composite
def _dumps(draw) -> str:
    """Dump-shaped text: an optional signature, then blocks, ENTRY first and
    EXIT last with ids falling from ENTRY's to 0, as clang writes them. Now
    and then a header, id, body line or successor is off, or a stray line
    is put in, so every parse error occurs too."""
    indent = st.sampled_from(_SPACES)
    body = st.sampled_from(_BODIES)
    line = st.tuples(indent, st.one_of(*[body] * 7, st.sampled_from(_ODD_BODIES))).map("".join)
    lines = []
    if draw(st.booleans()):
        lines.append(draw(st.sampled_from(["int main()", "void S::f(int a)"])))
    count = draw(st.integers(0, 5))
    for index in range(count):
        block_id = count - 1 - index
        usual = "ENTRY" if index == 0 else "EXIT" if block_id == 0 else ""
        note = draw(st.sampled_from([usual] * 30 + ["ENTRY", "EXIT", "NORETURN", "ENTRY EXIT", "entry"]))
        number = draw(st.sampled_from([str(block_id)] * 30 + ["0", "1", "٣"]))
        header = f"[B{number} ({note})]" if note else f"[B{number}]"
        lines.append(draw(st.sampled_from(["", " "])) + header)
        lines += draw(st.lists(line, max_size=4))
        if block_id > 0 or draw(st.integers(0, 9)) == 0:
            refs = [f"B{max(block_id - 1, 0)}"] * 24 + ["B0", "NULL", f"B{count}", f"B{count - 1}",
                                                         "Bx", "B²", "C0"]
            targets = draw(st.lists(st.sampled_from(refs), max_size=2))
            lines.append(f"   Succs ({len(targets)}): " + " ".join(targets))
    if draw(st.integers(0, 5)) == 0:
        stray = draw(st.sampled_from(["int f()", "x", "   1: x", "\x1f", ""]) | line)
        lines.insert(draw(st.integers(0, len(lines))), stray)
    breaks = draw(st.lists(st.sampled_from(_BREAKS), min_size=len(lines), max_size=len(lines)))
    return "".join(text + brk for text, brk in zip(lines, breaks))


def _with_examples(texts):
    def decorate(test):
        for text in texts:
            test = example(text)(test)
        return test
    return decorate


@settings(max_examples=1000, deadline=None)
@given(_dumps())
@_with_examples([dump for dump, _ in PARSE_ERRORS.values()])
def test_parse_cfg_dump_equals_the_every_pattern_reference(dump):
    assert outcome(parse_cfg_dump, dump) == outcome(every_pattern_parse_cfg_dump, dump)
