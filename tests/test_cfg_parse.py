from __future__ import annotations

import pytest

from autopatch.analyzer import parse_cfg_dump, split_dump_functions
from autopatch.cfg import serialize_cfg
from autopatch.errors import AutopatchError

from conftest import DUMP_DIR, GOLDEN_DIR
from helpers import format_as_dump

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
