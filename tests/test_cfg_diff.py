from __future__ import annotations

import copy
import hashlib
import itertools
import random

from autopatch.analyzer import parse_cfg_dump
from autopatch.cfg import BasicBlock, ControlFlowGraph, serialize_cfg
from autopatch.cfg_diff import compute_diff, match_blocks, render_diff

from conftest import DUMP_DIR
from helpers import add_unique_blocks, optimal_matching, random_cfg


def _graph(blocks, entry, exit_, edges) -> ControlFlowGraph:
    return ControlFlowGraph(
        blocks=tuple(BasicBlock(i, tuple(stmts)) for i, stmts in blocks),
        entry_id=entry,
        exit_id=exit_,
        edges=frozenset(edges),
    )


BASE = _graph(
    [(3, []), (0, []), (1, ["n = read()", "i = 0"]), (2, ["s = s + i", "i = i + 1"])],
    entry=3,
    exit_=0,
    edges=[(3, 1), (1, 2), (2, 0)],
)


def test_identical_graphs_fully_matched():
    pairs, unmatched_o, unmatched_p = match_blocks(BASE, copy.deepcopy(BASE))
    assert pairs == ((0, 0), (1, 1), (2, 2), (3, 3))
    assert not unmatched_o
    assert not unmatched_p


def test_disjoint_contents_leave_everything_unmatched():
    g_o = _graph([(2, []), (0, []), (1, ["alpha beta gamma"])], 2, 0, [(2, 1), (1, 0)])
    g_p = _graph([(2, []), (0, []), (1, ["delta epsilon zeta"])], 2, 0, [(2, 1), (1, 0)])
    pairs, unmatched_o, unmatched_p = match_blocks(g_o, g_p)
    # entries/exits exact-match on empty content; the disjoint bodies do not
    assert (1, 1) not in pairs
    assert unmatched_o == frozenset({1})
    assert unmatched_p == frozenset({1})


def test_four_vs_five_matches_exhaustive_optimum():
    g_o = _graph(
        [(3, []), (0, []), (1, ["n = read()", "i = 0"]), (2, ["s = s + i", "i = i + 1"])],
        entry=3,
        exit_=0,
        edges=[(3, 1), (1, 2), (2, 0)],
    )
    g_p = _graph(
        [
            (4, []),
            (0, []),
            (1, ["n = read()", "i = 1"]),
            (2, ["s = s + i", "i = i + 1"]),
            (3, ["zz_totally_different_xyzzy"]),
        ],
        entry=4,
        exit_=0,
        edges=[(4, 1), (1, 2), (2, 3), (3, 0)],
    )
    pairs, _, unmatched_p = match_blocks(g_o, g_p)
    assert pairs == optimal_matching(g_o, g_p)
    assert unmatched_p == frozenset({3})


def test_diff_of_identical_graph_is_empty():
    diff = compute_diff(BASE, copy.deepcopy(BASE))
    assert diff.is_empty()
    assert diff.delta_s.is_empty()
    assert diff.delta_f.is_empty()
    assert diff.delta_c == ()


def test_diff_of_random_graphs_with_themselves_is_empty():
    rng = random.Random(7)
    for _ in range(40):
        graph = random_cfg(rng)
        assert compute_diff(graph, copy.deepcopy(graph)).is_empty()


def test_one_block_insertion():
    inserted = _graph(
        [
            (3, []),
            (0, []),
            (1, ["n = read()", "i = 0"]),
            (2, ["s = s + i", "i = i + 1"]),
            (9, ["zz_spliced_marker"]),
        ],
        entry=3,
        exit_=0,
        edges=[(3, 1), (1, 9), (9, 2), (2, 0)],
    )
    diff = compute_diff(BASE, inserted)
    assert diff.delta_s.added == frozenset({9})
    assert diff.delta_s.removed == frozenset()
    assert diff.delta_f.added == frozenset(
        {(("o", 1), ("p", 9)), (("p", 9), ("o", 2))}
    )
    assert diff.delta_f.removed == frozenset({(("o", 1), ("o", 2))})
    assert diff.delta_c == ()


def test_statement_rewrite_yields_single_content_entry():
    rewritten = _graph(
        [(3, []), (0, []), (1, ["n = read()", "i = 0"]), (2, ["s = s + i", "i = i + 2"])],
        entry=3,
        exit_=0,
        edges=[(3, 1), (1, 2), (2, 0)],
    )
    diff = compute_diff(BASE, rewritten)
    assert diff.delta_s.is_empty()
    assert diff.delta_f.is_empty()
    assert len(diff.delta_c) == 1
    change = diff.delta_c[0]
    assert (change.o_id, change.p_id) == (2, 2)
    assert any(edit.op == "replace" for edit in change.edits)


def test_reordered_statements_count_as_content_change():
    reordered = _graph(
        [(3, []), (0, []), (1, ["n = read()", "i = 0"]), (2, ["i = i + 1", "s = s + i"])],
        entry=3,
        exit_=0,
        edges=[(3, 1), (1, 2), (2, 0)],
    )
    diff = compute_diff(BASE, reordered)
    assert diff.delta_s.is_empty() and diff.delta_f.is_empty()
    assert len(diff.delta_c) == 1
    ops = {edit.op for edit in diff.delta_c[0].edits}
    assert ops <= {"insert", "delete", "replace"} and ops


def test_block_count_conservation_random_pairs():
    rng = random.Random(13)
    for _ in range(30):
        g_o = random_cfg(rng)
        g_p = random_cfg(rng)
        pairs, unmatched_o, unmatched_p = match_blocks(g_o, g_p)
        diff = compute_diff(g_o, g_p)
        assert len(diff.delta_s.added) + len(pairs) == len(g_p.blocks)
        assert len(diff.delta_s.removed) + len(pairs) == len(g_o.blocks)
        assert len(pairs) <= min(len(g_o.blocks), len(g_p.blocks))
        matched_o = {o for o, _ in pairs}
        matched_p = {p for _, p in pairs}
        assert matched_o | unmatched_o == {b.id for b in g_o.blocks}
        assert matched_p | unmatched_p == {b.id for b in g_p.blocks}
        assert not matched_o & unmatched_o
        assert not matched_p & unmatched_p


def test_monotone_perturbation_adds_exactly_k_blocks():
    rng = random.Random(99)
    for _ in range(20):
        base = random_cfg(rng, max_blocks=8)
        k = rng.randint(1, 4)
        grown = add_unique_blocks(base, k, rng)
        base_added = len(compute_diff(base, copy.deepcopy(base)).delta_s.added)
        assert base_added == 0
        diff = compute_diff(base, grown)
        assert len(diff.delta_s.added) == k


def test_render_deterministic_and_sectioned():
    rng = random.Random(3)
    g_o = random_cfg(rng)
    g_p = random_cfg(rng)
    first = render_diff(compute_diff(g_o, g_p))
    second = render_diff(compute_diff(g_o, g_p))
    assert first.encode() == second.encode()
    for label in ("ΔS", "ΔF", "ΔC"):
        assert label in first


def test_render_empty_sections_say_none():
    text = render_diff(compute_diff(BASE, copy.deepcopy(BASE)))
    assert text == "ΔS: none\nΔF: none\nΔC: none\n"


# SHA-256 of the texts below: any change to what the dump parser, the block
# matcher or the diff renderer produce on real clang dumps moves it.
FIXTURE_TEXTS_SHA256 = "ebceed3a77931a1a3848753ad1c4164a09c845a930d45db814fc90203e01a4cd"


def test_clang_fixture_texts_are_pinned():
    # The committed clang dumps in name order: each one's serialization, then
    # the rendered diff of every ordered pair of two of them, with content.
    graphs = [parse_cfg_dump(path.read_text(encoding="utf-8"))
              for path in sorted(DUMP_DIR.glob("*.txt"))]
    assert len(graphs) == 12
    digest = hashlib.sha256()
    for graph in graphs:
        digest.update(serialize_cfg(graph).encode("utf-8"))
    for g_o, g_p in itertools.permutations(graphs, 2):
        digest.update(render_diff(compute_diff(g_o, g_p), g_o, g_p).encode("utf-8"))
    assert digest.hexdigest() == FIXTURE_TEXTS_SHA256
