"""Diff two control-flow graphs.

The delta has three parts: block-level changes (blocks added or removed),
flow changes (edges added or removed, expressed over the original graph's id
space), and content changes (statement-level edit scripts for matched blocks
whose content differs).

Matching between the two graphs runs in two deterministic passes:

1. exact match on the normalized content-line tuple, ties broken by ascending
   id distance, then lowest original-side id;
2. greedy best-first match over the leftovers by token-set Jaccard similarity
   of block content, accepting pairs scoring at least 0.5.

Greedy keeps the cost at O(n^2) per graph pair, which is what corpus-scale
diffing needs; graph-edit-distance optimality is explicitly not a goal.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass

from .cfg import BasicBlock, ControlFlowGraph
from .metrics import tokenize

JACCARD_ACCEPT_THRESHOLD = 0.5


@dataclass(frozen=True)
class Changes:
    """What the optimized graph adds and removes: block ids in ΔS, and in ΔF
    edges as (source, destination) pairs of endpoints in the diff's id space:
    `("o", id)` for a block of the original graph, `("p", id)` for a block
    that exists only in the optimized graph."""

    added: frozenset
    removed: frozenset

    def is_empty(self) -> bool:
        return not self.added and not self.removed


@dataclass(frozen=True)
class StatementEdit:
    op: str  # "insert" | "delete" | "replace"
    old: tuple[str, ...]
    new: tuple[str, ...]


@dataclass(frozen=True)
class ContentChange:
    o_id: int
    p_id: int
    edits: tuple[StatementEdit, ...]


@dataclass(frozen=True)
class CfgDiff:
    delta_s: Changes
    delta_f: Changes
    delta_c: tuple[ContentChange, ...]

    def is_empty(self) -> bool:
        return self.delta_s.is_empty() and self.delta_f.is_empty() and not self.delta_c


def _block_tokens(block: BasicBlock) -> frozenset[str]:
    tokens: set[str] = set()
    for line in block.content_lines():
        tokens.update(tokenize(line))
    return frozenset(tokens)


def jaccard(a: frozenset[str], b: frozenset[str]) -> float:
    if not a and not b:
        return 1.0
    union = len(a | b)
    return len(a & b) / union


def match_blocks(
    g_o: ControlFlowGraph, g_p: ControlFlowGraph
) -> tuple[tuple[tuple[int, int], ...], frozenset[int], frozenset[int]]:
    """The matched `(o_id, p_id)` pairs, ascending, and the ids left
    unmatched in the original and in the optimized graph. Each pass offers
    its candidates in order to one rule, `take`, which keeps a pair whose
    blocks are both still free. Blocks of different content never compete
    for a block, so pass 1 sorts every equal-content pair at once.
    """
    free_o = {b.id: b for b in g_o.blocks}
    free_p = {b.id: b for b in g_p.blocks}
    pairs: list[tuple[int, int]] = []

    def take(candidates: list[tuple]) -> None:
        for *_, o_id, p_id in candidates:  # each ends with the pair it offers
            if o_id in free_o and p_id in free_p:
                pairs.append((o_id, p_id))
                del free_o[o_id]
                del free_p[p_id]

    # Pass 1: exact content.
    by_content_p: dict[tuple[str, ...], list[int]] = {}
    for block in g_p.blocks:
        by_content_p.setdefault(block.content_lines(), []).append(block.id)
    take(sorted((abs(o.id - p_id), o.id, p_id)
                for o in g_o.blocks for p_id in by_content_p.get(o.content_lines(), ())))

    # Pass 2: greedy token-set similarity over the leftovers.
    if free_o and free_p:
        tokens_o = {o_id: _block_tokens(block) for o_id, block in free_o.items()}
        tokens_p = {p_id: _block_tokens(block) for p_id, block in free_p.items()}
        take(sorted(
            (-similarity, abs(o_id - p_id), o_id, p_id)
            for o_id in free_o
            for p_id in free_p
            if (similarity := jaccard(tokens_o[o_id], tokens_p[p_id])) >= JACCARD_ACCEPT_THRESHOLD
        ))

    return tuple(sorted(pairs)), frozenset(free_o), frozenset(free_p)


def _edit_script(old: tuple[str, ...], new: tuple[str, ...]) -> tuple[StatementEdit, ...]:
    edits = []
    matcher = difflib.SequenceMatcher(a=old, b=new, autojunk=False)
    for op, o_start, o_end, n_start, n_end in matcher.get_opcodes():
        if op == "equal":
            continue
        edits.append(StatementEdit(op=op, old=old[o_start:o_end], new=new[n_start:n_end]))
    return tuple(edits)


def compute_diff(g_o: ControlFlowGraph, g_p: ControlFlowGraph) -> CfgDiff:
    pairs, unmatched_o, unmatched_p = match_blocks(g_o, g_p)
    p_to_o = {p: o for o, p in pairs}

    def map_p(block_id: int) -> tuple[str, int]:
        if block_id in p_to_o:
            return ("o", p_to_o[block_id])
        return ("p", block_id)

    mapped_p_edges = frozenset((map_p(src), map_p(dst)) for src, dst in g_p.edges)
    o_edges = frozenset((("o", src), ("o", dst)) for src, dst in g_o.edges)

    content_changes = []
    for o_id, p_id in pairs:
        old = g_o.block(o_id).content_lines()
        new = g_p.block(p_id).content_lines()
        if old != new:
            content_changes.append(ContentChange(o_id, p_id, _edit_script(old, new)))

    return CfgDiff(
        delta_s=Changes(added=unmatched_p, removed=unmatched_o),
        delta_f=Changes(added=mapped_p_edges - o_edges, removed=o_edges - mapped_p_edges),
        delta_c=tuple(content_changes),
    )


def _summarize(lines: tuple[str, ...]) -> str:
    return " | ".join(lines)


def _render_endpoint(endpoint: tuple[str, int]) -> str:
    graph, block_id = endpoint
    return f"new:B{block_id}" if graph == "p" else f"B{block_id}"


def render_diff(diff: CfgDiff, g_o: ControlFlowGraph | None = None, g_p: ControlFlowGraph | None = None) -> str:
    """Human-readable diff text with one labeled section per component;
    stable ordering, so equal diffs render byte-identically.

    Each section is its label and its entries, one per line, or `<label>:
    none` when it has none. When the graphs are supplied, added/removed
    block entries include the block content to make the text useful in
    prompts.
    """
    blocks: list[str] = []
    for sign, verb, block_ids, graph in (("+", "added", diff.delta_s.added, g_p),
                                         ("-", "removed", diff.delta_s.removed, g_o)):
        for block_id in sorted(block_ids):
            suffix = ""
            if graph is not None:
                suffix = f": {_summarize(graph.block(block_id).content_lines())}"
            blocks.append(f"  {sign} {verb} block B{block_id}{suffix}")

    flow: list[str] = []
    for sign, edges in (("+", diff.delta_f.added), ("-", diff.delta_f.removed)):
        for src, dst in sorted(edges):
            flow.append(f"  {sign} edge {_render_endpoint(src)} -> {_render_endpoint(dst)}")

    content: list[str] = []
    for change in diff.delta_c:
        content.append(f"  block B{change.o_id} -> B{change.p_id}:")
        for edit in change.edits:
            if edit.op == "insert":
                content.append(f"    insert: {_summarize(edit.new)}")
            elif edit.op == "delete":
                content.append(f"    delete: {_summarize(edit.old)}")
            else:
                content.append(f"    replace: {_summarize(edit.old)} -> {_summarize(edit.new)}")

    out: list[str] = []
    for label, entries in (("ΔS", blocks), ("ΔF", flow), ("ΔC", content)):
        out += [f"{label}:", *entries] if entries else [f"{label}: none"]
    return "\n".join(out) + "\n"
