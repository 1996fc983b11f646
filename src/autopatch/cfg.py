"""Control-flow-graph model and its canonical text form.

Graphs come from the external analyzer's dump (see autopatch.analyzer); the
canonical serialization produced here is the text that gets embedded for
retrieval, so it must be byte-deterministic for equal graphs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

# Dump-internal cross references look like [B8.4]; the block number is an
# artifact of the dump's numbering and changes whenever blocks shift, so it
# is masked to keep statement hashes stable across renumbering.
_BLOCK_REF = re.compile(r"\[B\d+\.\d+\]")


def normalize_statement(text: str) -> str:
    """Collapse whitespace and mask dump-internal block references.

    Operator and identifier text from the source is kept verbatim.
    """
    collapsed = " ".join(text.split())  # str.split's whitespace is the regex `\s`
    return _BLOCK_REF.sub("[B_._]", collapsed) if "[B" in collapsed else collapsed


@dataclass(frozen=True)
class BasicBlock:
    id: int
    statements: tuple[str, ...] = ()
    terminator: str | None = None

    def content_lines(self) -> tuple[str, ...]:
        """Statements plus the terminator condition, the lines that count as
        block content for matching and diffing."""
        if self.terminator is None:
            return self.statements
        return self.statements + (f"T: {self.terminator}",)


@dataclass(frozen=True)
class ControlFlowGraph:
    blocks: tuple[BasicBlock, ...]
    entry_id: int
    exit_id: int
    edges: frozenset[tuple[int, int]] = field(default_factory=frozenset)

    def __post_init__(self):
        """Validate the graph and index it once: its blocks by id and each
        block's successors, ascending, so `block` and `successors` are
        lookups."""
        by_id = {b.id: b for b in self.blocks}
        if len(by_id) != len(self.blocks):
            raise ValueError("duplicate block ids")
        # Canonical order: ascending block id, so graphs parsed from dumps
        # with different emission orders compare equal.
        object.__setattr__(self, "blocks", tuple(map(by_id.__getitem__, sorted(by_id))))
        if self.entry_id not in by_id:
            raise ValueError(f"entry block B{self.entry_id} does not exist")
        if self.exit_id not in by_id:
            raise ValueError(f"exit block B{self.exit_id} does not exist")
        for src, dst in self.edges:
            if src not in by_id or dst not in by_id:
                raise ValueError(f"edge B{src}->B{dst} references a missing block")
            if dst == self.entry_id:
                raise ValueError("entry block has a predecessor")
            if src == self.exit_id:
                raise ValueError("exit block has a successor")
        successors: dict[int, tuple[int, ...]] = {}
        for src, dst in sorted(self.edges):
            successors[src] = successors.get(src, ()) + (dst,)
        object.__setattr__(self, "_by_id", by_id)
        object.__setattr__(self, "_successors", successors)

    def block(self, block_id: int) -> BasicBlock:
        return self._by_id[block_id]

    def successors(self, block_id: int) -> tuple[int, ...]:
        return self._successors.get(block_id, ())


def serialize_cfg(cfg: ControlFlowGraph) -> str:
    """Canonical one-line-per-block form, ascending block id:

        B<id>: <stmt>; <stmt>; T: <cond> -> succ: <id>,<id>

    Equal graphs serialize to byte-identical text.
    """
    lines = []
    for block in cfg.blocks:  # kept in ascending id order by ControlFlowGraph
        content = "; ".join(block.content_lines())
        succs = ",".join(map(str, cfg.successors(block.id)))
        lines.append(f"B{block.id}: {content} -> succ: {succs}")
    return "\n".join(lines) + "\n"
