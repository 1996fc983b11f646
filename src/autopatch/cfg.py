"""Control-flow-graph model and its canonical text form.

Graphs come from the external analyzer's dump (see autopatch.analyzer); the
canonical serialization produced here is the text that gets embedded for
retrieval, so it must be byte-deterministic for equal graphs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

_WS_RUN = re.compile(r"\s+")
# Dump-internal cross references look like [B8.4]; the block number is an
# artifact of the dump's numbering and changes whenever blocks shift, so it
# is masked to keep statement hashes stable across renumbering.
_BLOCK_REF = re.compile(r"\[B\d+\.\d+\]")


def normalize_statement(text: str) -> str:
    """Collapse whitespace and mask dump-internal block references.

    Operator and identifier text from the source is kept verbatim.
    """
    collapsed = _WS_RUN.sub(" ", text).strip()
    return _BLOCK_REF.sub("[B_._]", collapsed)


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
        ids = [b.id for b in self.blocks]
        id_set = set(ids)
        if len(ids) != len(id_set):
            raise ValueError("duplicate block ids")
        # Canonical order: ascending block id, so graphs parsed from dumps
        # with different emission orders compare equal.
        object.__setattr__(self, "blocks", tuple(sorted(self.blocks, key=lambda b: b.id)))
        if self.entry_id not in id_set:
            raise ValueError(f"entry block B{self.entry_id} does not exist")
        if self.exit_id not in id_set:
            raise ValueError(f"exit block B{self.exit_id} does not exist")
        for src, dst in self.edges:
            if src not in id_set or dst not in id_set:
                raise ValueError(f"edge B{src}->B{dst} references a missing block")
            if dst == self.entry_id:
                raise ValueError("entry block has a predecessor")
            if src == self.exit_id:
                raise ValueError("exit block has a successor")

    def block(self, block_id: int) -> BasicBlock:
        for b in self.blocks:
            if b.id == block_id:
                return b
        raise KeyError(block_id)

    def successors(self, block_id: int) -> tuple[int, ...]:
        return tuple(sorted(dst for src, dst in self.edges if src == block_id))


def serialize_cfg(cfg: ControlFlowGraph) -> str:
    """Canonical one-line-per-block form, ascending block id:

        B<id>: <stmt>; <stmt>; T: <cond> -> succ: <id>,<id>

    Equal graphs serialize to byte-identical text.
    """
    lines = []
    for block in cfg.blocks:  # kept in ascending id order by ControlFlowGraph
        content = "; ".join(block.content_lines())
        succs = ",".join(str(s) for s in cfg.successors(block.id))
        lines.append(f"B{block.id}: {content} -> succ: {succs}")
    return "\n".join(lines) + "\n"
