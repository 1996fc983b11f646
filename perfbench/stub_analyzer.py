"""Stand-in for `clang --analyze -analyzer-checker=debug.DumpCFG`.

It accepts clang's argv (`... input.cpp -o out.plist`), reads the input file
and prints a deterministic `debug.DumpCFG`-shaped dump of `main` on stderr.
It understands only the line-structured programs that `corpus_gen` writes:
one statement per line, with `for (...) {`, `while (...) {`, `if (...) {`,
`} else {` and `}` on lines of their own.

Lowering: every top-level simple statement is a block of its own; the
simple statements of a loop or branch body share a block; `if` splits into
a condition block, its arms and an empty join block; `for` into init,
condition, body, increment and join blocks; `while` into condition, body
and join blocks. A loop removed on the optimized side therefore shows up as
removed blocks and edges in the CFG diff.

A source containing FAIL_MARKER makes the stub exit 1, the way clang fails
on a construct it cannot analyze.

Only the standard library is imported, so the launcher can run it under
`python -S`.
"""

from __future__ import annotations

import sys

FAIL_MARKER = "@stub-analyzer-reject"


class _Block:
    __slots__ = ("statements", "terminator", "succs", "id")

    def __init__(self, statements=(), terminator=None):
        self.statements = list(statements)
        self.terminator = terminator
        self.succs: list[_Block] = []
        self.id = -1


def _main_body(source: str) -> list[str]:
    lines = source.splitlines()
    for start, line in enumerate(lines):
        if line.strip() == "int main() {":
            break
    else:
        raise ValueError("no `int main() {` line")
    body, depth = [], 1
    for line in lines[start + 1 :]:
        text = line.strip()
        if not text or text.startswith("//"):
            continue
        if text == "}" or text == "} else {":
            depth -= 1
            if depth == 0:
                return body
        if text.endswith("{"):
            depth += 1
        body.append(text)
    raise ValueError("unterminated main()")


def _parse(lines: list[str], pos: int = 0):
    """Statement tree from the body lines: ('simple', text),
    ('if', cond, then, orelse), ('for', init, cond, step, body) and
    ('while', cond, body). Returns (statements, next position)."""
    out = []
    while pos < len(lines):
        text = lines[pos]
        if text in ("}", "} else {"):
            return out, pos
        if text.startswith("if (") and text.endswith(") {"):
            cond = text[4:-3]
            then, pos = _parse(lines, pos + 1)
            orelse = []
            if lines[pos] == "} else {":
                orelse, pos = _parse(lines, pos + 1)
            out.append(("if", cond, then, orelse))
        elif text.startswith("for (") and text.endswith(") {"):
            init, cond, step = (part.strip() for part in text[5:-3].split(";"))
            body, pos = _parse(lines, pos + 1)
            out.append(("for", init, cond, step, body))
        elif text.startswith("while (") and text.endswith(") {"):
            cond = text[7:-3]
            body, pos = _parse(lines, pos + 1)
            out.append(("while", cond, body))
        else:
            out.append(("simple", text))
        pos += 1
    return out, pos


def _lower(stmts, follow: _Block, top_level: bool) -> _Block:
    """Blocks for `stmts` running into `follow`; returns the first block."""
    nxt = follow
    pending: list[str] = []  # simple statements sharing one body block

    def flush():
        nonlocal nxt
        if pending:
            block = _Block(pending[::-1])
            block.succs = [nxt]
            nxt = block
            pending.clear()

    for stmt in reversed(stmts):
        kind = stmt[0]
        if kind == "simple":
            if top_level:
                block = _Block([stmt[1]])
                block.succs = [nxt]
                nxt = block
            else:
                pending.append(stmt[1])
            continue
        flush()
        join = _Block()
        join.succs = [nxt]
        if kind == "if":
            cond = _Block([stmt[1]], f"if ({stmt[1]})")
            cond.succs = [_lower(stmt[2], join, False), _lower(stmt[3], join, False)]
            nxt = cond
        elif kind == "for":
            cond = _Block([stmt[2]], f"for ({stmt[1]}; {stmt[2]}; {stmt[3]})")
            step = _Block([stmt[3]])
            step.succs = [cond]
            cond.succs = [_lower(stmt[4], step, False), join]
            init = _Block([stmt[1]])
            init.succs = [cond]
            nxt = init
        else:
            cond = _Block([stmt[1]], f"while ({stmt[1]})")
            cond.succs = [_lower(stmt[2], cond, False), join]
            nxt = cond
    flush()
    return nxt


def dump_cfg(source: str) -> str:
    """The dump text for `main` of `source`, as clang prints it on stderr."""
    stmts, _ = _parse(_main_body(source))
    exit_block = _Block()
    entry = _Block()
    entry.succs = [_lower(stmts, exit_block, True)]

    order, seen = [], {id(exit_block)}
    stack = [entry]
    while stack:  # depth-first, successors in order
        block = stack.pop()
        if id(block) in seen:
            continue
        seen.add(id(block))
        order.append(block)
        stack.extend(reversed(block.succs))
    order.append(exit_block)
    for number, block in enumerate(order):
        block.id = len(order) - 1 - number  # ENTRY highest, EXIT B0

    preds: dict[int, list[int]] = {}
    for block in order:
        for succ in block.succs:
            preds.setdefault(succ.id, []).append(block.id)

    out = ["int main()"]
    for block in order:
        if block is entry:
            out.append(f" [B{block.id} (ENTRY)]")
        elif block is exit_block:
            out.append(f" [B{block.id} (EXIT)]")
        else:
            out.append(f" [B{block.id}]")
        for number, text in enumerate(block.statements, start=1):
            out.append(f"   {number}: {text}")
        if block.terminator is not None:
            out.append(f"   T: {block.terminator}")
        if block.id in preds:
            ids = sorted(preds[block.id], reverse=True)
            out.append(f"   Preds ({len(ids)}): " + " ".join(f"B{i}" for i in ids))
        if block.succs:
            out.append(f"   Succs ({len(block.succs)}): " + " ".join(f"B{s.id}" for s in block.succs))
        out.append("")
    return "\n".join(out)


def main(argv: list[str]) -> int:
    inputs = [arg for arg in argv if arg.endswith(".cpp")]
    if len(inputs) != 1:
        sys.stderr.write("stub analyzer: expected exactly one .cpp input\n")
        return 2
    with open(inputs[0], encoding="utf-8") as handle:
        source = handle.read()
    if FAIL_MARKER in source:
        sys.stderr.write(f"{inputs[0]}:1:1: error: construct not supported by the analyzer\n")
        return 1
    try:
        dump = dump_cfg(source)
    except ValueError as exc:
        sys.stderr.write(f"{inputs[0]}:1:1: error: {exc}\n")
        return 1
    sys.stderr.write(dump + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
