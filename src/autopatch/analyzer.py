"""Drive the external C++ static analyzer and parse its CFG dump.

The analyzer is invoked as a subprocess in CFG-dump mode; the dump is a
per-function textual listing shaped like

    int main()
     [B3 (ENTRY)]
       Succs (1): B2
     [B2]
       1: x
       2: [B2.1]++
       T: while [B2.2]
       Preds (2): B1 B3
       Succs (2): B1 B0
     [B0 (EXIT)]
       Preds (1): B1

Blocks are introduced by `[Bn]` headers, statements are numbered, `T:` carries
the terminator, and edges come from the `Succs` lines (`Preds` is redundant
and only validated syntactically). `NULL` successors mark edges the analyzer
constant-folded away and are skipped. Unknown indented lines inside a block
(labels, exotic element kinds) are preserved verbatim as opaque statements,
never dropped.

`run_analyzer` returns the analyzer's answer, its exit status and stderr
text, and `parse_answer` reads the CFG from an answer; `extract_cfg` joins
the two through `LlmClient.answer`, the one record/replay rule, which runs,
records or replays the answer as it does a chat exchange.
"""

from __future__ import annotations

import json
import os
import re
import shlex
import shutil
import subprocess
import tempfile
from dataclasses import dataclass
from pathlib import Path

from .cfg import BasicBlock, ControlFlowGraph, normalize_statement
from .errors import AutopatchError
from .preprocess import preprocess_source
from .prompting import LlmClient, content_key

ANALYZER_PATH_ENV = "AUTOPATCH_ANALYZER_PATH"
ANALYZER_FLAGS_ENV = "AUTOPATCH_ANALYZER_FLAGS"

# max-nodes=1 skips path-sensitive exploration (the dump is emitted from the
# AST callback, so the graph is unaffected); silence-checkers drops analyzer
# reports that would otherwise interleave with the dump on stderr.
_DEFAULT_ARGS = (
    "--analyze",
    "-Xclang",
    "-analyzer-checker=debug.DumpCFG",
    "-Xclang",
    "-analyzer-config",
    "-Xclang",
    "max-nodes=1,silence-checkers=core;cplusplus;deadcode;nullability;optin;security;unix;osx",
    "-w",
    "-fno-caret-diagnostics",
    "-fno-color-diagnostics",
    "-std=c++17",
)
ANALYZER_TIMEOUT_S = 120.0


@dataclass
class AnalyzerConfig:
    binary: str = "clang"
    extra_flags: tuple[str, ...] = ()

    @classmethod
    def from_env(cls) -> "AnalyzerConfig":
        config = cls()
        env_binary = os.environ.get(ANALYZER_PATH_ENV)
        if env_binary:
            config.binary = env_binary
        env_flags = os.environ.get(ANALYZER_FLAGS_ENV)
        if env_flags:
            config.extra_flags = tuple(shlex.split(env_flags))
        return config

    @property
    def args(self) -> tuple[str, ...]:
        """The arguments before the input file. With the source, they decide
        the answer; the binary's path does not."""
        return (*_DEFAULT_ARGS, *self.extra_flags)


_BLOCK_HEADER = re.compile(r"^\s*\[B(\d+)(?:\s*\(([A-Z /]+)\))?\]$")
_STATEMENT = re.compile(r"^\s+(\d+): (.*)$")
_TERMINATOR = re.compile(r"^\s+T: (.*)$")
_PREDS = re.compile(r"^\s+Preds \((\d+)\):(.*)$")
_SUCCS = re.compile(r"^\s+Succs \((\d+)\):(.*)$")
_SUCC_REF = re.compile(r"^B(\d+)(?:\((\w+)\))?$")
_DIAGNOSTIC = re.compile(r"^\S.*:\d+(?::\d+)?: (?:warning|error|note): ")
_DIAG_TRAILER = re.compile(r"^\d+ (?:warning|error)s? generated\.$")


def _strip_diagnostics(text: str) -> str:
    kept = []
    for line in text.splitlines():
        if _DIAGNOSTIC.match(line) or _DIAG_TRAILER.match(line):
            continue
        kept.append(line)
    return "\n".join(kept)


def split_dump_functions(dump: str) -> list[tuple[str, str]]:
    """Split a multi-function dump into (signature, section) pairs.

    A section starts at a nonblank column-0 line and runs until the next one.
    """
    sections: list[tuple[str, list[str]]] = []
    for line in dump.splitlines():
        if line and not line[0].isspace():
            sections.append((line.strip(), []))
        elif sections:
            sections[-1][1].append(line)
    return [(sig, "\n".join(body)) for sig, body in sections]


def _signature_name(signature: str) -> str:
    """Extract the (possibly qualified) function name from a dump signature
    line such as `int helper(int a)` or `void S::f()`."""
    head = signature.split("(", 1)[0].strip()
    match = re.search(r"[\w:~]+$", head)
    return match.group(0) if match else head


def _parse_error(line_no: int, reason: str) -> AutopatchError:
    return AutopatchError(f"dump line {line_no}: {reason}")


def parse_cfg_dump(dump: str) -> ControlFlowGraph:
    """Parse one function's dump section into a ControlFlowGraph.

    Each `[Bn]` header opens a block, `[id, statements, terminator]`, and
    every indented line after it writes into the last one opened; the
    BasicBlocks are built once, at the end, with the graph. Raises
    AutopatchError, naming the dump line, on unrecognized structural lines,
    dangling successor references, or a missing ENTRY/EXIT block.
    """
    blocks: list[list] = []
    entry_id: int | None = None
    exit_id: int | None = None
    edges: set[tuple[int, int]] = set()
    seen_signature = False

    for line_no, line in enumerate(dump.splitlines(), start=1):
        if not line.strip():
            continue

        header = _BLOCK_HEADER.match(line)
        if header is not None:
            block_id = int(header.group(1))
            blocks.append([block_id, [], None])
            annotation = header.group(2) or ""
            if "ENTRY" in annotation:
                if entry_id is not None:
                    raise _parse_error(line_no, "second ENTRY block")
                entry_id = block_id
            if "EXIT" in annotation:
                if exit_id is not None:
                    raise _parse_error(line_no, "second EXIT block")
                exit_id = block_id
            continue

        if not line[0].isspace():
            # Column-0 text is a function signature: one is allowed as the
            # section heading, a second means the caller passed a whole
            # multi-function dump (use split_dump_functions for that).
            if seen_signature or blocks:
                raise _parse_error(line_no, f"unexpected section line {line.strip()!r}")
            seen_signature = True
            continue

        if not blocks:
            raise _parse_error(line_no, f"content outside any block: {line.strip()!r}")
        block = blocks[-1]

        statement = _STATEMENT.match(line)
        if statement is not None:
            block[1].append(normalize_statement(statement.group(2)))
            continue

        terminator = _TERMINATOR.match(line)
        if terminator is not None:
            block[2] = normalize_statement(terminator.group(1))
            continue

        if _PREDS.match(line) is not None:
            continue  # redundant with Succs of the predecessors

        succs = _SUCCS.match(line)
        if succs is not None:
            for token in succs.group(2).split():
                if token == "NULL":
                    continue
                ref = _SUCC_REF.match(token)
                if ref is None:
                    raise _parse_error(line_no, f"unrecognized successor {token!r}")
                edges.add((block[0], int(ref.group(1))))
            continue

        # Anything else indented inside a block (case labels, new element
        # kinds) is kept verbatim as an opaque statement.
        block[1].append(normalize_statement(line))

    if not blocks:
        raise _parse_error(0, "no blocks found in dump")
    if entry_id is None:
        raise _parse_error(0, "no ENTRY block in dump")
    if exit_id is None:
        raise _parse_error(0, "no EXIT block in dump")

    try:
        return ControlFlowGraph(
            blocks=tuple(BasicBlock(block_id, tuple(statements), terminator)
                         for block_id, statements, terminator in blocks),
            entry_id=entry_id,
            exit_id=exit_id,
            edges=frozenset(edges),
        )
    except ValueError as exc:
        raise _parse_error(0, str(exc)) from None


def run_analyzer(code: str, config: AnalyzerConfig) -> tuple[int, str]:
    """Invoke the analyzer on `code`, which `preprocess_source` has accepted,
    and return its answer: the exit status and the stderr text. A binary
    that is not on PATH, cannot start or times out gives no answer and
    raises AutopatchError."""
    binary = shutil.which(config.binary)
    if binary is None:
        raise AutopatchError(f"analyzer binary {config.binary!r} not on PATH")

    # The analyzer runs inside its temporary directory on relative paths, so
    # its messages never quote that directory's random name.
    with tempfile.TemporaryDirectory(prefix="autopatch-cfg-") as workdir:
        (Path(workdir) / "input.cpp").write_text(code, encoding="utf-8")
        argv = [os.path.abspath(binary), *config.args, "input.cpp", "-o", "out.plist"]
        try:
            proc = subprocess.run(
                argv,
                cwd=workdir,
                capture_output=True,
                timeout=ANALYZER_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            raise AutopatchError(
                f"analyzer exited with -1: analyzer timed out after {ANALYZER_TIMEOUT_S}s"
            ) from None
        except OSError as exc:  # e.g. a missing script interpreter
            # Name the binary without its directory, which may be temporary.
            raise AutopatchError(
                f"analyzer exited with -1: analyzer could not start: {exc.strerror}: {Path(binary).name}"
            ) from None
    # Decoded leniently: bytes that are not UTF-8 must not escape as a
    # UnicodeDecodeError, which no stage contains per record.
    return proc.returncode, proc.stderr.decode("utf-8", "replace")


def parse_answer(returncode: int, stderr: str) -> ControlFlowGraph:
    """The CFG of `main` in an analyzer answer, live or recorded; an answer
    with a nonzero exit status fails with the analyzer's message."""
    if returncode != 0:
        raise AutopatchError(f"analyzer exited with {returncode}: {stderr.strip()[:500]}")
    sections = split_dump_functions(_strip_diagnostics(stderr))
    if not sections:
        raise AutopatchError("analyzer produced no CFG dump (looking for 'main')")

    for signature, body in sections:
        if _signature_name(signature).split("::")[-1] == "main":
            return parse_cfg_dump(body)

    available = ", ".join(_signature_name(sig) for sig, _ in sections)
    raise AutopatchError(f"function 'main' not in dump (found: {available})")


def _answer(response: dict) -> tuple[int, str]:
    """`(returncode, stderr)` of an analyzer answer; any other shape, such as
    a cassette entry without a response, raises AutopatchError."""
    if isinstance(response, dict):
        returncode, stderr = response.get("returncode"), response.get("stderr")
        if type(returncode) is int and isinstance(stderr, str):
            return returncode, stderr
    raise AutopatchError(f"malformed analyzer answer: {json.dumps(response)[:300]}")


def extract_cfg(code: str, config: AnalyzerConfig, llm: LlmClient) -> ControlFlowGraph:
    """Preprocess `code` and parse the CFG of `main` from the analyzer's
    answer for it, keyed by the analyzer's arguments and the preprocessed
    source, which `llm` runs, records or replays by its mode. A replay miss
    runs the analyzer. A rejection is an answer and is recorded; a run that
    gives none, such as a timeout, raises."""
    source = preprocess_source(code).output_code
    request = {"analyzer_args": list(config.args), "source": source}

    def send(_request: dict) -> dict:
        returncode, stderr = run_analyzer(source, config)
        return {"returncode": returncode, "stderr": stderr}

    return parse_answer(*llm.answer(content_key(request), request, send, _answer, True))
