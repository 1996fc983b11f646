"""Shared test utilities: oracle implementations, a writer of the
analyzer's dump syntax, a random CFG generator, the ten-pair fixture
corpus and a corpus-file writer, a scripted transport for recording
deterministic cassettes without any network, the program a chat request is
about, a slower variant of the transport for driving the index and optimize
stages' worker pools out of order, a variant whose calls wait for each
other, an index directory's rows by id, a writer of fake tools and a
counting stand-in for `subprocess.Popen`."""

from __future__ import annotations

import json
import random
import re
import subprocess
import sys
import textwrap
import threading
import time
from itertools import count
from pathlib import Path
from typing import Iterable

import numpy as np

from autopatch.cfg import BasicBlock, ControlFlowGraph
from autopatch.cfg_diff import _block_tokens, jaccard
from autopatch.corpus import CodePair, OptimizationType, TestCase
from autopatch.metrics import _TOKEN_PATTERN
from autopatch.pipeline import index_path, run_index
from autopatch.prompting import RATIONALE_SYSTEM_TEXT, Cassette, LlmClient, LlmConfig
from autopatch.retrieval import (LocalHashingProvider, SourceKind, VectorIndex, cosine_similarity,
                                 load_index)

# --- oracles -----------------------------------------------------------------


def dp_levenshtein(a: str, b: str) -> int:
    """Classical two-row dynamic-programming edit distance."""
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        current = [i]
        for j, cb in enumerate(b, 1):
            current.append(
                min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + (ca != cb))
            )
        previous = current
    return previous[-1]


_COMMENT_OR_WS = re.compile(r"/\*.*?\*/|//[^\n]*|\s+", re.DOTALL)


def two_pass_tokenize(code: str) -> list[str]:
    """Every match of the master pattern, minus those that are whole
    comments or whitespace."""
    tokens = []
    for match in _TOKEN_PATTERN.finditer(code):
        text = match.group(0)
        if _COMMENT_OR_WS.fullmatch(text):
            continue
        tokens.append(text)
    return tokens


def json_text_oracle(raw: bytes):
    """The JSON document `raw` holds, decoded the slow way: strict UTF-8, then
    JSON, then every decoded string re-encoded as UTF-8, which fails exactly
    when the document escapes a lone surrogate. Raises ValueError when any
    step fails."""
    obj = json.loads(raw.decode("utf-8"))
    json.dumps(obj, ensure_ascii=False).encode("utf-8")
    return obj


def scan_top1(index: VectorIndex, query: np.ndarray) -> tuple[str, float]:
    """Exhaustive scan: score every row with `cosine_similarity` and keep the
    max, exact ties going to the smallest record id. Returns (id, score)."""
    best_id, best_score = None, -np.inf
    for record_id, vector in zip(index.ids, index.matrix):
        score = cosine_similarity(vector, query)
        if best_id is None or score > best_score or (score == best_score and record_id < best_id):
            best_id, best_score = record_id, score
    return best_id, best_score


def optimal_matching(g_o: ControlFlowGraph, g_p: ControlFlowGraph, threshold: float = 0.5):
    """Exhaustive assignment maximizing total token-set similarity, pairs
    below the acceptance threshold forbidden. Ties resolved to the smallest
    sorted pair tuple. Only feasible for tiny graphs."""
    o_ids = sorted(b.id for b in g_o.blocks)
    p_ids = sorted(b.id for b in g_p.blocks)
    tokens_o = {b.id: _block_tokens(b) for b in g_o.blocks}
    tokens_p = {b.id: _block_tokens(b) for b in g_p.blocks}

    best: list[tuple[float, tuple[tuple[int, int], ...]]] = []

    def recurse(index: int, used_p: set[int], pairs: list[tuple[int, int]], total: float):
        if index == len(o_ids):
            best.append((total, tuple(sorted(pairs))))
            return
        o_id = o_ids[index]
        recurse(index + 1, used_p, pairs, total)
        for p_id in p_ids:
            if p_id in used_p:
                continue
            sim = jaccard(tokens_o[o_id], tokens_p[p_id])
            if sim < threshold:
                continue
            recurse(index + 1, used_p | {p_id}, pairs + [(o_id, p_id)], total + sim)

    recurse(0, set(), [], 0.0)
    top = max(score for score, _ in best)
    candidates = [pairs for score, pairs in best if abs(score - top) < 1e-12]
    return min(candidates)


# --- dump writer ----------------------------------------------------------------


def format_as_dump(cfg: ControlFlowGraph) -> str:
    """Re-emit a graph in the analyzer's dump syntax (round-trip aid)."""
    lines = ["reconstructed()"]
    ordered = sorted(cfg.blocks, key=lambda b: -b.id)
    for block in ordered:
        if block.id == cfg.entry_id:
            lines.append(f" [B{block.id} (ENTRY)]")
        elif block.id == cfg.exit_id:
            lines.append(f" [B{block.id} (EXIT)]")
        else:
            lines.append(f" [B{block.id}]")
        for index, statement in enumerate(block.statements, start=1):
            lines.append(f"{index:>4}: {statement}")
        if block.terminator is not None:
            lines.append(f"   T: {block.terminator}")
        succs = cfg.successors(block.id)
        if succs:
            refs = " ".join(f"B{s}" for s in succs)
            lines.append(f"   Succs ({len(succs)}): {refs}")
        lines.append("")
    return "\n".join(lines)


# --- random CFG generator ------------------------------------------------------

_STATEMENT_TEMPLATES = (
    "{a} = {b} + {n}",
    "{a} = {b} * {a}",
    "{a} = call({b})",
    "{a}",
    "{n}",
    "return [B_._];",
    "[B_._] < [B_._]",
    "int {a} = {n};",
)
_NAMES = ("n", "s", "i", "j", "x", "y")


def random_statement(rng: random.Random) -> str:
    template = rng.choice(_STATEMENT_TEMPLATES)
    return template.format(a=rng.choice(_NAMES), b=rng.choice(_NAMES), n=rng.randrange(10))


def random_cfg(rng: random.Random, max_blocks: int = 12) -> ControlFlowGraph:
    middle_count = rng.randint(0, max_blocks - 2)
    exit_id = 0
    middle_ids = list(range(1, middle_count + 1))
    entry_id = middle_count + 1

    blocks = [BasicBlock(entry_id), BasicBlock(exit_id)]
    for block_id in middle_ids:
        statements = tuple(random_statement(rng) for _ in range(rng.randint(0, 4)))
        terminator = rng.choice(("if [B_._]", "while [B_._]", None, None, None))
        blocks.append(BasicBlock(block_id, statements, terminator))

    edges = {(entry_id, rng.choice(middle_ids) if middle_ids else exit_id)}
    for block_id in middle_ids:
        targets = middle_ids + [exit_id]
        for _ in range(rng.randint(1, 2)):
            edges.add((block_id, rng.choice(targets)))

    return ControlFlowGraph(
        blocks=tuple(blocks),
        entry_id=entry_id,
        exit_id=exit_id,
        edges=frozenset(edges),
    )


def add_unique_blocks(
    graph: ControlFlowGraph, how_many: int, rng: random.Random
) -> ControlFlowGraph:
    """Splice `how_many` fresh blocks with globally unique content into the
    graph, each reachable from a random existing non-exit block."""
    next_id = max(b.id for b in graph.blocks) + 1
    sources = [b.id for b in graph.blocks if b.id != graph.exit_id]
    blocks = list(graph.blocks)
    edges = set(graph.edges)
    for offset in range(how_many):
        fresh_id = next_id + offset
        marker = f"zz_fresh_{rng.randrange(10**9)}_{offset}"
        blocks.append(BasicBlock(fresh_id, (marker,)))
        edges.add((rng.choice(sources), fresh_id))
        edges.add((fresh_id, graph.exit_id))
    return ControlFlowGraph(
        blocks=tuple(blocks),
        entry_id=graph.entry_id,
        exit_id=graph.exit_id,
        edges=frozenset(edges),
    )


# --- fixture corpus -------------------------------------------------------------

BUSY_LOOP = (
    "    volatile long waste = 0;\n"
    "    for (long k = 0; k < 2000000; k++) { waste += k; }\n"
)


def _pair(pair_id, problem_id, original, optimized, labels, cases) -> CodePair:
    return CodePair(
        id=pair_id,
        problem_id=problem_id,
        original_code=textwrap.dedent(original).lstrip("\n"),
        optimized_code=textwrap.dedent(optimized).lstrip("\n"),
        labels=frozenset(labels),
        testcases=tuple(TestCase(i, o) for i, o in cases),
    )


def fixture_pairs() -> list[CodePair]:
    """Ten stdin/stdout C++ pairs: every original carries deliberate wasted
    work that the optimized side removes, so runtimes order consistently."""
    pairs = []
    common = "#include <cstdio>\n"

    pairs.append(_pair(
        "p01", "sum-to-n",
        common + """
        int main() {
            long n, s = 0;
            scanf("%ld", &n);
        """ + BUSY_LOOP + """
            for (long i = 1; i <= n; i++) { s += i; }
            printf("%ld\\n", s);
            return 0;
        }
        """,
        common + """
        int main() {
            long n;
            scanf("%ld", &n);
            printf("%ld\\n", n * (n + 1) / 2);
            return 0;
        }
        """,
        [OptimizationType.ALGORITHMIC_SIMPLIFICATION, OptimizationType.LOOP_OPTIMIZATION],
        [("10\n", "55\n"), ("100\n", "5050\n")],
    ))

    pairs.append(_pair(
        "p02", "max-of-k",
        common + """
        int main() {
            int k;
            scanf("%d", &k);
            int a[1000];
            for (int i = 0; i < k; i++) { scanf("%d", &a[i]); }
            int best = a[0];
            for (int i = 0; i < k; i++) {
                for (int j = 0; j < k; j++) {
                    if (a[j] > best) { best = a[j]; }
                }
            }
            printf("%d\\n", best);
            return 0;
        }
        """,
        common + """
        int main() {
            int k, best;
            scanf("%d", &k);
            scanf("%d", &best);
            for (int i = 1; i < k; i++) {
                int v;
                scanf("%d", &v);
                if (v > best) { best = v; }
            }
            printf("%d\\n", best);
            return 0;
        }
        """,
        [OptimizationType.LOOP_OPTIMIZATION, OptimizationType.MEMORY_OPTIMIZATION],
        [("5\n3 9 2 9 1\n", "9\n"), ("3\n-5 -2 -9\n", "-2\n")],
    ))

    pairs.append(_pair(
        "p03", "count-even",
        common + """
        int main() {
            long n, c = 0;
            scanf("%ld", &n);
        """ + BUSY_LOOP + """
            for (long i = 1; i <= n; i++) {
                if (i % 2 == 0) { c++; }
            }
            printf("%ld\\n", c);
            return 0;
        }
        """,
        common + """
        int main() {
            long n;
            scanf("%ld", &n);
            printf("%ld\\n", n / 2);
            return 0;
        }
        """,
        [OptimizationType.ALGORITHMIC_SIMPLIFICATION],
        [("10\n", "5\n"), ("7\n", "3\n")],
    ))

    pairs.append(_pair(
        "p04", "fibonacci",
        common + """
        int main() {
            int n;
            scanf("%d", &n);
        """ + BUSY_LOOP + """
            long a = 0, b = 1;
            for (int i = 0; i < n; i++) {
                long t = a + b;
                a = b;
                b = t;
            }
            printf("%ld\\n", a);
            return 0;
        }
        """,
        common + """
        int main() {
            int n;
            scanf("%d", &n);
            long a = 0, b = 1;
            for (int i = 0; i < n; i++) {
                long t = a + b;
                a = b;
                b = t;
            }
            printf("%ld\\n", a);
            return 0;
        }
        """,
        [OptimizationType.CODE_REFACTORING],
        [("10\n", "55\n"), ("1\n", "1\n")],
    ))

    pairs.append(_pair(
        "p05", "gcd",
        common + """
        int main() {
            long a, b;
            scanf("%ld %ld", &a, &b);
        """ + BUSY_LOOP + """
            while (a != b) {
                if (a > b) { a = a - b; } else { b = b - a; }
            }
            printf("%ld\\n", a);
            return 0;
        }
        """,
        common + """
        int main() {
            long a, b;
            scanf("%ld %ld", &a, &b);
            while (b != 0) {
                long t = a % b;
                a = b;
                b = t;
            }
            printf("%ld\\n", a);
            return 0;
        }
        """,
        [OptimizationType.ALGORITHMIC_SIMPLIFICATION, OptimizationType.PERFORMANCE_ENHANCEMENT],
        [("48 18\n", "6\n"), ("100 75\n", "25\n")],
    ))

    pairs.append(_pair(
        "p06", "sum-squares",
        common + """
        int main() {
            long n, s = 0;
            scanf("%ld", &n);
        """ + BUSY_LOOP + """
            for (long i = 1; i <= n; i++) { s += i * i; }
            printf("%ld\\n", s);
            return 0;
        }
        """,
        common + """
        int main() {
            long n;
            scanf("%ld", &n);
            printf("%ld\\n", n * (n + 1) * (2 * n + 1) / 6);
            return 0;
        }
        """,
        [OptimizationType.ALGORITHMIC_SIMPLIFICATION, OptimizationType.LOOP_OPTIMIZATION],
        [("5\n", "55\n"), ("10\n", "385\n")],
    ))

    pairs.append(_pair(
        "p07", "reverse-digits",
        common + """
        int main() {
            long n, r = 0;
            scanf("%ld", &n);
        """ + BUSY_LOOP + """
            while (n > 0) {
                r = r * 10 + n % 10;
                n /= 10;
            }
            printf("%ld\\n", r);
            return 0;
        }
        """,
        common + """
        int main() {
            long n, r = 0;
            scanf("%ld", &n);
            while (n > 0) {
                r = r * 10 + n % 10;
                n /= 10;
            }
            printf("%ld\\n", r);
            return 0;
        }
        """,
        [OptimizationType.CODE_REFACTORING, OptimizationType.PERFORMANCE_ENHANCEMENT],
        [("1234\n", "4321\n"), ("900\n", "9\n")],
    ))

    pairs.append(_pair(
        "p08", "count-divisors",
        common + """
        int main() {
            long n, c = 0;
            scanf("%ld", &n);
            for (long i = 1; i <= n; i++) {
                if (n % i == 0) { c++; }
            }
        """ + BUSY_LOOP + """
            printf("%ld\\n", c);
            return 0;
        }
        """,
        common + """
        int main() {
            long n, c = 0;
            scanf("%ld", &n);
            for (long i = 1; i * i <= n; i++) {
                if (n % i == 0) {
                    c += 2;
                    if (i * i == n) { c--; }
                }
            }
            printf("%ld\\n", c);
            return 0;
        }
        """,
        [OptimizationType.ALGORITHMIC_SIMPLIFICATION],
        [("12\n", "6\n"), ("7\n", "2\n")],
    ))

    pairs.append(_pair(
        "p09", "sum-mod",
        common + """
        int main() {
            int k;
            scanf("%d", &k);
            long long s = 0;
            for (int i = 0; i < k; i++) {
                long long v;
                scanf("%lld", &v);
                volatile long long pad = 0;
                for (int w = 0; w < 200000; w++) { pad += w; }
                s = (s + v) % 1000000007;
            }
            printf("%lld\\n", s);
            return 0;
        }
        """,
        common + """
        int main() {
            int k;
            scanf("%d", &k);
            long long s = 0;
            for (int i = 0; i < k; i++) {
                long long v;
                scanf("%lld", &v);
                s = (s + v) % 1000000007;
            }
            printf("%lld\\n", s);
            return 0;
        }
        """,
        [OptimizationType.LOOP_OPTIMIZATION, OptimizationType.MEMORY_OPTIMIZATION],
        [("4\n1 2 3 4\n", "10\n"), ("2\n500000003 500000004\n", "0\n")],
    ))

    pairs.append(_pair(
        "p10", "pow-mod",
        common + """
        int main() {
            long n, r = 1;
            scanf("%ld", &n);
        """ + BUSY_LOOP + """
            for (long i = 0; i < n; i++) { r = (r * 2) % 997; }
            printf("%ld\\n", r);
            return 0;
        }
        """,
        common + """
        int main() {
            long n, r = 1, base = 2;
            scanf("%ld", &n);
            while (n > 0) {
                if (n & 1) { r = (r * base) % 997; }
                base = (base * base) % 997;
                n >>= 1;
            }
            printf("%ld\\n", r);
            return 0;
        }
        """,
        [OptimizationType.ALGORITHMIC_SIMPLIFICATION, OptimizationType.PERFORMANCE_ENHANCEMENT],
        [("10\n", "27\n"), ("0\n", "1\n")],
    ))

    return pairs


def record_to_json(pair: CodePair) -> dict:
    """Inverse of parse_record, up to JSON key order."""
    obj: dict = {
        "id": pair.id,
        "problem_id": pair.problem_id,
        "original_code": pair.original_code,
        "optimized_code": pair.optimized_code,
        "labels": sorted(label.value for label in pair.labels),
        "testcases": [
            {"input": case.input, "expected_output": case.expected_output}
            for case in pair.testcases
        ],
    }
    if pair.rationale is not None:
        obj["rationale"] = pair.rationale
    return obj


def write_corpus(pairs: Iterable[CodePair], path: Path | str) -> None:
    """Write `pairs` as a corpus file that ingest_pairs reads back."""
    with Path(path).open("w", encoding="utf-8") as handle:
        for pair in pairs:
            handle.write(json.dumps(record_to_json(pair), ensure_ascii=False) + "\n")


# --- scripted transport ---------------------------------------------------------

_TARGET_FENCE = re.compile(r"## Target program\n\n```cpp\n(.*?)```", re.DOTALL)


def make_scripted_transport(pairs: list[CodePair]):
    """A deterministic stand-in for the chat service, used to record
    cassettes: patch requests answer with the ground-truth optimized code
    when a reference example is present (otherwise they echo the target),
    and rationale requests answer with text naming the changed blocks."""
    by_original = {pair.original_code.rstrip(): pair for pair in pairs}
    calls = count()

    def transport(request: dict) -> dict:
        next(calls)
        system = request["messages"][0]["content"]
        user = request["messages"][1]["content"]

        if system == RATIONALE_SYSTEM_TEXT:
            block_ids = sorted(set(re.findall(r"\bB\d+\b", user)))[:4]
            named = ", ".join(block_ids) if block_ids else "the hot path"
            content = (
                f"The rewrite removes redundant work around {named}, cutting the "
                "instructions executed per input and so the running time."
            )
        else:
            target_match = _TARGET_FENCE.search(user)
            target_code = target_match.group(1).rstrip() if target_match else ""
            pair = by_original.get(target_code)
            if pair is not None and "## Reference example" in user:
                body = pair.optimized_code
            elif pair is not None:
                body = pair.original_code
            else:
                body = target_code + "\n"
            content = f"Here is the rewritten program:\n\n```cpp\n{body.rstrip()}\n```\n"

        return {"choices": [{"message": {"content": content}}]}

    transport.calls = calls
    return transport


_ORIGINAL_FENCE = re.compile(r"## Original program\n\n```cpp\n(.*?)```", re.DOTALL)


def request_program(request: dict) -> str:
    """The program a chat request is about: the original program of a
    rationale request, or the target program of a patch request."""
    user = request["messages"][1]["content"]
    return (_ORIGINAL_FENCE.search(user) or _TARGET_FENCE.search(user)).group(1).rstrip()


def cassette_keys(path: Path, analyzer: bool) -> list[str]:
    """The keys of a cassette's analyzer answers, or of its chat entries,
    in file order."""
    entries = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    return [entry["key"] for entry in entries if ("analyzer_args" in entry["request"]) == analyzer]


class SlowFirstTransport:
    """The scripted chat service, slower for records earlier in `ids`, so
    that calls finish out of order. A call belongs to the program of its
    rationale request or the target of its patch request. Counts calls in
    flight."""

    def __init__(self, pairs, ids):
        self._inner = make_scripted_transport(pairs)
        self._position = {p.original_code.rstrip(): ids.index(p.id) for p in pairs if p.id in ids}
        self._count = len(ids)
        self._lock = threading.Lock()
        self._active = 0
        self.peak = 0
        self.finished: list[int] = []

    def __call__(self, request: dict) -> dict:
        position = self._position[request_program(request)]
        with self._lock:
            self._active += 1
            self.peak = max(self.peak, self._active)
        time.sleep(0.02 * (self._count - position))
        with self._lock:
            self._active -= 1
            self.finished.append(position)
        return self._inner(request)


class BarrierTransport:
    """The scripted chat service, whose first `parties` calls each wait, for
    at most `timeout_s`, until all of them are in flight. A pool that keeps
    fewer calls in flight breaks the barrier: those calls raise
    `threading.BrokenBarrierError`, which no stage contains."""

    def __init__(self, pairs, parties: int, timeout_s: float):
        self._inner = make_scripted_transport(pairs)
        self._barrier = threading.Barrier(parties)
        self._timeout_s = timeout_s
        self._calls = count()

    def __call__(self, request: dict) -> dict:
        if next(self._calls) < self._barrier.parties:  # `next` on a count is atomic
            self._barrier.wait(self._timeout_s)
        return self._inner(request)


def index_rows(index_dir: Path) -> dict[SourceKind, dict[str, tuple]]:
    """Each index in `index_dir`, as its rows by record id: the vector's bytes
    and the metadata."""
    rows = {}
    for kind in SourceKind:
        index = load_index(index_path(index_dir, kind))
        rows[kind] = {record_id: (vector.tobytes(), meta)
                      for record_id, vector, meta in zip(index.ids, index.matrix, index.metadata)}
    return rows


def index_slow_first(root, ingest, pairs) -> SlowFirstTransport:
    """Run the index stage over `ingest`'s database split into `root/index`,
    recording rationales through a SlowFirstTransport, which is returned."""
    database_ids = [p.id for p in ingest.split.database_set]
    transport = SlowFirstTransport(pairs, database_ids)
    llm = LlmClient(LlmConfig(), Cassette(root / "cassette.jsonl"), mode="record",
                    transport=transport)
    result = run_index(ingest.corpus, ingest.split, root / "index", LocalHashingProvider(), llm)
    assert result.indexed_count == len(database_ids) and not result.skipped
    return transport


# --- fake tools ------------------------------------------------------------------


def fake_tool(path: Path, body: str) -> Path:
    """An executable Python script at `path` that runs `body`, with `os` and
    `sys` imported: a stand-in for the analyzer, the compiler or a program."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(f"#!{sys.executable}\nimport os, sys\n" + body, encoding="utf-8")
    path.chmod(0o755)
    return path


def ended(pid: int, within_s: float = 1.0) -> bool:
    """Whether process `pid` is gone, or a zombie waiting for its reaper
    (state `Z` in `/proc/<pid>/stat`), within `within_s` seconds: a process
    sent SIGKILL dies the next time it is scheduled, not at the send."""
    deadline = time.monotonic() + within_s
    while True:
        try:
            state = Path(f"/proc/{pid}/stat").read_text().rpartition(")")[2].split()[0]
        except FileNotFoundError:
            return True
        if state == "Z" or time.monotonic() > deadline:
            return state == "Z"
        time.sleep(0.01)


def counting_popen() -> type:
    """A stand-in for `subprocess.Popen` that counts the processes it has
    started and not yet reaped (through `poll` or `wait`); its `peak` is the
    most at once."""
    lock = threading.Lock()

    class CountingPopen(subprocess.Popen):
        running = peak = 0

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self._counted = True
            with lock:
                CountingPopen.running += 1
                CountingPopen.peak = max(CountingPopen.peak, CountingPopen.running)

        def _count_exit(self) -> None:
            if self.returncode is not None and self._counted:
                self._counted = False
                with lock:
                    CountingPopen.running -= 1

        def poll(self):
            code = super().poll()
            self._count_exit()
            return code

        def wait(self, timeout=None):
            code = super().wait(timeout)
            self._count_exit()
            return code

    return CountingPopen
