"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines.
"""

from __future__ import annotations

import copy
import json
import math
import random
import string
import time
from contextlib import contextmanager

import numpy as np
import pytest

from autopatch.cfg import BasicBlock, ControlFlowGraph, serialize_cfg
from autopatch.cfg_diff import compute_diff
from autopatch.analyzer import parse_cfg_dump
from autopatch.corpus import TestCase, parse_record, split_corpus
from autopatch.errors import BothEmpty
from autopatch.harness import RunStatus, ToolchainConfig, compile_program, measure_execution
from autopatch.metrics import (
    edit_distance_similarity,
    line_overlap,
    token_overlap,
    tokenize,
)
from autopatch.report import improvement
from autopatch.retrieval import SourceKind, VectorIndex, cosine_similarity, retrieve_top1
from autopatch.cli import EXIT_OK, main

from conftest import DUMP_DIR, requires_gxx
from helpers import dp_levenshtein, random_cfg
from test_cfg_parse import DUMP_EXPECTATIONS


@contextmanager
def criterion(name: str):
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE] {name}: FAIL", flush=True)
        raise
    print(f"[ACCEPTANCE] {name}: PASS", flush=True)


def test_improvement_arithmetic_reproduces_reference_table():
    with criterion("improvement arithmetic"):
        assert improvement(0.4115, 0.3815) == pytest.approx(7.3, abs=0.05)
        assert improvement(0.4115, 0.5238) == pytest.approx(-27.3, abs=0.05)


def test_eds_equals_dp_oracle_on_1000_random_pairs():
    with criterion("EDS oracle equivalence (1,000 pairs)"):
        rng = random.Random(12345)
        alphabet = string.ascii_letters + string.digits + "(){};=+-*/<>!&|,."
        checked = 0
        for _ in range(1000):
            a = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 200)))
            b = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 200)))
            if not a and not b:
                with pytest.raises(BothEmpty):
                    edit_distance_similarity(a, b)
                continue
            expected = 1.0 - dp_levenshtein(a, b) / max(len(a), len(b))
            assert edit_distance_similarity(a, b) == expected
            checked += 1
        assert checked >= 990


def test_retrieval_matches_exhaustive_scan_on_1000_entries():
    with criterion("retrieval exactness (1,000 entries x 100 queries)"):
        rng = np.random.default_rng(777)
        dim = 64
        vectors = rng.normal(size=(1000, dim)).astype(np.float32)
        vectors[500] = vectors[100]  # exact duplicates to force tie-breaks
        vectors[501] = vectors[100]
        vectors[900] = vectors[42]
        index = VectorIndex(
            ids=tuple(f"r{i:04d}" for i in range(1000)),
            matrix=vectors,
            metadata=[("", "")] * 1000,
            source_kind=SourceKind.RAW_SOURCE,
        )

        norms = [math.sqrt(math.fsum(float(x) * float(x) for x in v)) for v in vectors]

        def oracle(query: np.ndarray) -> str:
            q = [float(x) for x in query]
            qn = math.sqrt(math.fsum(x * x for x in q))
            best_id, best_score = None, -2.0
            for i in range(1000):
                score = math.fsum(float(vectors[i][k]) * q[k] for k in range(dim)) / (norms[i] * qn)
                if score > best_score or (score == best_score and f"r{i:04d}" < best_id):
                    best_id, best_score = f"r{i:04d}", score
            return best_id

        queries = [rng.normal(size=dim).astype(np.float32) for _ in range(96)]
        queries += [vectors[100].copy(), vectors[42].copy(), vectors[500].copy(), vectors[7].copy()]
        assert len(queries) == 100
        for query in queries:
            entry, score = retrieve_top1(index, query)
            assert entry.record_id == oracle(query)
            assert score == pytest.approx(
                cosine_similarity(entry.vector, query), abs=1e-12
            )
        # the duplicated vector must retrieve the smallest of the tied ids
        entry, _ = retrieve_top1(index, vectors[100])
        assert entry.record_id == "r0100"


def _spliced(base: ControlFlowGraph, marker: str) -> ControlFlowGraph:
    src, dst = sorted(base.edges)[0]
    fresh = max(b.id for b in base.blocks) + 1
    return ControlFlowGraph(
        blocks=base.blocks + (BasicBlock(fresh, (marker,)),),
        entry_id=base.entry_id,
        exit_id=base.exit_id,
        edges=(base.edges - {(src, dst)}) | {(src, fresh), (fresh, dst)},
    )


def _with_rewrite(base: ControlFlowGraph, block_id: int, statements: tuple[str, ...]) -> ControlFlowGraph:
    blocks = tuple(
        BasicBlock(b.id, statements, b.terminator) if b.id == block_id else b
        for b in base.blocks
    )
    return ControlFlowGraph(blocks, base.entry_id, base.exit_id, base.edges)


def test_cfg_diff_properties():
    with criterion("CFG diff properties (200 random graphs + fixtures)"):
        rng = random.Random(20240601)
        for _ in range(200):
            graph = random_cfg(rng, max_blocks=12)
            assert compute_diff(graph, copy.deepcopy(graph)).is_empty()

        def fixture(entry, exit_, blocks, edges):
            return ControlFlowGraph(
                tuple(BasicBlock(i, tuple(s)) for i, s in blocks), entry, exit_, frozenset(edges)
            )

        bases = [
            fixture(3, 0, [(3, []), (0, []), (1, ["a = read()"]), (2, ["print(a)"])],
                    [(3, 1), (1, 2), (2, 0)]),
            fixture(4, 0, [(4, []), (0, []), (1, ["x = 0"]), (2, ["x = x + 1"]), (3, ["emit(x)"])],
                    [(4, 1), (1, 2), (2, 3), (3, 0), (2, 1)]),
            fixture(2, 0, [(2, []), (0, []), (1, ["s = s * 2", "t = s - 1"])],
                    [(2, 1), (1, 0)]),
        ]
        for i, base in enumerate(bases):
            grown = _spliced(base, f"unique_marker_{i}")
            diff = compute_diff(base, grown)
            assert len(diff.delta_s.added) == 1
            assert not diff.delta_s.removed

        rewrites = [
            (bases[0], 1, ("a = read_fast()",)),
            (bases[1], 2, ("x = x + 2",)),
            (bases[2], 1, ("s = s * 2", "t = s + 1")),
        ]
        for base, block_id, statements in rewrites:
            diff = compute_diff(base, _with_rewrite(base, block_id, statements))
            assert diff.delta_s.is_empty()
            assert diff.delta_f.is_empty()
            assert len(diff.delta_c) == 1


def test_cfg_dump_parsing_and_serialize_determinism():
    with criterion("CFG dump parsing (12 fixtures, hand counts)"):
        assert len(DUMP_EXPECTATIONS) >= 10
        for name, blocks, edges, statements in DUMP_EXPECTATIONS:
            dump = (DUMP_DIR / f"{name}.txt").read_text(encoding="utf-8")
            cfg = parse_cfg_dump(dump)
            assert len(cfg.blocks) == blocks, name
            assert len(cfg.edges) == edges, name
            assert sum(len(b.statements) for b in cfg.blocks) == statements, name
            again = parse_cfg_dump(dump)
            assert serialize_cfg(cfg).encode() == serialize_cfg(again).encode()


def test_metric_ranges_and_identities():
    with criterion("metric ranges and identities"):
        rng = random.Random(99)
        alphabet = string.ascii_letters + string.digits + " ;(){}=+-*/<>\n"
        for _ in range(300):
            a = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 80)))
            b = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 80)))
            if tokenize(b):
                to = token_overlap(a, b)
                assert 0.0 <= to <= 100.0
                assert token_overlap(b, b) == 100.0
            if [l for l in b.splitlines() if l.strip() and not l.strip().startswith("//")]:
                assert 0.0 <= line_overlap(a, b) <= 100.0
            if a.strip() or b.strip():
                eds = edit_distance_similarity(a, b)
                assert 0.0 <= eds <= 1.0
                assert eds == edit_distance_similarity(b, a)
            if a.strip():
                assert edit_distance_similarity(a, a) == 1.0


_TIME_DEPENDENT_MODE_KEYS = ("avg_time_s", "improvement_pct", "per_type_avg_time_s")


def _normalize_report(payload: dict) -> dict:
    """Strip wall-clock-derived values: measured seconds (and the improvement
    percentages computed from them), the generation timestamp, and the
    parameter echo that contains run-specific paths."""
    normalized = json.loads(json.dumps(payload))
    normalized.pop("generated_at", None)
    normalized.pop("parameters", None)
    for mode_payload in normalized.get("modes", {}).values():
        for key in _TIME_DEPENDENT_MODE_KEYS:
            mode_payload.pop(key, None)
    return normalized


@requires_gxx
def test_end_to_end_offline_replay_is_reproducible(recorded_workspace, tmp_path, monkeypatch):
    with criterion("end-to-end offline run (10-pair corpus, 2 replays)"):
        monkeypatch.delenv("AUTOPATCH_LLM_BASE", raising=False)
        started = time.perf_counter()
        runs = []
        for name in ("run1", "run2"):
            root = tmp_path / name
            assert main([
                "ingest", "--corpus", str(recorded_workspace.corpus_file),
                "--db-count", "7", "--seed", "7", "--out", str(root),
            ]) == EXIT_OK
            assert main([
                "index", "--corpus", str(recorded_workspace.corpus_file),
                "--split", str(root / "split.json"), "--out", str(root / "index"),
                "--provider", "local",
                "--replay", "--cassette", str(recorded_workspace.cassette),
            ]) == EXIT_OK
            assert main([
                "optimize", "--corpus", str(recorded_workspace.corpus_file),
                "--split", str(root / "split.json"), "--index", str(root / "index"),
                "--mode", "zero-shot,naive,context", "--out", str(root / "patches"),
                "--provider", "local",
                "--replay", "--cassette", str(recorded_workspace.cassette),
            ]) == EXIT_OK
            assert main([
                "eval", "--corpus", str(recorded_workspace.corpus_file),
                "--split", str(root / "split.json"), "--patches", str(root / "patches"),
                "--mode", "zero-shot,naive,context", "--reps", "2", "--timeout", "10",
                "--out", str(root / "eval"),
            ]) == EXIT_OK
            runs.append(root)
        elapsed = time.perf_counter() - started
        assert elapsed < 120, f"end-to-end runtime {elapsed:.1f}s exceeds budget"

        run1, run2 = runs
        # deterministic artifacts are byte-identical between the two replays
        assert (run1 / "split.json").read_bytes() == (run2 / "split.json").read_bytes()
        for name in ("index_cfg.jsonl", "index_cfg.jsonl.vec",
                     "index_source.jsonl", "index_source.jsonl.vec"):
            assert (run1 / "index" / name).read_bytes() == (run2 / "index" / name).read_bytes()
        patch_files = sorted(
            p.relative_to(run1 / "patches")
            for p in (run1 / "patches").rglob("*.cpp")
        )
        assert len(patch_files) == 9  # 3 test records x 3 modes
        for rel in patch_files:
            assert (run1 / "patches" / rel).read_bytes() == (run2 / "patches" / rel).read_bytes()

        report1 = json.loads((run1 / "eval" / "report.json").read_text())
        report2 = json.loads((run2 / "eval" / "report.json").read_text())
        assert json.dumps(_normalize_report(report1), sort_keys=True) == \
            json.dumps(_normalize_report(report2), sort_keys=True)

        # all three modes populated, every patch executable, improvements present
        assert set(report1["modes"]) == {"zero_shot", "naive", "context"}
        assert len(report1["common_executable_ids"]) == 3
        for mode_payload in report1["modes"].values():
            assert mode_payload["outcome_counts"]["ok"] == 3
            assert mode_payload["avg_time_s"] > 0
            assert mode_payload["lexical_mean"] is not None
        assert report1["modes"]["zero_shot"]["improvement_pct"] == 0.0


@requires_gxx
def test_timing_harness_sanity(tmp_path):
    with criterion("timing harness sanity (sleep / wrong output / infinite loop)"):
        toolchain = ToolchainConfig()
        sleeper = compile_program(
            "#include <cstdio>\n#include <unistd.h>\n"
            "int main(){ usleep(50000); printf(\"done\\n\"); return 0; }\n",
            toolchain, tmp_path / "sleep",
        )
        outcome = measure_execution(sleeper, [TestCase("", "done\n")], reps=5, timeout_s=2)
        assert outcome.status is RunStatus.OK
        assert 0.045 <= outcome.median_s <= 0.5

        wrong = compile_program(
            '#include <cstdio>\nint main(){ printf("nope\\n"); return 0; }\n',
            toolchain, tmp_path / "wrong",
        )
        assert (
            measure_execution(wrong, [TestCase("", "expected\n")], reps=2, timeout_s=2).status
            is RunStatus.WRONG_OUTPUT
        )

        spinner = compile_program(
            "int main(){ volatile long x = 0; while (1) { x++; } return 0; }\n",
            toolchain, tmp_path / "spin",
        )
        assert (
            measure_execution(spinner, [TestCase("", "")], reps=5, timeout_s=2).status
            is RunStatus.TIMEOUT
        )


def test_dataset_split_plumbing():
    with criterion("dataset split plumbing (1,200 -> 1,000/200)"):
        records = [
            parse_record(
                {
                    "id": f"r{i:04d}",
                    "problem_id": "p",
                    "original_code": "int main(){return 1;}",
                    "optimized_code": "int main(){return 2;}",
                    "labels": [],
                    "testcases": [],
                },
                i,
            )
            for i in range(1200)
        ]
        split = split_corpus(records, 1000, seed=7)
        assert len(split.database_set) == 1000
        assert len(split.test_set) == 200
        db_ids = {p.id for p in split.database_set}
        test_ids = {p.id for p in split.test_set}
        assert not db_ids & test_ids
        assert len(db_ids | test_ids) == 1200
