"""The end-to-end criterion of the acceptance gate, run without clang.

`tests/test_acceptance.py` runs ingest → index → optimize → eval twice
through the CLI on clang. Here the analyzer is the benchmark's stand-in,
`perfbench/stub_analyzer.py`, started through the launcher that
`perfbench/run.py` writes, so the real `extract_cfg`/`run_analyzer`
path runs with only g++ installed.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from autopatch.cli import EXIT_OK, main
from autopatch.pipeline import run_index, run_ingest, run_optimize
from autopatch.prompting import Cassette, LlmClient, LlmConfig
from autopatch.retrieval import LocalHashingProvider

from conftest import ALL_MODES, DB_COUNT, SEED, requires_gxx
from helpers import make_scripted_transport
from test_acceptance import _normalize_report

INDEX_FILES = ("index_cfg.jsonl", "index_cfg.jsonl.vec", "index_source.jsonl",
               "index_source.jsonl.vec")


@pytest.fixture()
def stub_analyzer(monkeypatch, stub_launcher):
    """Point the analyzer at the benchmark's launcher of the stub, clang or not."""
    monkeypatch.setenv("AUTOPATCH_ANALYZER_PATH", str(stub_launcher))
    monkeypatch.delenv("AUTOPATCH_ANALYZER_FLAGS", raising=False)
    monkeypatch.delenv("AUTOPATCH_LLM_BASE", raising=False)


def _record_cassette(root: Path, pairs, corpus_file) -> Path:
    """Index and optimize once against the scripted chat service, recording
    every call, so that the CLI can replay the whole pipeline offline."""
    ingest = run_ingest(corpus_file, DB_COUNT, SEED, root / "ingest")
    cassette = root / "cassette.jsonl"
    recorder = LlmClient(LlmConfig(), Cassette(cassette), mode="record",
                         transport=make_scripted_transport(pairs))
    provider = LocalHashingProvider()
    indexed = run_index(ingest.corpus, ingest.split, root / "index", provider, recorder)
    assert not indexed.skipped, indexed.skipped
    optimized = run_optimize(ingest.corpus, ingest.split, root / "index", root / "patches",
                             ALL_MODES, recorder, provider)
    assert not optimized.failures, optimized.failures
    return cassette


@requires_gxx
def test_end_to_end_offline_replay_on_the_stub_analyzer(tmp_path, stub_analyzer, pairs,
                                                       corpus_file):
    cassette = _record_cassette(tmp_path / "record", pairs, corpus_file)
    runs = []
    for name in ("run1", "run2"):
        root = tmp_path / name
        split = str(root / "split.json")
        replay = ("--provider", "local", "--replay", "--cassette", str(cassette))
        assert main(["ingest", "--corpus", str(corpus_file), "--db-count", str(DB_COUNT),
                     "--seed", str(SEED), "--out", str(root)]) == EXIT_OK
        assert main(["index", "--corpus", str(corpus_file), "--split", split,
                     "--out", str(root / "index"), *replay]) == EXIT_OK
        assert main(["optimize", "--corpus", str(corpus_file), "--split", split,
                     "--index", str(root / "index"), "--mode", "zero-shot,naive,context",
                     "--out", str(root / "patches"), *replay]) == EXIT_OK
        assert main(["eval", "--corpus", str(corpus_file), "--split", split,
                     "--patches", str(root / "patches"), "--mode", "zero-shot,naive,context",
                     "--reps", "2", "--timeout", "10", "--out", str(root / "eval")]) == EXIT_OK
        runs.append(root)

    run1, run2 = runs
    assert (run1 / "split.json").read_bytes() == (run2 / "split.json").read_bytes()
    for name in INDEX_FILES:
        assert (run1 / "index" / name).read_bytes() == (run2 / "index" / name).read_bytes(), name
    patch_files = sorted(p.relative_to(run1 / "patches") for p in (run1 / "patches").rglob("*.cpp"))
    assert len(patch_files) == 9  # 3 test records x 3 modes
    for rel in patch_files:
        assert (run1 / "patches" / rel).read_bytes() == (run2 / "patches" / rel).read_bytes(), rel

    report1 = json.loads((run1 / "eval" / "report.json").read_text(encoding="utf-8"))
    report2 = json.loads((run2 / "eval" / "report.json").read_text(encoding="utf-8"))
    assert _normalize_report(report1) == _normalize_report(report2)
    assert set(report1["modes"]) == {"zero_shot", "naive", "context"}
    assert report1["common_executable_ids"] == ["p03", "p06", "p07"]
    for mode_payload in report1["modes"].values():
        assert mode_payload["outcome_counts"]["ok"] == 3
        assert mode_payload["avg_time_s"] > 0
        assert mode_payload["lexical_mean"] is not None
    assert report1["modes"]["zero_shot"]["improvement_pct"] == 0.0
