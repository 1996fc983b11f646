"""Pipeline behaviour that runs without clang: the index stage's worker
pool over CFGs parsed from the committed dumps (the `dump_graphs` fixture),
analyzer failure reasons from fake analyzers, and eval containment of
unscorable ground truths and undecodable patches."""

from __future__ import annotations

import json
import sys
import tempfile
from dataclasses import replace

import pytest

from autopatch import pipeline
from autopatch.analyzer import AnalyzerConfig, run_analyzer
from autopatch.corpus import CorpusSplit, write_corpus
from autopatch.errors import AnalyzerFailed
from autopatch.pipeline import INDEX_JOURNAL, patch_path, run_eval, run_index, run_ingest
from autopatch.prompting import Cassette, LlmClient, LlmConfig, PromptMode
from autopatch.retrieval import LocalHashingProvider

from conftest import DB_COUNT, SEED, requires_gxx
from helpers import index_slow_first


def test_index_pool_output_identical_across_runs(tmp_path, pairs, corpus_file, dump_graphs):
    ingest = run_ingest(corpus_file, DB_COUNT, SEED, tmp_path / "ingest")

    transports = [index_slow_first(tmp_path / name, ingest, pairs) for name in ("a", "b")]

    for transport in transports:
        assert transport.finished != sorted(transport.finished)  # finished out of order
    for name in (INDEX_JOURNAL, "index_cfg.jsonl", "index_cfg.jsonl.vec",
                 "index_source.jsonl", "index_source.jsonl.vec"):
        first = (tmp_path / "a" / "index" / name).read_bytes()
        assert first == (tmp_path / "b" / "index" / name).read_bytes(), name
    assert len(Cassette(tmp_path / "a" / "cassette.jsonl")) == len(ingest.split.database_set)


def test_analyzer_failure_reason_quotes_no_temp_path(tmp_path, monkeypatch):
    script = tmp_path / "fake-analyzer"
    script.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        "sys.stderr.write(' '.join(a for a in sys.argv[1:] if a.endswith('.cpp')) + ': error\\n')\n"
        "sys.exit(1)\n"
    )
    script.chmod(0o755)
    monkeypatch.setenv("AUTOPATCH_ANALYZER_PATH", str(script))
    config = AnalyzerConfig.from_env()

    messages = []
    for _ in range(2):
        with pytest.raises(AnalyzerFailed) as excinfo:
            run_analyzer("int main(){return 0;}", config)
        messages.append(str(excinfo.value))
    assert "input.cpp" in messages[0]
    assert tempfile.gettempdir() not in messages[0]
    assert messages[0] == messages[1]


def test_analyzer_launch_error_fails_each_record(tmp_path, monkeypatch, corpus_file):
    script = tmp_path / "fake-analyzer"
    script.write_text("#!/nonexistent/python\n")
    script.chmod(0o755)
    monkeypatch.setenv("AUTOPATCH_ANALYZER_PATH", str(script))
    ingest = run_ingest(corpus_file, DB_COUNT, SEED, tmp_path / "ingest")
    llm = LlmClient(LlmConfig(), Cassette(tmp_path / "cassette.jsonl"), mode="replay")

    result = run_index(ingest.corpus, ingest.split, tmp_path / "index", LocalHashingProvider(), llm)

    journal = (tmp_path / "index" / INDEX_JOURNAL).read_text(encoding="utf-8").splitlines()
    entries = [json.loads(line) for line in journal]
    assert [e["record_id"] for e in entries] == [p.id for p in ingest.split.database_set]
    assert {e["status"] for e in entries} == {"failed"}
    assert result.indexed_count == 0 and len(result.skipped) == DB_COUNT
    for entry in entries:
        assert "could not start" in entry["reason"]
        assert tempfile.gettempdir() not in entry["reason"]
        assert "autopatch-cfg-" not in entry["reason"]


def test_eval_logs_undecodable_patch(tmp_path, pairs):
    pair = pairs[0]
    corpus_path = tmp_path / "pairs.jsonl"
    write_corpus([pair], corpus_path)
    ingest = run_ingest(corpus_path, 0, SEED, tmp_path / "ingest")
    split = CorpusSplit(database_set=(), test_set=(pair,))
    mode = PromptMode.ZERO_SHOT
    path = patch_path(tmp_path / "patches", mode, pair.id)
    path.parent.mkdir(parents=True)
    path.write_bytes(b"\xff\xfe")

    result = run_eval(ingest.corpus, split, tmp_path / "patches", tmp_path / "eval", (mode,),
                      reps=1, timeout_s=10.0)

    assert result.failures == [
        {"record_id": pair.id, "mode": mode.value, "reason": "patch is not valid UTF-8"}
    ]
    assert result.report_json_path.exists()
    manifest = json.loads((tmp_path / "eval" / pipeline.FAILURES_MANIFEST).read_text())
    assert manifest == result.failures


@requires_gxx
def test_eval_contains_empty_ground_truth(tmp_path, pairs):
    good, commented = pairs[0], replace(pairs[1], optimized_code="// nothing but a comment\n")
    corpus_path = tmp_path / "pairs.jsonl"
    write_corpus([good, commented], corpus_path)
    ingest = run_ingest(corpus_path, 0, SEED, tmp_path / "ingest")
    split = CorpusSplit(database_set=(), test_set=(good, commented))
    mode = PromptMode.ZERO_SHOT
    for pair in split.test_set:
        path = patch_path(tmp_path / "patches", mode, pair.id)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(pair.original_code, encoding="utf-8")

    result = run_eval(ingest.corpus, split, tmp_path / "patches", tmp_path / "eval", (mode,),
                      reps=1, timeout_s=10.0)

    assert [(f["record_id"], f["mode"]) for f in result.failures] == [(commented.id, mode.value)]
    assert "ground truth" in result.failures[0]["reason"]
    assert result.report.evaluated_count == 1
    assert result.report_json_path.exists()
    manifest = json.loads((tmp_path / "eval" / pipeline.FAILURES_MANIFEST).read_text())
    assert manifest == result.failures
