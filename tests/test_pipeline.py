from __future__ import annotations

import json

import pytest

from autopatch.corpus import load_record
from autopatch.pipeline import (
    INDEX_JOURNAL,
    load_split,
    run_index,
    run_ingest,
    run_optimize,
)
from autopatch.prompting import Cassette, LlmClient, LlmConfig, PromptMode
from autopatch.retrieval import LocalHashingProvider, SourceKind, load_index

from conftest import requires_gxx
from helpers import make_scripted_transport

pytestmark = requires_gxx


@pytest.fixture()
def small_run(tmp_path, pairs, corpus_file, analyzer):
    ingest = run_ingest(corpus_file, 5, 11, tmp_path / "ingest")
    recorder = LlmClient(
        LlmConfig(), Cassette(tmp_path / "cassette.json"), mode="record",
        transport=make_scripted_transport(pairs),
    )
    return ingest, recorder, tmp_path


def test_load_split_round_trips(small_run, corpus_file):
    ingest, _, _ = small_run
    corpus, reloaded = load_split(corpus_file, ingest.manifest_path)
    assert list(reloaded.database_set) == list(ingest.split.database_set)
    assert list(reloaded.test_set) == list(ingest.split.test_set)
    for pair in ingest.corpus.pairs:
        assert load_record(corpus, pair.id) == pair


def test_index_journal_enables_offline_resume(small_run):
    ingest, recorder, tmp_path = small_run
    out = tmp_path / "index"
    first = run_index(ingest.corpus, ingest.split, out, LocalHashingProvider(), recorder)
    assert first.indexed_count == 5

    journal_before = (out / INDEX_JOURNAL).read_bytes()
    index_before = (out / "index_cfg.jsonl").read_bytes()

    # a client that would fail on any service call: resume must not need one
    unusable = LlmClient(
        LlmConfig(), Cassette(tmp_path / "empty_cassette.json"), mode="replay"
    )
    second = run_index(ingest.corpus, ingest.split, out, LocalHashingProvider(), unusable)
    assert second.indexed_count == 5
    assert not second.skipped
    assert (out / INDEX_JOURNAL).read_bytes() == journal_before
    assert (out / "index_cfg.jsonl").read_bytes() == index_before


def test_index_no_resume_recomputes(small_run):
    ingest, recorder, tmp_path = small_run
    out = tmp_path / "index"
    run_index(ingest.corpus, ingest.split, out, LocalHashingProvider(), recorder)
    result = run_index(
        ingest.corpus, ingest.split, out, LocalHashingProvider(), recorder, resume=False
    )
    assert result.indexed_count == 5


def test_index_entries_carry_diff_and_rationale(small_run):
    ingest, recorder, tmp_path = small_run
    out = tmp_path / "index"
    run_index(ingest.corpus, ingest.split, out, LocalHashingProvider(), recorder)
    index = load_index(out / "index_cfg.jsonl")
    assert index.source_kind is SourceKind.CFG_SERIALIZATION
    for diff_text, rationale in index.metadata:
        assert "ΔS" in diff_text and "ΔC" in diff_text
        assert rationale


def test_optimize_context_prompts_draw_on_retrieved_entry(small_run):
    ingest, recorder, tmp_path = small_run
    out = tmp_path / "index"
    run_index(ingest.corpus, ingest.split, out, LocalHashingProvider(), recorder)
    result = run_optimize(
        ingest.corpus,
        ingest.split,
        out,
        tmp_path / "patches",
        (PromptMode.CONTEXT,),
        recorder,
        LocalHashingProvider(),
    )
    assert not result.failures
    test_ids = {p.id for p in ingest.split.test_set}
    assert set(result.written["context"]) == test_ids
    for target_id in test_ids:
        patch = (tmp_path / "patches" / "context" / f"{target_id}.cpp").read_text()
        assert patch.strip() == load_record(ingest.corpus, target_id).optimized_code.strip()


def test_optimize_failures_manifest_written(small_run):
    ingest, recorder, tmp_path = small_run
    out = tmp_path / "index"
    run_index(ingest.corpus, ingest.split, out, LocalHashingProvider(), recorder)
    misser = LlmClient(LlmConfig(), Cassette(tmp_path / "nothing.json"), mode="replay")
    result = run_optimize(
        ingest.corpus, ingest.split, out, tmp_path / "patches",
        (PromptMode.ZERO_SHOT,), misser, LocalHashingProvider(),
    )
    assert len(result.failures) == len(ingest.split.test_set)
    manifest = json.loads((tmp_path / "patches" / "failures.json").read_text())
    assert manifest == result.failures
