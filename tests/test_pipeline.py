from __future__ import annotations

import json
import re

import pytest

from autopatch.corpus import load_record, load_split
from autopatch.errors import AutopatchError
from autopatch.pipeline import (
    INDEX_JOURNAL,
    patch_path,
    run_eval,
    run_index,
    run_ingest,
    run_optimize,
)
from autopatch.prompting import Cassette, LlmClient, LlmConfig, PromptMode
from autopatch.retrieval import LocalHashingProvider, SourceKind, load_index, vector_sidecar_path

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
    for pair in ingest.split.database_set:
        assert load_record(corpus, pair.id) == pair
    for pair in ingest.split.test_set:  # a loaded corpus holds the database records alone
        with pytest.raises(AutopatchError, match=f"^record '{pair.id}' is not in the corpus$"):
            load_record(corpus, pair.id)


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


@pytest.mark.parametrize("source", ["ingested", "loaded"])
def test_optimize_refuses_an_index_built_over_another_split(small_run, corpus_file, source):
    ingest, recorder, tmp_path = small_run
    run_index(ingest.corpus, ingest.split, tmp_path / "index", LocalHashingProvider(), recorder)
    other = run_ingest(corpus_file, 5, 12, tmp_path / "other")
    corpus, split = (other.corpus, other.split) if source == "ingested" else load_split(
        corpus_file, other.manifest_path)
    indexed = {p.id for p in ingest.split.database_set}
    leaked = [p.id for p in other.split.test_set if p.id in indexed]
    assert leaked  # a target whose own optimized code the index could show as the example

    sent = []
    client = LlmClient(LlmConfig(), cassette=None, mode="live", transport=sent.append)
    message = (f"{tmp_path / 'index' / 'index_source.jsonl'}: the index holds test record(s)"
               f" {', '.join(map(repr, leaked))}: it was built over another split;"
               f" run autopatch index again")
    with pytest.raises(AutopatchError, match=f"^{re.escape(message)}$"):
        run_optimize(corpus, split, tmp_path / "index", tmp_path / "patches",
                     (PromptMode.NAIVE,), client, LocalHashingProvider())
    assert sent == []
    assert not (tmp_path / "patches" / "naive").exists()


def test_a_failed_patch_keeps_no_patch_from_an_earlier_run(small_run):
    ingest, recorder, tmp_path = small_run
    out = tmp_path / "patches"
    first = run_optimize(ingest.corpus, ingest.split, tmp_path / "index", out,
                         (PromptMode.ZERO_SHOT,), recorder, LocalHashingProvider())
    assert not first.failures
    target = ingest.split.test_set[0]
    assert patch_path(out, PromptMode.ZERO_SHOT, target.id).exists()

    scripted = make_scripted_transport(list(ingest.corpus.pairs))

    def busy_for_target(request: dict) -> dict:
        if target.original_code in request["messages"][1]["content"]:
            raise AutopatchError("service returned 503: busy")
        return scripted(request)

    client = LlmClient(LlmConfig(), cassette=None, mode="live", transport=busy_for_target)
    second = run_optimize(ingest.corpus, ingest.split, tmp_path / "index", out,
                          (PromptMode.ZERO_SHOT,), client, LocalHashingProvider())
    assert second.failures == [{"record_id": target.id, "mode": "zero_shot",
                                "reason": "service returned 503: busy"}]
    assert not patch_path(out, PromptMode.ZERO_SHOT, target.id).exists()
    assert all(patch_path(out, PromptMode.ZERO_SHOT, p.id).exists() for p in ingest.split.test_set[1:])

    evaluated = run_eval(ingest.corpus, ingest.split, out, tmp_path / "eval",
                         (PromptMode.ZERO_SHOT,), reps=1, timeout_s=5)
    assert evaluated.failures == [{"record_id": target.id, "mode": "zero_shot",
                                   "reason": "patch missing"}]


class _DownProvider:
    def embed(self, text: str):
        raise AutopatchError("embedding service down")


def test_an_index_run_that_indexes_nothing_keeps_no_earlier_index(small_run):
    ingest, recorder, tmp_path = small_run
    out = tmp_path / "index"
    first = run_index(ingest.corpus, ingest.split, out, LocalHashingProvider(), recorder)
    files = [path for built in first.built.values() for path in (built, vector_sidecar_path(built))]
    assert len(files) == 4
    assert all(path.exists() for path in files)

    second = run_index(ingest.corpus, ingest.split, out, _DownProvider(), recorder)
    assert (second.indexed_count, second.built) == (0, {})
    assert [entry["reason"] for entry in second.skipped] == [
        f"record {p.id}: embedding service down" for p in ingest.split.database_set]
    assert not any(path.exists() for path in files)
    with pytest.raises(FileNotFoundError):
        run_optimize(ingest.corpus, ingest.split, out, tmp_path / "patches",
                     (PromptMode.NAIVE,), recorder, LocalHashingProvider())
