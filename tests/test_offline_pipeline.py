"""Pipeline behaviour that runs without clang: the index stage's worker
pool over CFGs parsed from the committed dumps (the `dump_graphs` fixture),
analyzer and compiler failures from fake tools (a tool that cannot start or
is not on PATH included), timed runs of fake programs that flood their
stdout or stderr or write a long wrong output, tools that read none of the
caller's stdin and get the arguments they always got, an unreachable chat service or a malformed
reply (one that is not valid Unicode included) failing one record, an embedding that fails (a 503,
a zero vector or a vector of another dimension) failing one record and
leaving the other records' indexes whole, the request keys of a recorded
cassette (so every prompt byte) and the keys of its analyzer answers, a chat
URL without a scheme failing each patch, eval containment of unscorable ground truths, undecodable patches and records without testcases, and the eval stage's
phase order (every compile before any timed run) and its one compile per
distinct source under fake compile and time functions, and the optimize
stage's pool: analyzer runs and
chat calls in flight at once, outputs in (target, mode) order, one analyzer
run per target and only for context mode, no pool under replay while the
cassette answers every analyzer request, and no failure that keeps the
loaded indexes alive."""

from __future__ import annotations

import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
import weakref
import zlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import autopatch
from autopatch import _io, analyzer, harness, pipeline
from autopatch.analyzer import AnalyzerConfig, parse_answer, run_analyzer
from autopatch.cfg import serialize_cfg
from autopatch.corpus import CorpusSplit, TestCase, load_record
from autopatch.errors import AutopatchError
from autopatch._io import TOOL_STDERR_LIMIT, run_tool, service_error
from autopatch.harness import RunOutcome, RunStatus, ToolchainConfig
from autopatch.metrics import compute_lexical
from autopatch.pipeline import (
    INDEX_JOURNAL,
    STAGE_WORKERS,
    OptimizeResult,
    index_path,
    patch_path,
    run_eval,
    run_index,
    run_ingest,
    run_optimize,
)
from autopatch.preprocess import preprocess_source
from autopatch.prompting import (
    Cassette,
    LlmClient,
    LlmConfig,
    PromptMode,
    build_prompt,
    generate_patch,
)
from autopatch.report import EvalResult, aggregate_report
from autopatch.retrieval import (
    LOCAL_DIM,
    LocalHashingProvider,
    SourceKind,
    embed_text,
    load_index,
    retrieve_top1,
)

from conftest import ALL_MODES, DB_COUNT, DUMP_DIR, SEED, requires_gxx
from helpers import (
    SlowFirstTransport,
    cassette_keys,
    ended,
    fake_tool,
    index_rows,
    index_slow_first,
    make_scripted_transport,
    write_corpus,
)


def test_index_pool_output_identical_across_runs(tmp_path, pairs, corpus_file, dump_graphs):
    ingest = run_ingest(corpus_file, DB_COUNT, SEED, tmp_path / "ingest")

    transports = [index_slow_first(tmp_path / name, ingest, pairs) for name in ("a", "b")]

    for transport in transports:
        assert transport.finished != sorted(transport.finished)  # finished out of order
    for name in (INDEX_JOURNAL, "index_cfg.jsonl", "index_cfg.jsonl.vec",
                 "index_source.jsonl", "index_source.jsonl.vec"):
        first = (tmp_path / "a" / "index" / name).read_bytes()
        assert first == (tmp_path / "b" / "index" / name).read_bytes(), name
    keys = set(cassette_keys(tmp_path / "a" / "cassette.jsonl", analyzer=False))
    assert len(keys) == len(ingest.split.database_set)


# sha256 of the sorted chat request keys of a cassette recorded over the
# fixture corpus: every rationale request of the index stage and every patch
# request of the optimize stage, in all three modes. A key hashes the prompt
# text, so a byte that moves in any prompt moves this digest, and an existing
# cassette would no longer replay.
REQUEST_KEYS_SHA256 = "7f09a9f11efd40d353c2684a24daf1d02cf8d8e6058959c83c78a6cdcbc05f2e"
# The same for the analyzer answers of such a recording on the stub analyzer:
# one per side of each database record and one per test target. A key hashes
# the analyzer's arguments and the preprocessed source, so a moved argument
# or preprocessing byte moves this digest, and recorded answers would no
# longer replay.
ANALYZER_KEYS_SHA256 = "1def07a929c96362eb724c270eb6b9850db527eb7a99297c17955ac326831166"


def _recorded_keys(tmp_path, pairs, corpus_file, analyzer: bool) -> list[str]:
    """Index and optimize the fixture corpus in all modes in record mode,
    with no failure, and return the cassette's analyzer or chat keys."""
    ingest = run_ingest(corpus_file, DB_COUNT, SEED, tmp_path / "ingest")
    cassette = tmp_path / "cassette.jsonl"
    llm = LlmClient(LlmConfig(), Cassette(cassette), mode="record",
                    transport=make_scripted_transport(pairs))
    provider = LocalHashingProvider()
    assert not run_index(ingest.corpus, ingest.split, tmp_path / "index", provider, llm).skipped
    assert not run_optimize(ingest.corpus, ingest.split, tmp_path / "index", tmp_path / "patches",
                            ALL_MODES, llm, provider).failures
    return cassette_keys(cassette, analyzer)


def test_recorded_request_keys_are_pinned(tmp_path, pairs, corpus_file, dump_graphs):
    keys = _recorded_keys(tmp_path, pairs, corpus_file, analyzer=False)
    assert len(keys) == len(set(keys)) == 16
    digest = hashlib.sha256("\n".join(sorted(keys)).encode("utf-8")).hexdigest()
    assert digest == REQUEST_KEYS_SHA256


def test_recorded_analyzer_keys_are_pinned(tmp_path, pairs, corpus_file, stub_analyzer):
    keys = _recorded_keys(tmp_path, pairs, corpus_file, analyzer=True)
    assert len(keys) == len(set(keys)) == 2 * DB_COUNT + len(pairs) - DB_COUNT
    digest = hashlib.sha256("\n".join(sorted(keys)).encode("utf-8")).hexdigest()
    assert digest == ANALYZER_KEYS_SHA256


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
        with pytest.raises(AutopatchError, match="^analyzer exited with 1: ") as excinfo:
            parse_answer(*run_analyzer("int main(){return 0;}", config))
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


def test_unreachable_chat_service_fails_one_record(tmp_path, monkeypatch, pairs, corpus_file,
                                                   dump_graphs):
    ingest = run_ingest(corpus_file, DB_COUNT, SEED, tmp_path / "ingest")
    unlucky = ingest.split.database_set[2]
    scripted = make_scripted_transport(pairs)

    def urlopen(request, timeout):  # refuses the unlucky record's rationale call
        payload = json.loads(request.data)
        if unlucky.original_code.rstrip() in payload["messages"][1]["content"]:
            raise ConnectionRefusedError(111, "Connection refused")
        reply = io.BytesIO(json.dumps(scripted(payload)).encode())
        reply.status = 200
        return reply

    monkeypatch.setattr("urllib.request.urlopen", urlopen)
    llm = LlmClient(LlmConfig(base_url="http://chat.invalid/v1"), cassette=None, mode="live")

    result = run_index(ingest.corpus, ingest.split, tmp_path / "index", LocalHashingProvider(), llm)

    journal = (tmp_path / "index" / INDEX_JOURNAL).read_text(encoding="utf-8").splitlines()
    failed = [e for e in map(json.loads, journal) if e["status"] != "ok"]
    assert [e["record_id"] for e in failed] == [unlucky.id]
    assert failed[0]["reason"] == "service returned 0: service unreachable: [Errno 111] Connection refused"
    assert result.indexed_count == DB_COUNT - 1
    assert (tmp_path / "index" / "index_cfg.jsonl").exists()


def test_chat_url_without_a_scheme_fails_each_patch(tmp_path, pairs, corpus_file, dump_graphs):
    ingest = _index_fixture(tmp_path, corpus_file, pairs)
    llm = LlmClient(LlmConfig(base_url="chat.invalid/v1"), cassette=None, mode="live")

    result = run_optimize(ingest.corpus, ingest.split, tmp_path / "index", tmp_path / "patches",
                          ALL_MODES, llm, LocalHashingProvider())

    reason = "service returned 0: service unreachable: unknown url type: 'chat.invalid/v1'"
    assert result.failures == [
        {"record_id": pair.id, "mode": mode.value, "reason": reason}
        for pair in ingest.split.test_set for mode in ALL_MODES
    ]
    assert result.written == {mode.value: [] for mode in ALL_MODES}
    manifest = json.loads((tmp_path / "patches" / pipeline.FAILURES_MANIFEST).read_text())
    assert manifest == result.failures


def test_surrogate_chat_reply_fails_one_record_and_keeps_the_journal(tmp_path, pairs,
                                                                    corpus_file, dump_graphs):
    ingest = run_ingest(corpus_file, DB_COUNT, SEED, tmp_path / "ingest")
    unlucky = ingest.split.database_set[2]
    scripted = make_scripted_transport(pairs)

    def replying(content):  # answers the unlucky record's rationale call with `content`
        def transport(request):
            if unlucky.original_code.rstrip() in request["messages"][1]["content"]:
                if content is None:
                    raise service_error(503, "busy")
                return {"choices": [{"message": {"content": content}}]}
            return scripted(request)
        return LlmClient(LlmConfig(), cassette=None, mode="live", transport=transport)

    journal_path = tmp_path / "index" / INDEX_JOURNAL
    run_index(ingest.corpus, ingest.split, tmp_path / "index", LocalHashingProvider(), replying(None))
    prior = journal_path.read_text(encoding="utf-8").splitlines()

    # JSON can escape a lone surrogate, which the journal's UTF-8 cannot hold.
    result = run_index(ingest.corpus, ingest.split, tmp_path / "index", LocalHashingProvider(),
                       replying("\ud800"))

    journal = journal_path.read_text(encoding="utf-8").splitlines()
    assert journal[:-1] == prior[:-1]  # the prepared records, reused as they were
    failed = json.loads(journal[-1])
    assert failed["record_id"] == unlucky.id
    assert failed["reason"].startswith("service returned 0: malformed chat response: ")
    assert result.indexed_count == DB_COUNT - 1


class FailingOnOneText:
    """LocalHashingProvider, except on `text`: a 503 from the service, a
    zero vector, or a vector one float shorter than the others."""

    def __init__(self, text: str, fault: str):
        self._inner, self._text, self._fault = LocalHashingProvider(), text, fault

    def embed(self, text: str) -> np.ndarray:
        if text != self._text:
            return self._inner.embed(text)
        if self._fault == "503":
            raise service_error(503, "busy")
        if self._fault == "short":
            return self._inner.embed(text)[:-1]
        return np.zeros(LOCAL_DIM, dtype=np.float32)


EMBEDDING_FAULTS = {
    "503": "service returned 503: busy",
    "zero": "provider returned a zero vector",
    "short": f"dim {LOCAL_DIM - 1} != {LOCAL_DIM}",
}


@pytest.mark.parametrize("fault, kind", [("503", SourceKind.RAW_SOURCE),
                                         ("zero", SourceKind.CFG_SERIALIZATION),
                                         ("short", SourceKind.RAW_SOURCE)])
def test_embedding_failure_fails_one_record(tmp_path, pairs, corpus_file, dump_graphs, fault, kind):
    ingest = run_ingest(corpus_file, DB_COUNT, SEED, tmp_path / "ingest")
    unlucky = ingest.split.database_set[2]
    llm = LlmClient(LlmConfig(), cassette=None, mode="live", transport=make_scripted_transport(pairs))
    clean = tmp_path / "clean"
    run_index(ingest.corpus, ingest.split, clean, LocalHashingProvider(), llm)
    journal = (clean / INDEX_JOURNAL).read_text(encoding="utf-8").splitlines()
    journaled = {e["record_id"]: e for e in map(json.loads, journal)}
    text = (unlucky.original_code if kind is SourceKind.RAW_SOURCE
            else journaled[unlucky.id]["cfg_text"])

    out = tmp_path / "index"
    result = run_index(ingest.corpus, ingest.split, out, FailingOnOneText(text, fault), llm)

    reason = f"record {unlucky.id}: {EMBEDDING_FAULTS[fault]}"
    failed = {"record_id": unlucky.id, "status": "failed", "reason": reason}
    assert result.skipped == [failed]
    assert result.indexed_count == DB_COUNT - 1
    journal = (out / INDEX_JOURNAL).read_text(encoding="utf-8").splitlines()
    assert [e for e in map(json.loads, journal) if e["status"] != "ok"] == [failed]
    for name in ("index_cfg.jsonl", "index_cfg.jsonl.vec",
                 "index_source.jsonl", "index_source.jsonl.vec"):
        assert (out / name).exists(), name
    expected = index_rows(clean)
    for rows in expected.values():
        del rows[unlucky.id]
    assert index_rows(out) == expected

    rerun = run_index(ingest.corpus, ingest.split, out, LocalHashingProvider(), llm)
    assert rerun.indexed_count == DB_COUNT and not rerun.skipped
    assert _tree(out) == _tree(clean)


def _optimize_with_one_reply(tmp_path, pairs, corpus_file, content, client_mode):
    """Zero-shot optimize, with the chat service answering one target's patch
    request with `content`: that target is one failure, the others are
    written."""
    ingest = run_ingest(corpus_file, DB_COUNT, SEED, tmp_path / "ingest")
    unlucky = ingest.split.test_set[1]
    scripted = make_scripted_transport(pairs)

    def transport(request):
        if unlucky.original_code.rstrip() in request["messages"][1]["content"]:
            return {"choices": [{"message": {"content": content}}]}
        return scripted(request)

    cassette = Cassette(tmp_path / "cassette.jsonl") if client_mode == "record" else None
    llm = LlmClient(LlmConfig(), cassette=cassette, mode=client_mode, transport=transport)
    mode = PromptMode.ZERO_SHOT

    result = run_optimize(ingest.corpus, ingest.split, tmp_path / "index", tmp_path / "patches",
                          (mode,), llm, LocalHashingProvider())

    assert [(f["record_id"], f["mode"]) for f in result.failures] == [(unlucky.id, mode.value)]
    assert "malformed chat response" in result.failures[0]["reason"]
    others = [p.id for p in ingest.split.test_set if p.id != unlucky.id]
    assert result.written == {mode.value: others}
    for record_id in others:
        assert patch_path(tmp_path / "patches", mode, record_id).exists()
    assert not patch_path(tmp_path / "patches", mode, unlucky.id).exists()


def test_null_chat_reply_fails_one_record(tmp_path, pairs, corpus_file):
    _optimize_with_one_reply(tmp_path, pairs, corpus_file, None, "live")


@pytest.mark.parametrize("client_mode", ["live", "record"])
def test_surrogate_chat_reply_fails_one_patch(tmp_path, pairs, corpus_file, client_mode):
    # Live mode would write it into the patch file, record mode into the cassette.
    _optimize_with_one_reply(tmp_path, pairs, corpus_file,
                             "```cpp\nint main() { return 0; } // \ud800\n```", client_mode)


def _index_fixture(root: Path, corpus_file, pairs):
    """The fixture corpus ingested and indexed under `root`, on the
    `dump_graphs` stand-in."""
    ingest = run_ingest(corpus_file, DB_COUNT, SEED, root / "ingest")
    llm = LlmClient(LlmConfig(), cassette=None, mode="live", transport=make_scripted_transport(pairs))
    assert not run_index(ingest.corpus, ingest.split, root / "index", LocalHashingProvider(), llm).skipped
    return ingest


class SlowFirstAnalyzer:
    """Wraps the `dump_graphs` stand-in of `pipeline.extract_cfg`: slower for
    targets earlier in the test split, and rejecting `rejected`. Records the
    targets' positions in the order their runs finish, and the peak number
    of runs in flight."""

    def __init__(self, monkeypatch, targets, rejected):
        self._inner = pipeline.extract_cfg
        self._position = {pair.original_code: i for i, pair in enumerate(targets)}
        self._rejected = rejected.original_code
        self._lock = threading.Lock()
        self._active = 0
        self.peak = 0
        self.finished: list[int] = []
        monkeypatch.setattr(pipeline, "extract_cfg", self)

    def __call__(self, code, config, llm):
        position = self._position[code]
        with self._lock:
            self._active += 1
            self.peak = max(self.peak, self._active)
        time.sleep(0.02 * (len(self._position) - position))
        with self._lock:
            self._active -= 1
            self.finished.append(position)
        if code == self._rejected:
            raise AutopatchError("analyzer exited with 1: input.cpp: error: rejected")
        return self._inner(code, config, llm)


def _codeless_zero_shot(target, transport):
    """`transport`, except that `target`'s zero-shot patch request is answered
    without a fenced code block."""
    def answer(request):
        reply = transport(request)
        user = request["messages"][1]["content"]
        if target.original_code.rstrip() in user and "## Reference example" not in user:
            return {"choices": [{"message": {"content": "It is fast enough already."}}]}
        return reply
    return answer


def _sequential_optimize(corpus, split, index_dir, out_dir, modes, llm, provider):
    """Reference for run_optimize: every (target, mode) analyzed, retrieved,
    prompted and sent in turn, and written as run_optimize writes it."""
    indexes = {kind: load_index(index_path(index_dir, kind)) for kind in SourceKind}
    written = {mode.value: [] for mode in modes}
    failures = []
    for pair in split.test_set:
        for mode in modes:
            try:
                if mode is PromptMode.ZERO_SHOT:
                    prompt_text = build_prompt(pair)
                elif mode is PromptMode.NAIVE:
                    entry, _ = retrieve_top1(indexes[SourceKind.RAW_SOURCE],
                                             embed_text(pair.original_code, provider))
                    prompt_text = build_prompt(pair, load_record(corpus, entry.record_id))
                else:  # the stand-in analyzer ignores its config and client
                    query = serialize_cfg(pipeline.extract_cfg(pair.original_code, None, None))
                    entry, _ = retrieve_top1(indexes[SourceKind.CFG_SERIALIZATION],
                                             embed_text(query, provider))
                    prompt_text = build_prompt(pair, load_record(corpus, entry.record_id),
                                               (entry.diff_text, entry.rationale))
                code = generate_patch(prompt_text, llm)
            except AutopatchError as exc:
                failures.append({"record_id": pair.id, "mode": mode.value, "reason": str(exc)})
                continue
            path = patch_path(out_dir, mode, pair.id)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(code, encoding="utf-8")
            written[mode.value].append(pair.id)
    (out_dir / pipeline.FAILURES_MANIFEST).write_text(
        json.dumps(failures, indent=2, sort_keys=True, ensure_ascii=False) + "\n", encoding="utf-8")
    return OptimizeResult(written=written, failures=failures)


def _tree(root: Path) -> dict[str, bytes]:
    return {str(path.relative_to(root)): path.read_bytes() for path in sorted(root.rglob("*"))
            if path.is_file()}


def test_optimize_pools_its_waits_and_keeps_its_order(tmp_path, monkeypatch, pairs, corpus_file,
                                                       dump_graphs):
    ingest = _index_fixture(tmp_path, corpus_file, pairs)
    targets = ingest.split.test_set
    rejected, codeless = targets[1], targets[2]
    analyzer = SlowFirstAnalyzer(monkeypatch, targets, rejected)
    slow = SlowFirstTransport(pairs, [p.id for p in targets])
    llm = LlmClient(LlmConfig(), cassette=None, mode="live",
                    transport=_codeless_zero_shot(codeless, slow))

    result = run_optimize(ingest.corpus, ingest.split, tmp_path / "index", tmp_path / "patches",
                          ALL_MODES, llm, LocalHashingProvider())

    assert sorted(analyzer.finished) == list(range(len(targets)))  # one run per target
    assert analyzer.finished != sorted(analyzer.finished)  # finished out of order
    assert analyzer.peak >= 2
    assert slow.finished != sorted(slow.finished)
    assert slow.peak >= 2
    assert [(f["record_id"], f["mode"]) for f in result.failures] == [
        (rejected.id, PromptMode.CONTEXT.value), (codeless.id, PromptMode.ZERO_SHOT.value)
    ]
    assert result.failures[0]["reason"] == "analyzer exited with 1: input.cpp: error: rejected"
    assert result.failures[1]["reason"] == "response contains no fenced code block"

    reference_llm = LlmClient(LlmConfig(), cassette=None, mode="live",
                              transport=_codeless_zero_shot(codeless, make_scripted_transport(pairs)))
    reference = _sequential_optimize(ingest.corpus, ingest.split, tmp_path / "index",
                                     tmp_path / "reference", ALL_MODES, reference_llm,
                                     LocalHashingProvider())
    assert result == reference
    assert _tree(tmp_path / "patches") == _tree(tmp_path / "reference")


def test_replayed_stages_start_no_pool_and_write_the_recording(tmp_path, monkeypatch,
                                                                recorded_workspace):
    # With every answer in the cassette no replayed call waits, so each stage
    # runs its calls in turn on the calling thread, and writes what the
    # recording run wrote.
    def no_pool(*args, **kwargs):
        raise AssertionError("a replayed stage started a thread pool")

    monkeypatch.setattr(pipeline, "ThreadPoolExecutor", no_pool)
    ingest = run_ingest(recorded_workspace.corpus_file, DB_COUNT, SEED, tmp_path / "ingest")
    llm = LlmClient(LlmConfig(), Cassette(recorded_workspace.cassette), mode="replay")
    provider = LocalHashingProvider()

    indexed = run_index(ingest.corpus, ingest.split, tmp_path / "index", provider, llm)
    optimized = run_optimize(ingest.corpus, ingest.split, tmp_path / "index", tmp_path / "patches",
                             ALL_MODES, llm, provider)

    assert not indexed.skipped and not optimized.failures
    recording = recorded_workspace.record_dir
    assert _tree(tmp_path / "index") == _tree(recording / "index")
    assert _tree(tmp_path / "patches") == _tree(recording / "patches")


def test_replay_width_is_one_while_the_cassette_answers_every_analyzer_request(
        tmp_path, recorded_workspace):
    ingest = run_ingest(recorded_workspace.corpus_file, DB_COUNT, SEED, tmp_path)
    codes = [pair.original_code for pair in ingest.split.test_set]
    config = AnalyzerConfig.from_env()
    replay = LlmClient(LlmConfig(), Cassette(recorded_workspace.cassette), mode="replay")
    recorder = LlmClient(LlmConfig(), Cassette(tmp_path / "cassette.json"), mode="record",
                         transport=lambda request: {})

    assert pipeline._width(replay, config, codes) == 1
    assert pipeline._width(replay, config, ()) == 1  # chat calls only: a miss raises
    assert pipeline._width(replay, config, [*codes, "int main() { return 0; }\n"]) == STAGE_WORKERS
    assert pipeline._width(replay, replace(config, extra_flags=("-O1",)), codes) == STAGE_WORKERS
    assert pipeline._width(replay, config, [*codes, "int main() {}\ud800"]) == 1  # fails preprocessing
    assert pipeline._width(recorder, config, ()) == STAGE_WORKERS


def test_optimize_runs_the_analyzer_once_per_target_and_only_for_context(tmp_path, monkeypatch,
                                                                          pairs, corpus_file,
                                                                          dump_graphs):
    ingest = _index_fixture(tmp_path, corpus_file, pairs)
    llm = LlmClient(LlmConfig(), cassette=None, mode="live", transport=make_scripted_transport(pairs))
    stand_in = pipeline.extract_cfg
    analyzed = []

    def counting(code, config, llm):
        analyzed.append(code)
        return stand_in(code, config, llm)

    monkeypatch.setattr(pipeline, "extract_cfg", counting)
    targets = sorted(pair.original_code for pair in ingest.split.test_set)
    for modes, expected in (((PromptMode.ZERO_SHOT, PromptMode.NAIVE), []), (ALL_MODES, targets)):
        analyzed.clear()
        run_optimize(ingest.corpus, ingest.split, tmp_path / "index", tmp_path / "patches", modes,
                     llm, LocalHashingProvider())
        assert sorted(analyzed) == expected


def test_optimize_frees_its_indexes_without_a_collector_pass(tmp_path, monkeypatch, pairs,
                                                             corpus_file, dump_graphs):
    # A failure must not keep its exception: the traceback holds run_optimize's
    # frame, and so both loaded indexes, in a cycle with the list that holds it.
    ingest = _index_fixture(tmp_path, corpus_file, pairs)
    targets = ingest.split.test_set
    SlowFirstAnalyzer(monkeypatch, targets, rejected=targets[1])
    llm = LlmClient(LlmConfig(), cassette=None, mode="live",
                    transport=_codeless_zero_shot(targets[2], make_scripted_transport(pairs)))
    loaded = []

    def load_and_watch(path):
        index = load_index(path)
        loaded.append(weakref.ref(index))
        return index

    monkeypatch.setattr(pipeline, "load_index", load_and_watch)
    gc.disable()
    try:
        result = run_optimize(ingest.corpus, ingest.split, tmp_path / "index", tmp_path / "patches",
                              ALL_MODES, llm, LocalHashingProvider())
        assert len(result.failures) == 2
        assert len(loaded) == 2
        assert [ref() for ref in loaded] == [None, None]
    finally:
        gc.enable()


def test_eval_logs_undecodable_patch(tmp_path, pairs):
    undecodable, untested = pairs[0], replace(pairs[1], testcases=())
    corpus_path = tmp_path / "pairs.jsonl"
    write_corpus([undecodable, untested], corpus_path)
    ingest = run_ingest(corpus_path, 0, SEED, tmp_path / "ingest")
    split = CorpusSplit(database_set=(), test_set=(undecodable, untested))
    mode = PromptMode.ZERO_SHOT
    for pair, patch in ((undecodable, b"\xff\xfe"), (untested, untested.original_code.encode())):
        path = patch_path(tmp_path / "patches", mode, pair.id)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(patch)

    result = run_eval(ingest.corpus, split, tmp_path / "patches", tmp_path / "eval", (mode,),
                      reps=1, timeout_s=10.0)

    assert result.failures == [
        {"record_id": undecodable.id, "mode": mode.value, "reason": "patch is not valid UTF-8"},
        {"record_id": untested.id, "mode": mode.value, "reason": "no testcases"},
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


def test_analyzer_undecodable_stderr_fails_one_record(tmp_path, monkeypatch, pairs, corpus_file):
    ingest = run_ingest(corpus_file, DB_COUNT, SEED, tmp_path / "ingest")
    rejected = ingest.split.database_set[1]
    reject_file = tmp_path / "reject.cpp"
    reject_file.write_text(preprocess_source(rejected.original_code).output_code, encoding="utf-8")
    # Rejects one program with bytes that are not UTF-8; dumps a fixed CFG
    # for every other.
    script = fake_tool(tmp_path / "fake-analyzer", (
        f"if open('input.cpp', encoding='utf-8').read() == open({str(reject_file)!r}, encoding='utf-8').read():\n"
        "    sys.stderr.buffer.write(b'input.cpp: error: \\xff\\xfe\\n')\n"
        "    sys.exit(1)\n"
        f"sys.stderr.write(open({str(DUMP_DIR / 'prog01.txt')!r}).read())\n"
    ))
    monkeypatch.setenv("AUTOPATCH_ANALYZER_PATH", str(script))
    llm = LlmClient(LlmConfig(), Cassette(tmp_path / "cassette.jsonl"), mode="record",
                    transport=make_scripted_transport(pairs))

    result = run_index(ingest.corpus, ingest.split, tmp_path / "index", LocalHashingProvider(), llm)

    journal = (tmp_path / "index" / INDEX_JOURNAL).read_text(encoding="utf-8").splitlines()
    entries = {e["record_id"]: e for e in map(json.loads, journal)}
    assert set(entries) == {p.id for p in ingest.split.database_set}
    assert [e["record_id"] for e in entries.values() if e["status"] != "ok"] == [rejected.id]
    assert entries[rejected.id]["reason"] == "analyzer exited with 1: input.cpp: error: \ufffd\ufffd"
    assert result.indexed_count == DB_COUNT - 1


@requires_gxx
def test_compiler_undecodable_stderr_is_compile_error(tmp_path, monkeypatch, pairs):
    good, rejected = pairs[0], pairs[1]
    corpus_path = tmp_path / "pairs.jsonl"
    write_corpus([good, rejected], corpus_path)
    ingest = run_ingest(corpus_path, 0, SEED, tmp_path / "ingest")
    split = CorpusSplit(database_set=(), test_set=(good, rejected))
    mode = PromptMode.ZERO_SHOT
    for pair, prefix in ((good, ""), (rejected, "// reject me\n")):
        path = patch_path(tmp_path / "patches", mode, pair.id)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(prefix + pair.original_code, encoding="utf-8")
    # Fails on the marked patch with bytes that are not UTF-8; hands every
    # other to g++.
    compiler = fake_tool(tmp_path / "fake-cxx", (
        "if 'reject me' in open(sys.argv[1], encoding='utf-8').read():\n"
        "    sys.stderr.buffer.write(b'error: \\xff\\xfe\\n')\n"
        "    sys.exit(1)\n"
        "os.execvp('g++', ['g++', *sys.argv[1:]])\n"
    ))
    monkeypatch.setenv("AUTOPATCH_CXX", str(compiler))

    result = run_eval(ingest.corpus, split, tmp_path / "patches", tmp_path / "eval", (mode,),
                      reps=1, timeout_s=10.0)

    assert result.failures == []
    assert [(r.target_id, r.outcome.status) for r in result.results] == [
        (good.id, RunStatus.OK), (rejected.id, RunStatus.COMPILE_ERROR)
    ]
    assert result.results[0].outcome.mean_s > 0
    assert "\ufffd" in result.results[1].outcome.detail


def _eval_under_compiler(tmp_path, monkeypatch, pairs, compiler: Path) -> list[EvalResult]:
    """Evaluate the first two pairs' original code as zero-shot patches,
    built by `compiler`, and return the per-patch results once the batch has
    completed with no patch left out of them."""
    monkeypatch.setenv("AUTOPATCH_CXX", str(compiler))
    test_set = tuple(pairs[:2])
    corpus_path = tmp_path / "pairs.jsonl"
    write_corpus(test_set, corpus_path)
    ingest = run_ingest(corpus_path, 0, SEED, tmp_path / "ingest")
    mode = PromptMode.ZERO_SHOT
    for pair in test_set:
        path = patch_path(tmp_path / "patches", mode, pair.id)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(pair.original_code, encoding="utf-8")

    result = run_eval(ingest.corpus, ingest.split, tmp_path / "patches", tmp_path / "eval", (mode,),
                      reps=1, timeout_s=10.0)

    assert result.failures == []
    assert [r.target_id for r in result.results] == [pair.id for pair in ingest.split.test_set]
    return result.results


def test_compiler_launch_error_is_compile_error(tmp_path, monkeypatch, pairs):
    compiler = tmp_path / "fake-cxx"
    compiler.write_text("#!/nonexistent/python\n")
    compiler.chmod(0o755)
    results = _eval_under_compiler(tmp_path, monkeypatch, pairs, compiler)
    for each in results:
        assert each.outcome.status is RunStatus.COMPILE_ERROR
        assert each.outcome.detail == "compiler could not start: No such file or directory: fake-cxx"


def test_program_that_cannot_start_is_a_crash(tmp_path, monkeypatch, pairs):
    # What a cross compiler leaves: an executable file this machine cannot run.
    compiler = fake_tool(tmp_path / "fake-cxx", (
        "out = sys.argv[sys.argv.index('-o') + 1]\n"
        "open(out, 'wb').write(b'\\x7fELF for another machine')\n"
        "os.chmod(out, 0o755)\n"
    ))
    results = _eval_under_compiler(tmp_path, monkeypatch, pairs, compiler)
    for each in results:
        assert each.outcome.status is RunStatus.CRASH
        assert each.outcome.detail == "testcase 0: could not start: Exec format error"


def test_compiler_that_writes_no_program_is_compile_error(tmp_path, monkeypatch, pairs):
    # A program an earlier run built stays where this run's should be.
    for pair in pairs[:2]:
        stale = tmp_path / "eval" / "bin" / PromptMode.ZERO_SHOT.value / pair.id / "program"
        fake_tool(stale, "print(sys.stdin.read(), end='')\n")
    compiler = fake_tool(tmp_path / "fake-cxx", "sys.exit(0)\n")
    results = _eval_under_compiler(tmp_path, monkeypatch, pairs, compiler)
    for pair, each in zip(pairs, results):
        assert each.outcome.status is RunStatus.COMPILE_ERROR
        assert each.outcome.detail == "compilation failed: the compiler wrote no program"
        assert not (tmp_path / "eval" / "bin" / "zero_shot" / pair.id / "program").exists()



# Exits 1 when it can read a byte from stdin; else writes the file after
# `-o`, as a compiler does, and records its arguments beside itself.
_STDIN_PROBE = (
    "if os.read(0, 1):  # one byte, so a later tool still finds the rest\n"
    "    sys.stderr.write('read the caller\\'s stdin\\n')\n"
    "    sys.exit(1)\n"
    "open(sys.argv[sys.argv.index('-o') + 1], 'w').close()\n"
    "with open(sys.argv[0] + '.args', 'a') as log:\n"
    "    log.write(json.dumps(sys.argv[1:]) + '\\n')\n"
)

# Runs the analyzer and the compiler as the probe, from a process whose stdin
# holds bytes, and prints the analyzer's answer and the compiled path.
_CHILD = (
    "import sys\n"
    "from autopatch.analyzer import AnalyzerConfig, run_analyzer\n"
    "from autopatch.harness import ToolchainConfig, compile_program\n"
    "tool, out = sys.argv[1], sys.argv[2]\n"
    "print(run_analyzer('int main(){}', AnalyzerConfig(binary=tool, extra_flags=('-DX',))))\n"
    "print(compile_program('int main(){}', ToolchainConfig(compiler=tool), out))\n"
)


def test_tools_read_no_stdin(tmp_path):
    # A patch that includes `/dev/stdin` must not compile from whatever the
    # caller's stdin holds; the pipe is closed once written, so a tool that
    # reads it never waits on a terminal.
    probe = fake_tool(tmp_path / "probe", "import json\n" + _STDIN_PROBE)
    env = {**os.environ, "PYTHONPATH": str(Path(autopatch.__file__).parents[1])}
    child = subprocess.run([sys.executable, "-c", _CHILD, str(probe), str(tmp_path / "bin")],
                           input=b"bytes the tools must not see\n", capture_output=True,
                           env=env, timeout=60)

    assert child.returncode == 0, child.stderr.decode("utf-8", "replace")
    assert child.stdout.decode("utf-8").splitlines() == [
        "(0, '')", str(tmp_path / "bin" / "program")]
    # The arguments after argv[0] are those each tool was always given.
    assert [json.loads(line) for line in (tmp_path / "probe.args").read_text().splitlines()] == [
        [*AnalyzerConfig().args, "-DX", "input.cpp", "-o", "out.plist"],
        [str(tmp_path / "bin" / "program.cpp"), "-o", str(tmp_path / "bin" / "program"),
         *ToolchainConfig().flags],
    ]


def test_analyzer_not_on_path():
    config = AnalyzerConfig(binary="definitely-not-a-real-binary")
    with pytest.raises(AutopatchError, match="^analyzer 'definitely-not-a-real-binary' not on PATH$"):
        run_analyzer("int main(){return 0;}", config)


# Writes four times the launcher's stderr cap, then hangs: only the cap
# ends it before its timeout, and a launcher without the cap holds a bounded
# amount until then.
_FLOOD = (
    "import time\n"
    f"for _ in range({4 * TOOL_STDERR_LIMIT // 65536}):\n"
    "    os.write(2, b'x' * 65536)\n"
    "time.sleep(60)\n"
)


def test_a_tool_that_floods_stderr_fails_its_record_or_patch_in_seconds(tmp_path, monkeypatch, pairs,
                                                                        corpus_file):
    # Shorter timeouts, so that a launcher without the cap fails this test
    # rather than hang it for two minutes a tool.
    monkeypatch.setattr(analyzer, "ANALYZER_TIMEOUT_S", 20.0)
    monkeypatch.setattr(harness, "COMPILE_TIMEOUT_S", 20.0)
    flood = fake_tool(tmp_path / "flood", _FLOOD)
    monkeypatch.setenv("AUTOPATCH_ANALYZER_PATH", str(flood))
    ingest = run_ingest(corpus_file, DB_COUNT, SEED, tmp_path / "ingest")
    llm = LlmClient(LlmConfig(), Cassette(tmp_path / "cassette.jsonl"), mode="replay")
    (tmp_path / "eval").mkdir()
    start = time.monotonic()

    # More records than the launcher has slots, one failed analyzer run each.
    result = run_index(ingest.corpus, ingest.split, tmp_path / "index", LocalHashingProvider(), llm)
    compiled = _eval_under_compiler(tmp_path / "eval", monkeypatch, pairs, flood)

    assert time.monotonic() - start < 10
    assert result.indexed_count == 0
    assert [entry["reason"] for entry in result.skipped] == [
        f"analyzer wrote more than {TOOL_STDERR_LIMIT} bytes of stderr"] * DB_COUNT
    assert [(each.outcome.status, each.outcome.detail) for each in compiled] == [
        (RunStatus.COMPILE_ERROR, f"compiler wrote more than {TOOL_STDERR_LIMIT} bytes of stderr")] * 2
    # Every slot is free again, so the next tool starts at once.
    taken = [_io._free_slots.acquire(timeout=1) for _ in range(_io.TOOL_SLOTS)]
    for _ in range(sum(taken)):
        _io._free_slots.release()
    assert taken == [True] * _io.TOOL_SLOTS


def test_a_tool_that_closes_its_stderr_is_still_killed_at_its_timeout(tmp_path):
    tool = fake_tool(tmp_path / "quiet", (
        "import time\n"
        "with open(sys.argv[1], 'w') as out:\n"
        "    out.write(str(os.getpid()))\n"
        "os.close(2)\n"
        "time.sleep(60)\n"
    ))
    start = time.monotonic()
    with pytest.raises(AutopatchError, match=r"^analyzer timed out after 2\.0s$"):
        run_tool("analyzer", str(tool), [str(tmp_path / "pid")], None, 2.0)
    assert time.monotonic() - start < 10
    with pytest.raises(ProcessLookupError):  # killed and reaped
        os.kill(int((tmp_path / "pid").read_text()), 0)


def test_a_tool_s_children_are_killed_with_it_at_its_timeout(tmp_path):
    # As a `g++` killed at its timeout would leave `cc1plus`.
    tool = tmp_path / "forks"
    tool.write_text('#!/bin/sh\nsleep 7 &\necho $! > "$1"\nexec sleep 30\n', encoding="utf-8")
    tool.chmod(0o755)
    with pytest.raises(AutopatchError, match=r"^compiler timed out after 1\.0s$"):
        run_tool("compiler", str(tool), [str(tmp_path / "pid")], None, 1.0)
    assert ended(int((tmp_path / "pid").read_text()))


def test_a_timed_run_that_floods_stdout_is_a_wrong_output_in_seconds(tmp_path):
    # One byte past the cap, then a hang: only the cap ends it before its timeout.
    program = fake_tool(tmp_path / "flood", (
        "import time\n"
        f"for _ in range({harness.RUN_STDOUT_LIMIT >> 20}):\n"
        "    os.write(1, b'x' * (1 << 20))\n"
        "os.write(1, b'x')\n"
        "time.sleep(60)\n"
    ))
    start = time.monotonic()
    outcome = harness.measure_execution(program, [TestCase("", "")], reps=1, timeout_s=20.0)
    assert time.monotonic() - start < 10
    assert outcome == RunOutcome(
        RunStatus.WRONG_OUTPUT, detail=f"testcase 0: wrote more than {harness.RUN_STDOUT_LIMIT} bytes of stdout")


def test_a_timed_run_s_stderr_is_not_read(tmp_path):
    program = fake_tool(tmp_path / "noisy", (
        "for _ in range(64):\n"
        "    os.write(2, b'x' * (1 << 20))\n"
        "print('right')\n"
    ))
    tracemalloc.start()
    try:
        outcome = harness.measure_execution(program, [TestCase("", "right\n")], reps=1, timeout_s=20.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert outcome.status is RunStatus.OK
    assert peak < 4 << 20


def test_a_timed_run_s_output_is_checked_without_a_copy_of_each_line(tmp_path):
    # 4 MiB of short lines: a list of them and their joined copy peaked at 99 MiB.
    program = fake_tool(tmp_path / "lines", "os.write(1, b'12\\n' * ((4 << 20) // 3))\n")
    tracemalloc.start()
    try:
        outcome = harness.measure_execution(program, [TestCase("", "12\n")], reps=1, timeout_s=20.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    shown = "12\n" * 166 + "12"  # the first 500 characters
    assert outcome == RunOutcome(RunStatus.WRONG_OUTPUT, detail=f"testcase 0: expected '12', got {shown!r}")
    assert peak < 16 << 20


def test_a_long_wrong_output_is_quoted_in_part(tmp_path):
    program = fake_tool(tmp_path / "long", "os.write(1, b'x' * (1 << 20))\n")
    outcome = harness.measure_execution(program, [TestCase("", "right\n")], reps=1, timeout_s=20.0)
    assert outcome == RunOutcome(
        RunStatus.WRONG_OUTPUT, detail=f"testcase 0: expected 'right', got {'x' * 500!r}")


def _sequential_eval(split, patch_dir, out_dir, modes, reps, timeout_s, compile_fn, measure_fn):
    """Reference for run_eval's results: every patch scored, compiled and
    timed in turn, one (target, mode) at a time."""
    results = []
    for pair in split.test_set:
        for mode in modes:
            try:
                code = patch_path(patch_dir, mode, pair.id).read_text(encoding="utf-8")
            except (FileNotFoundError, UnicodeDecodeError):
                continue
            lexical = compute_lexical(code, pair.optimized_code)
            try:
                binary = compile_fn(code, None, out_dir / "bin" / mode.value / pair.id)
            except AutopatchError as exc:
                outcome = RunOutcome(RunStatus.COMPILE_ERROR, detail=str(exc))
            else:
                outcome = measure_fn(binary, pair.testcases, reps, timeout_s)
            results.append(EvalResult(pair.id, mode.value, lexical, outcome, pair.labels))
    return aggregate_report(results, parameters={"reps": reps, "timeout_s": timeout_s})


REJECTED = "// the fake compiler rejects this program\n"


class FakeBuild:
    """Stands in for `pipeline.compile_program` and `measure_execution`. A
    compile sleeps `delay(build_dir)` seconds, refuses a source that holds
    REJECTED and otherwise writes the source as its program; a timed run
    reads the program back and takes seconds that depend on that source
    alone, as a real program's would. `events` logs each finished compile as
    `("compiled", source, build_dir)` and each timed run as `("timed",
    program, testcases)`; `peak` is the most compiles in flight at once."""

    def __init__(self, monkeypatch, delay=lambda build_dir: 0.0):
        self.events: list[tuple] = []
        self.peak = 0
        self._active = 0
        self._delay = delay
        self._lock = threading.Lock()
        monkeypatch.setattr(pipeline, "compile_program", self.compile)
        monkeypatch.setattr(pipeline, "measure_execution", self.measure)

    def compile(self, code, toolchain, out_dir):
        out_dir = Path(out_dir)
        with self._lock:
            self._active += 1
            self.peak = max(self.peak, self._active)
        time.sleep(self._delay(out_dir))
        with self._lock:
            self._active -= 1
            self.events.append(("compiled", code, out_dir))
        if REJECTED in code:
            raise AutopatchError("compilation failed: fake compiler rejects this patch")
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "program").write_text(code, encoding="utf-8")
        return out_dir / "program"

    def measure(self, binary, testcases, reps, timeout_s):
        seconds = 0.001 * (1 + zlib.crc32(binary.read_bytes()) % 1000)
        with self._lock:
            self.events.append(("timed", binary, testcases))
        return RunOutcome(RunStatus.OK, per_testcase_times_s=(seconds,) * len(testcases),
                          mean_s=seconds, median_s=seconds)

    def logged(self, kind: str) -> list[tuple]:
        return [event[1:] for event in self.events if event[0] == kind]


def _write_patches(patch_dir: Path, sources: dict[tuple[str, str], str | bytes]) -> None:
    for (record_id, mode), source in sources.items():
        path = patch_path(patch_dir, PromptMode(mode), record_id)
        path.parent.mkdir(parents=True, exist_ok=True)
        if isinstance(source, bytes):
            path.write_bytes(source)
        else:
            path.write_text(source, encoding="utf-8")


def _first_holders(eval_dir: Path, sources: dict[tuple[str, str], str]) -> dict[str, Path]:
    """Each distinct source's build directory: that of the first (target,
    mode) slot that holds it."""
    first: dict[str, Path] = {}
    for (record_id, mode), source in sources.items():
        first.setdefault(source, eval_dir / "bin" / mode / record_id)
    return first


def test_eval_compiles_every_patch_before_timing_any(tmp_path, monkeypatch, pairs):
    test_set = tuple(pairs[:5])
    corpus_path = tmp_path / "pairs.jsonl"
    write_corpus(test_set, corpus_path)
    ingest = run_ingest(corpus_path, 0, SEED, tmp_path / "ingest")
    split = CorpusSplit(database_set=(), test_set=test_set)
    slots = [(pair.id, mode.value) for pair in test_set for mode in ALL_MODES]
    missing = (test_set[1].id, PromptMode.NAIVE.value)
    undecodable = (test_set[2].id, PromptMode.CONTEXT.value)
    uncompilable = (test_set[0].id, PromptMode.CONTEXT.value)
    sources = {
        (pair.id, mode.value): pair.original_code if mode is PromptMode.ZERO_SHOT
        else pair.optimized_code
        for pair in test_set for mode in ALL_MODES
    }
    del sources[missing]
    sources[uncompilable] = REJECTED + sources[uncompilable]  # not the naive patch's source
    sources[undecodable] = b"\xff\xfe"
    _write_patches(tmp_path / "patches", sources)

    def slot_of(build_dir: Path) -> tuple[str, str]:
        return tuple(reversed(build_dir.parts[-2:]))  # (target, mode)

    def slower_first(build_dir: Path) -> float:
        return 0.01 * (len(slots) - slots.index(slot_of(build_dir)))

    fake = FakeBuild(monkeypatch, delay=slower_first)

    result = run_eval(ingest.corpus, split, tmp_path / "patches", tmp_path / "eval", ALL_MODES,
                      reps=2, timeout_s=10.0)

    scored = [slot for slot in slots if slot not in (missing, undecodable)]
    built = _first_holders(tmp_path / "eval", {slot: sources[slot] for slot in scored})
    assert len(built) < len(scored)  # naive and context patches share their sources
    compiled = [slot_of(build_dir) for _, build_dir in fake.logged("compiled")]
    assert sorted(fake.logged("compiled")) == sorted(built.items())  # one compile per source
    assert compiled != [slot_of(build_dir) for build_dir in built.values()]  # finished out of order
    assert fake.peak >= 2
    timed = [slot for slot in scored if slot != uncompilable]
    assert [event[0] for event in fake.events] == ["compiled"] * len(built) + ["timed"] * len(timed)
    assert fake.logged("timed") == [
        (built[sources[slot]] / "program", load_record(ingest.corpus, slot[0]).testcases)
        for slot in timed
    ]

    assert [(r.target_id, r.mode) for r in result.results] == scored
    assert [(f["record_id"], f["mode"]) for f in result.failures] == [missing, undecodable]
    manifest = json.loads((tmp_path / "eval" / pipeline.FAILURES_MANIFEST).read_text())
    assert manifest == result.failures

    reference = _sequential_eval(split, tmp_path / "patches", tmp_path / "reference", ALL_MODES,
                                 2, 10.0, fake.compile, fake.measure)
    assert result.report.to_json_dict() == reference.to_json_dict()


def test_eval_compiles_each_distinct_source_once(tmp_path, monkeypatch, pairs):
    test_set = tuple(pairs[:3])
    corpus_path = tmp_path / "pairs.jsonl"
    write_corpus(test_set, corpus_path)
    ingest = run_ingest(corpus_path, 0, SEED, tmp_path / "ingest")
    split = CorpusSplit(database_set=(), test_set=test_set)
    zero, naive, context = (mode.value for mode in ALL_MODES)
    first, second, third = (pair.id for pair in test_set)
    shared, rejected = test_set[0].original_code, REJECTED + test_set[1].original_code
    sources = {
        (first, zero): shared,
        (first, naive): test_set[0].optimized_code,
        (first, context): test_set[0].optimized_code,  # equal to the naive patch
        (second, zero): shared,  # equal to another target's patch
        (second, naive): test_set[1].optimized_code,
        (second, context): rejected,
        (third, zero): rejected,  # the same uncompilable source
        (third, naive): test_set[2].optimized_code.rstrip("\n"),
        (third, context): test_set[2].optimized_code.rstrip("\n") + "\n",  # one byte more
    }
    _write_patches(tmp_path / "patches", sources)
    fake = FakeBuild(monkeypatch)

    result = run_eval(ingest.corpus, split, tmp_path / "patches", tmp_path / "eval", ALL_MODES,
                      reps=2, timeout_s=10.0)

    built = _first_holders(tmp_path / "eval", sources)
    assert len(built) == 6
    assert sorted(fake.logged("compiled")) == sorted(built.items())
    compiled = [source for source, _ in fake.logged("compiled")]
    assert sources[(third, naive)] in compiled and sources[(third, context)] in compiled
    assert not (tmp_path / "eval" / "bin" / context / first).exists()

    holders = [slot for slot in sources if sources[slot] != rejected]
    assert fake.logged("timed") == [
        (built[sources[slot]] / "program", load_record(ingest.corpus, slot[0]).testcases)
        for slot in holders
    ]
    assert result.failures == []
    assert [(r.target_id, r.mode) for r in result.results] == list(sources)
    ok = [slot for slot, r in zip(sources, result.results) if r.outcome.status is RunStatus.OK]
    assert ok == holders
    refused = [r.outcome for r in result.results if r.outcome.status is RunStatus.COMPILE_ERROR]
    assert refused == [RunOutcome(
        RunStatus.COMPILE_ERROR, detail="compilation failed: fake compiler rejects this patch")] * 2

    reference = _sequential_eval(split, tmp_path / "patches", tmp_path / "reference", ALL_MODES,
                                 2, 10.0, fake.compile, fake.measure)
    assert result.report.to_json_dict() == reference.to_json_dict()
