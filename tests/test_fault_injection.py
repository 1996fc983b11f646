"""Containment under planted faults: the `index` and `optimize` subcommands
run through the CLI on the `dump_graphs` stand-in, against a chat and an
embedding service faked behind `urllib.request.urlopen`, with one fault
planted for each of a few chosen records. Each fault must land in the index
journal or the optimize failures manifest under its own record, every other
record's index rows and patch bytes must equal those of a fault-free run,
and both subcommands must exit 0, as the README says of a run whose failed
records were skipped. The faults include analyzer stderr that is not UTF-8,
through the real `analyzer.run_analyzer`, and an embedding one float short.

An error that is not an AutopatchError, from a provider or a chat transport
that the caller supplies, is not contained: it propagates out of the stage,
which leaves no journal, index, patch or failures manifest behind, and an
existing journal as it was. An interrupt in a pooled call cancels the calls
of the pool that have not started.

`eval` runs through the CLI too, with g++, over patches that each plant one
fault: a compile error, a nonzero exit, wrong output, a timeout, a patch
that is not UTF-8, and a program that deletes its own file, shared by two
modes. Each fault must land under its own (record, mode), every other patch
must run `ok`, and the run must exit 0."""

from __future__ import annotations

import io
import itertools
import json
import time
import urllib.error
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from autopatch import analyzer, pipeline
from autopatch.analyzer import ANALYZER_FLAGS_ENV, ANALYZER_PATH_ENV
from autopatch.cli import EXIT_OK, main
from autopatch.errors import AutopatchError
from autopatch.pipeline import (FAILURES_MANIFEST, INDEX_JOURNAL, patch_path, run_index, run_ingest,
                                run_optimize)
from autopatch.prompting import (LLM_BASE_ENV, LLM_KEY_ENV, LLM_MODEL_ENV, LlmClient, LlmConfig,
                                 PromptMode)
from autopatch.report import aggregate_report
from autopatch.retrieval import EMBED_BASE_ENV, EMBED_KEY_ENV, LOCAL_DIM, LocalHashingProvider

from conftest import DB_COUNT, SEED, requires_gxx
from helpers import index_rows, make_scripted_transport, request_program, write_corpus

# Both services answer on a port of this machine that nothing listens on,
# so a call that missed the fake would be refused, not sent anywhere.
CHAT_URL = "http://127.0.0.1:9/v1"
EMBED_URL = "http://127.0.0.1:9/embed"

# The faults a record can carry, and the text its failure's reason holds.
REASONS = {
    "analyzer": "analyzer exited with 1: input.cpp: error: planted",
    "refused": "service unreachable: [Errno 111] Connection refused",
    "5xx": "service returned 503: chat busy",
    "not-json": "response is not JSON",
    "surrogate": "lone surrogate",
    "no-fence": "response contains no fenced code block",
    "embedding": "service returned 503: embedding busy",
    "stderr": "analyzer exited with 1: input.cpp: error: \ufffdplanted",
    "short": f"dim {LOCAL_DIM - 1} != {LOCAL_DIM}",
}
# A test record's short source vector is a query of the wrong shape.
TARGET_REASONS = {**REASONS, "short": f"query shape ({LOCAL_DIM - 1},) vs index dim {LOCAL_DIM}"}
# A database record's rationale answer needs no fenced block.
DATABASE_FAULTS = sorted(set(REASONS) - {"no-fence"})
# The modes whose patch a test record's fault fails: the analyzer runs for
# context mode alone, and the source is embedded for naive mode alone.
FAILED_MODES = {"analyzer": {PromptMode.CONTEXT}, "stderr": {PromptMode.CONTEXT},
                "embedding": {PromptMode.NAIVE}, "short": {PromptMode.NAIVE}}
ALL_MODES = set(PromptMode)


def _reply(payload: dict | bytes) -> io.BytesIO:
    reply = io.BytesIO(payload if isinstance(payload, bytes) else json.dumps(payload).encode())
    reply.status = 200
    return reply


class FakeServices:
    """The scripted chat service and an embedding service that answers with
    LocalHashingProvider's vectors, behind `urllib.request.urlopen`, and an
    analyzer that wraps the `dump_graphs` stand-in. `plants` maps a
    program's source (stripped) to the fault planted for it: a chat or
    analyzer fault for a request or run about that program, an embedding
    fault for the program's source text. The analyzer on the environment's
    path is a script that fails, writing a byte that is not UTF-8; the
    stand-in runs it for a program planted with "stderr"."""

    def __init__(self, monkeypatch, pairs, tmp_path):
        self.plants: dict[str, str] = {}
        self._chat = make_scripted_transport(pairs)
        self._embedder = LocalHashingProvider()
        self._analyzer = pipeline.extract_cfg
        script = tmp_path / "analyzer-writing-a-bad-byte"
        script.write_text("#!/bin/sh\nprintf 'input.cpp: error: \\377planted\\n' >&2\nexit 1\n")
        script.chmod(0o755)
        monkeypatch.setattr("urllib.request.urlopen", self.urlopen)
        monkeypatch.setattr(pipeline, "extract_cfg", self.extract_cfg)
        monkeypatch.setenv(LLM_BASE_ENV, CHAT_URL)
        monkeypatch.setenv(EMBED_BASE_ENV, EMBED_URL)
        monkeypatch.setenv(ANALYZER_PATH_ENV, str(script))
        for name in (LLM_KEY_ENV, LLM_MODEL_ENV, EMBED_KEY_ENV, ANALYZER_FLAGS_ENV):
            monkeypatch.delenv(name, raising=False)

    def extract_cfg(self, code, config, llm):
        fault = self.plants.get(code.rstrip())
        if fault == "analyzer":
            raise AutopatchError(REASONS["analyzer"])
        if fault == "stderr":
            return analyzer.extract_cfg(code, config, llm)
        return self._analyzer(code, config, llm)

    def urlopen(self, request, timeout):
        payload = json.loads(request.data)
        if request.full_url == EMBED_URL:
            text = payload["input"][0]
            if self.plants.get(text.rstrip()) == "embedding":
                raise urllib.error.HTTPError(EMBED_URL, 503, "busy", {}, io.BytesIO(b"embedding busy"))
            vector = self._embedder.embed(text).tolist()
            if self.plants.get(text.rstrip()) == "short":
                vector = vector[:-1]
            return _reply({"data": [{"embedding": vector}]})
        fault = self.plants.get(request_program(payload))
        if fault == "refused":
            raise ConnectionRefusedError(111, "Connection refused")
        if fault == "5xx":
            raise urllib.error.HTTPError(CHAT_URL, 503, "busy", {}, io.BytesIO(b"chat busy"))
        if fault == "not-json":
            return _reply(b"<html>busy</html>")
        if fault == "surrogate":  # JSON escapes a lone surrogate, which is not text
            return _reply({"choices": [{"message": {"content": "\ud800"}}]})
        if fault == "no-fence":
            return _reply({"choices": [{"message": {"content": "It is fast enough already."}}]})
        return _reply(self._chat(payload))


def _run(out: Path, corpus_file: Path, manifest: Path) -> None:
    """`autopatch index`, then `autopatch optimize` in every mode, both on
    the remote services, into `out`."""
    common = ["--corpus", str(corpus_file), "--split", str(manifest), "--provider", "remote"]
    assert main(["index", *common, "--out", str(out / "index")]) == EXIT_OK
    assert main(["optimize", *common, "--index", str(out / "index"),
                 "--out", str(out / "patches")]) == EXIT_OK


def _patches(patch_dir: Path) -> dict[tuple[str, PromptMode], bytes]:
    return {(path.stem, PromptMode(path.parent.name)): path.read_bytes()
            for path in patch_dir.glob("*/*.cpp")}


def test_each_planted_fault_fails_only_its_record(tmp_path, monkeypatch, pairs, corpus_file,
                                                  dump_graphs):
    services = FakeServices(monkeypatch, pairs, tmp_path)
    ingest = run_ingest(corpus_file, DB_COUNT, SEED, tmp_path / "ingest")
    database, targets = ingest.split.database_set, ingest.split.test_set
    _run(tmp_path / "clean", corpus_file, ingest.manifest_path)
    clean_rows = index_rows(tmp_path / "clean" / "index")
    clean_patches = _patches(tmp_path / "clean" / "patches")
    assert len(clean_patches) == len(targets) * len(ALL_MODES)
    runs = itertools.count()

    # At most three of the seven database records fail, so the index is built.
    @settings(max_examples=25, deadline=None, database=None)
    @given(
        database_plants=st.dictionaries(st.integers(0, len(database) - 1),
                                        st.sampled_from(DATABASE_FAULTS), max_size=3),
        target_plants=st.dictionaries(st.integers(0, len(targets) - 1),
                                      st.sampled_from(sorted(REASONS)), max_size=2),
    )
    @example(database_plants={0: "analyzer", 1: "refused", 2: "embedding"},
             target_plants={0: "no-fence", 1: "embedding"})
    @example(database_plants={3: "5xx", 4: "not-json", 5: "surrogate"},
             target_plants={0: "analyzer", 2: "surrogate"})
    @example(database_plants={}, target_plants={1: "refused", 2: "5xx"})
    @example(database_plants={}, target_plants={0: "not-json"})
    @example(database_plants={1: "short", 2: "stderr"}, target_plants={0: "short", 1: "stderr"})
    def check(database_plants, target_plants):
        # The first record to embed sets each index's dimension, so a short
        # vector there would fail every other record.
        first = min(i for i in range(len(database)) if database_plants.get(i) in (None, "short"))
        assume(database_plants.get(first) != "short")
        planted = {database[i].id: fault for i, fault in database_plants.items()}
        planted.update({targets[i].id: fault for i, fault in target_plants.items()})
        services.plants = {pair.original_code.rstrip(): planted[pair.id]
                           for pair in (*database, *targets) if pair.id in planted}
        out = tmp_path / f"run{next(runs)}"

        _run(out, corpus_file, ingest.manifest_path)

        journal = (out / "index" / INDEX_JOURNAL).read_text(encoding="utf-8").splitlines()
        failed = {e["record_id"]: e["reason"] for e in map(json.loads, journal) if e["status"] != "ok"}
        assert failed.keys() == {database[i].id for i in database_plants}
        for record_id, reason in failed.items():
            assert REASONS[planted[record_id]] in reason, (record_id, reason)
        expected_rows = {kind: {record_id: row for record_id, row in rows.items()
                                if record_id not in failed}
                         for kind, rows in clean_rows.items()}
        assert index_rows(out / "index") == expected_rows

        failures = json.loads((out / "patches" / FAILURES_MANIFEST).read_text(encoding="utf-8"))
        slots = {(f["record_id"], PromptMode(f["mode"])) for f in failures}
        assert slots == {(targets[i].id, mode) for i, fault in target_plants.items()
                         for mode in FAILED_MODES.get(fault, ALL_MODES)}
        for failure in failures:
            assert TARGET_REASONS[planted[failure["record_id"]]] in failure["reason"], failure
        assert _patches(out / "patches") == {slot: code for slot, code in clean_patches.items()
                                             if slot not in slots}

    check()


class Planted(Exception):
    """An error that is not an AutopatchError, raised by code the caller supplies."""


class RaisingProvider:
    def embed(self, text):
        raise Planted("provider")


def _raising_transport(payload):
    raise Planted("transport")


def _clients(pairs, culprit: str | None) -> tuple[object, LlmClient]:
    """The embedding provider and the chat client of a run in which
    `culprit`, "provider" or "transport", raises Planted."""
    transport = _raising_transport if culprit == "transport" else make_scripted_transport(pairs)
    provider = RaisingProvider() if culprit == "provider" else LocalHashingProvider()
    return provider, LlmClient(LlmConfig(), None, "live", transport=transport)


def _files(root: Path) -> dict[str, bytes]:
    return {str(path.relative_to(root)): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


@pytest.mark.parametrize("culprit", ["provider", "transport"])
def test_a_foreign_error_aborts_index_writing_nothing(tmp_path, pairs, corpus_file, dump_graphs,
                                                      culprit):
    ingest = run_ingest(corpus_file, DB_COUNT, SEED, tmp_path / "ingest")
    provider, llm = _clients(pairs, culprit)
    fresh = tmp_path / "fresh"
    with pytest.raises(Planted, match=culprit):
        run_index(ingest.corpus, ingest.split, fresh, provider, llm)
    assert _files(fresh) == {}

    rerun = tmp_path / "rerun"
    run_index(ingest.corpus, ingest.split, rerun, *_clients(pairs, None))
    before = _files(rerun)
    assert INDEX_JOURNAL in before
    with pytest.raises(Planted, match=culprit):
        run_index(ingest.corpus, ingest.split, rerun, provider, llm, resume=False)
    assert _files(rerun) == before


@pytest.mark.parametrize("culprit", ["provider", "transport"])
def test_a_foreign_error_aborts_optimize_writing_nothing(tmp_path, pairs, corpus_file,
                                                         dump_graphs, culprit):
    ingest = run_ingest(corpus_file, DB_COUNT, SEED, tmp_path / "ingest")
    index_dir = tmp_path / "index"
    run_index(ingest.corpus, ingest.split, index_dir, *_clients(pairs, None))
    provider, llm = _clients(pairs, culprit)
    out = tmp_path / "patches"
    with pytest.raises(Planted, match=culprit):
        run_optimize(ingest.corpus, ingest.split, index_dir, out, tuple(PromptMode), llm, provider)
    assert _files(out) == {}


def test_an_interrupt_cancels_the_calls_not_yet_started():
    for workers in (2, 1):
        started = []

        def call(item):
            started.append(item)
            if item == 0:
                raise KeyboardInterrupt
            time.sleep(0.05)

        with pytest.raises(KeyboardInterrupt):
            pipeline._pooled(call, range(20), workers=workers)
        if workers == 1:  # the calls run in turn on this thread, so none follows
            assert started == [0]
        else:
            # The two calls that start at once, and the one a freed worker
            # may take before the queued calls are cancelled.
            assert len(started) <= 3


WRONG_OUTPUT = '#include <cstdio>\nint main() { printf("wrong\\n"); return 0; }\n'
NONZERO_EXIT = "int main() { return 3; }\n"
NEVER_ENDS = "int main() { volatile long x = 0; while (1) { x++; } }\n"


def _self_deleting(pair) -> str:
    """The pair's optimized program, which first removes its own file: its
    untimed warmup run passes, and no later run can start."""
    assert "int main() {" in pair.optimized_code
    return "#include <unistd.h>\n" + pair.optimized_code.replace(
        "int main() {", "int main(int argc, char** argv) {\n    unlink(argv[0]);", 1)


@requires_gxx
def test_eval_contains_one_planted_fault_per_patch(tmp_path, monkeypatch, capsys, pairs):
    corpus = tmp_path / "pairs.jsonl"
    write_corpus(pairs[:4], corpus)
    ingest = run_ingest(corpus, 0, SEED, tmp_path / "ingest")
    a, b, c, clean = ingest.split.test_set
    by_id = {pair.id: pair for pair in ingest.split.test_set}
    planted = {
        (a.id, "zero_shot"): ("int main() { broken !!!", "compile_error", "compilation failed: "),
        (a.id, "naive"): (NONZERO_EXIT, "crash", "testcase 0: exit code 3"),
        (a.id, "context"): (WRONG_OUTPUT, "wrong_output", "testcase 0: expected "),
        (b.id, "zero_shot"): (NEVER_ENDS, "timeout", "testcase 0: exceeded 1.0s"),
        (b.id, "naive"): (b"int main() { return 0; } // \xff\n", None, "patch is not valid UTF-8"),
        # One program, built once for both slots, deletes itself in its
        # first run, so every later run finds it gone.
        (c.id, "zero_shot"): (_self_deleting(c), "crash", "testcase 0: could not start: "),
        (c.id, "naive"): (_self_deleting(c), "crash", "testcase 0: could not start: "),
    }
    patches = tmp_path / "patches"
    slots = {(pair.id, mode.value) for pair in ingest.split.test_set for mode in PromptMode}
    for record_id, mode in slots:
        source = planted.get((record_id, mode), (by_id[record_id].optimized_code,))[0]
        path = patch_path(patches, PromptMode(mode), record_id)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(source if isinstance(source, bytes) else source.encode("utf-8"))
    results = []

    def aggregate(each, parameters):
        results.extend(each)
        return aggregate_report(each, parameters)

    monkeypatch.setattr(pipeline, "aggregate_report", aggregate)

    out = tmp_path / "eval"
    code = main(["eval", "--corpus", str(corpus), "--split", str(ingest.manifest_path),
                 "--patches", str(patches), "--reps", "1", "--timeout", "1", "--out", str(out)])

    # One program, `clean`, is executable under every mode: exit 0.
    assert code == EXIT_OK, capsys.readouterr().err
    outcomes = {(r.target_id, r.mode): r.outcome for r in results}
    failures = json.loads((out / FAILURES_MANIFEST).read_text(encoding="utf-8"))
    assert failures == [{"record_id": b.id, "mode": "naive", "reason": "patch is not valid UTF-8"}]
    assert outcomes.keys() == slots - {(b.id, "naive")}
    for slot, outcome in outcomes.items():
        _, status, detail = planted.get(slot, (None, "ok", ""))
        assert outcome.status.value == status and outcome.detail.startswith(detail), (slot, outcome)
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["common_executable_ids"] == [clean.id]
