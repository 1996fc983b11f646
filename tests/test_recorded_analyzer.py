"""Analyzer answers in the cassette, on the benchmark's stub analyzer (the
`stub_analyzer` fixture), so these run without clang.

Record mode stores each analyzer run's answer beside the chat entries, so
`index --replay` and `optimize --replay` run no analyzer: with the
analyzer's path naming a missing file they write every byte the recording
wrote and leave the cassette as it was. A recorded rejection replays with
its reason; a cassette that holds only chat entries replays by running the
analyzer, with a warning for each miss, and stores nothing; and a cassette entry that holds no answer,
chat or analyzer, fails only its own (target, mode).
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

from autopatch import analyzer, prompting
from autopatch.analyzer import ANALYZER_PATH_ENV
from autopatch.cli import EXIT_OK, main
from autopatch.corpus import split_corpus
from autopatch.pipeline import FAILURES_MANIFEST, run_index, run_ingest, run_optimize
from autopatch.preprocess import preprocess_source
from autopatch.prompting import Cassette, LlmClient, LlmConfig
from autopatch.retrieval import LocalHashingProvider

from conftest import ALL_MODES, DB_COUNT, SEED
from helpers import cassette_keys, make_scripted_transport, write_corpus

REJECTED = "analyzer exited with 1: input.cpp:1:1: error: construct not supported by the analyzer"


def _record(root: Path, pairs) -> tuple[Path, Path, Path]:
    """Write `pairs` as a corpus under `root`, ingest it, and index and
    optimize it in all modes in record mode, into `root/index` and
    `root/patches`. Returns the corpus file, the split manifest and the
    cassette."""
    root.mkdir(parents=True)
    corpus_file = root / "pairs.jsonl"
    write_corpus(pairs, corpus_file)
    ingest = run_ingest(corpus_file, DB_COUNT, SEED, root)
    cassette = root / "cassette.jsonl"
    llm = LlmClient(LlmConfig(), Cassette(cassette), mode="record",
                    transport=make_scripted_transport(pairs))
    provider = LocalHashingProvider()
    run_index(ingest.corpus, ingest.split, root / "index", provider, llm)
    run_optimize(ingest.corpus, ingest.split, root / "index", root / "patches", ALL_MODES, llm,
                 provider)
    return corpus_file, ingest.manifest_path, cassette


def _replay_optimize(out: Path, corpus_file: Path, split: Path, index: Path,
                     cassette: Path) -> None:
    assert main(["optimize", "--corpus", str(corpus_file), "--split", str(split),
                 "--index", str(index), "--mode", "zero-shot,naive,context", "--out", str(out),
                 "--provider", "local", "--replay", "--cassette", str(cassette)]) == EXIT_OK


def _replay(out: Path, corpus_file: Path, split: Path, cassette: Path) -> None:
    """`index --replay`, then `optimize --replay` on that index, into `out`."""
    assert main(["index", "--corpus", str(corpus_file), "--split", str(split),
                 "--out", str(out / "index"), "--provider", "local",
                 "--replay", "--cassette", str(cassette)]) == EXIT_OK
    _replay_optimize(out / "patches", corpus_file, split, out / "index", cassette)


def _outputs(root: Path) -> dict[str, bytes]:
    """Every file the index and optimize stages wrote under `root`: the
    journal, both indexes, every patch and the failures manifest."""
    return {str(path.relative_to(root)): path.read_bytes()
            for stage in ("index", "patches") for path in sorted((root / stage).rglob("*"))
            if path.is_file()}


def _without_analyzer(monkeypatch, tmp_path: Path) -> None:
    monkeypatch.setenv(ANALYZER_PATH_ENV, str(tmp_path / "no-such-analyzer"))


def _rewrite_entries(cassette: Path, change) -> None:
    """Rewrite every cassette entry as `change` returns it."""
    entries = [change(json.loads(line)) for line in cassette.read_text("utf-8").splitlines()]
    cassette.write_text("".join(json.dumps(entry) + "\n" for entry in entries), encoding="utf-8")


def test_replay_runs_no_analyzer_and_writes_what_was_recorded(tmp_path, monkeypatch, pairs,
                                                             stub_analyzer):
    recorded = tmp_path / "recorded"
    corpus_file, split, cassette = _record(recorded, pairs)
    assert len(cassette_keys(cassette, analyzer=True)) == 2 * DB_COUNT + len(pairs) - DB_COUNT
    before = cassette.read_bytes()

    _without_analyzer(monkeypatch, tmp_path)
    _replay(tmp_path / "replayed", corpus_file, split, cassette)

    assert _outputs(tmp_path / "replayed") == _outputs(recorded)
    assert json.loads((recorded / "patches" / FAILURES_MANIFEST).read_text("utf-8")) == []
    assert cassette.read_bytes() == before


def test_recorded_rejection_replays_with_its_reason(tmp_path, monkeypatch, pairs, stub_analyzer):
    split = split_corpus(pairs, DB_COUNT, SEED)
    planted = {split.database_set[0].id, split.test_set[0].id}
    marked = [replace(pair, original_code="// @stub-analyzer-reject\n" + pair.original_code)
              if pair.id in planted else pair for pair in pairs]
    recorded = tmp_path / "recorded"
    corpus_file, split_path, cassette = _record(recorded, marked)

    _without_analyzer(monkeypatch, tmp_path)
    _replay(tmp_path / "replayed", corpus_file, split_path, cassette)

    assert _outputs(tmp_path / "replayed") == _outputs(recorded)
    failures = json.loads((recorded / "patches" / FAILURES_MANIFEST).read_text("utf-8"))
    assert failures == [{"record_id": split.test_set[0].id, "mode": "context", "reason": REJECTED}]
    journal = (recorded / "index" / "index_journal.jsonl").read_text("utf-8")
    assert f'"reason": "{REJECTED}", "record_id": "{split.database_set[0].id}"' in journal


def test_cassette_of_chat_entries_replays_by_running_the_analyzer(tmp_path, monkeypatch, caplog,
                                                                   pairs, stub_analyzer):
    recorded = tmp_path / "recorded"
    corpus_file, split, cassette = _record(recorded, pairs)
    # As a cassette recorded before analyzer answers were stored.
    chat_keys = set(cassette_keys(cassette, analyzer=False))
    analyzer_keys = set(cassette_keys(cassette, analyzer=True))
    lines = cassette.read_text("utf-8").splitlines(keepends=True)
    cassette.write_text("".join(line for line in lines if json.loads(line)["key"] in chat_keys),
                        encoding="utf-8")
    before = cassette.read_bytes()
    run_analyzer = analyzer.run_analyzer
    runs = []

    def counting(code, config):
        runs.append(code)
        return run_analyzer(code, config)

    monkeypatch.setattr(analyzer, "run_analyzer", counting)
    caplog.set_level("WARNING", logger=prompting.logger.name)
    _replay(tmp_path / "replayed", corpus_file, split, cassette)

    assert len(runs) == 2 * DB_COUNT + len(pairs) - DB_COUNT
    misses = [r.getMessage() for r in caplog.records if "running it live" in r.getMessage()]
    assert len(misses) == len(runs)  # one warning per miss, naming its key
    assert {key for key in analyzer_keys if any(key in miss for miss in misses)} == analyzer_keys
    assert _outputs(tmp_path / "replayed") == _outputs(recorded)
    assert cassette.read_bytes() == before


def _first_target(split: Path, pairs):
    target_id = json.loads(split.read_text("utf-8"))["test_ids"][0]
    return next(pair for pair in pairs if pair.id == target_id)


def test_chat_entry_without_a_response_fails_one_patch(tmp_path, pairs, stub_analyzer):
    recorded = tmp_path / "recorded"
    corpus_file, split, cassette = _record(recorded, pairs)
    target = _first_target(split, pairs)

    def drop_zero_shot_response(entry):
        user = entry["request"].get("messages", [{}, {}])[1].get("content", "")
        if target.original_code.rstrip() in user and "## Reference example" not in user:
            del entry["response"]
        return entry

    _rewrite_entries(cassette, drop_zero_shot_response)
    _replay_optimize(tmp_path / "out", corpus_file, split, recorded / "index", cassette)

    failures = json.loads((tmp_path / "out" / FAILURES_MANIFEST).read_text("utf-8"))
    assert [(f["record_id"], f["mode"]) for f in failures] == [(target.id, "zero_shot")]
    assert "malformed chat response" in failures[0]["reason"]


def test_malformed_recorded_analyzer_answer_fails_one_patch(tmp_path, pairs, stub_analyzer):
    recorded = tmp_path / "recorded"
    corpus_file, split, cassette = _record(recorded, pairs)
    target = _first_target(split, pairs)
    source = preprocess_source(target.original_code).output_code

    def break_target_answer(entry):
        if entry["request"].get("source") == source:
            entry["response"] = {"returncode": "0", "stderr": entry["response"]["stderr"]}
        return entry

    _rewrite_entries(cassette, break_target_answer)
    _replay_optimize(tmp_path / "out", corpus_file, split, recorded / "index", cassette)

    failures = json.loads((tmp_path / "out" / FAILURES_MANIFEST).read_text("utf-8"))
    assert [(f["record_id"], f["mode"]) for f in failures] == [(target.id, "context")]
    assert failures[0]["reason"].startswith("malformed analyzer answer: ")
