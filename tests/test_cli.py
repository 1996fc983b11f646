from __future__ import annotations

import argparse
import errno
import gc
import hashlib
import itertools
import json
import os
import shutil
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from autopatch import pipeline
from autopatch.analyzer import ANALYZER_FLAGS_ENV
from autopatch.cli import EXIT_NO_COMMON_SET, EXIT_OK, EXIT_USAGE, main
from autopatch.corpus import ID_MAX_BYTES, load_split, parse_record
from autopatch.errors import AutopatchError
from autopatch.pipeline import INDEX_JOURNAL, run_index, run_ingest, run_optimize
from autopatch.prompting import OPTIMIZER_SYSTEM_TEXT, Cassette, LlmClient, LlmConfig, PromptMode, build_prompt
from autopatch.retrieval import IndexRecord, LocalHashingProvider, SourceKind, build_index

from conftest import DB_COUNT, SEED, requires_gxx
from helpers import fake_tool, fixture_pairs, make_scripted_transport, record_to_json, write_corpus


def run_cli(*args: str) -> int:
    try:
        return main(list(args))
    except SystemExit as exc:  # argparse errors exit directly
        return int(exc.code)


def test_ingest_writes_manifest_with_split_counts(corpus_file, tmp_path, capsys):
    code = run_cli(
        "ingest", "--corpus", str(corpus_file), "--db-count", "7", "--seed", "7",
        "--out", str(tmp_path),
    )
    assert code == EXIT_OK
    manifest = json.loads((tmp_path / "split.json").read_text())
    assert len(manifest["database_ids"]) == 7
    assert len(manifest["test_ids"]) == 3
    assert not set(manifest["database_ids"]) & set(manifest["test_ids"])
    assert "ingested 10 pair(s)" in capsys.readouterr().out


def test_ingest_skips_a_line_that_is_not_utf8(corpus_file, tmp_path, capsys):
    lines = corpus_file.read_bytes().splitlines(keepends=True)
    damaged = tmp_path / "pairs.jsonl"
    damaged.write_bytes(lines[0] + b"\xff\n" + b"".join(lines[1:]))
    assert run_cli("ingest", "--corpus", str(damaged), "--db-count", "7",
                   "--out", str(tmp_path / "ingest")) == EXIT_OK
    out, err = capsys.readouterr()
    assert "ingested 10 pair(s); 1 bad line(s)" in out
    assert "skipped line 2: line 2: invalid JSON: 'utf-8' codec can't decode byte 0xff" in err


def test_ingest_rerun_is_byte_identical(corpus_file, tmp_path):
    for name in ("a", "b"):
        assert run_cli(
            "ingest", "--corpus", str(corpus_file), "--db-count", "7", "--seed", "7",
            "--out", str(tmp_path / name),
        ) == EXIT_OK
    first = (tmp_path / "a" / "split.json").read_bytes()
    second = (tmp_path / "b" / "split.json").read_bytes()
    assert first == second


def test_main_leaves_no_parser_garbage(corpus_file, tmp_path):
    argv = ("ingest", "--corpus", str(corpus_file), "--db-count", "7", "--out", str(tmp_path))
    assert run_cli(*argv) == EXIT_OK  # the first call may build what later calls reuse
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert run_cli(*argv) == EXIT_OK
        gc.collect()
        parsers = [obj for obj in gc.garbage if isinstance(obj, argparse.ArgumentParser)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert parsers == []


def test_ingest_missing_file_exits_2(tmp_path, capsys):
    code = run_cli(
        "ingest", "--corpus", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path)
    )
    assert code == EXIT_USAGE
    assert "not found" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["ingest", "optimize", "eval"])
def test_an_io_error_exits_2_naming_the_path(tmp_path, capsys, corpus_file, command):
    # `ingest` writes under a path inside a file; the others read a directory as a split.
    if command == "ingest":
        culprit = corpus_file / "x"
        argv = ["ingest", "--corpus", str(corpus_file), "--db-count", "7", "--out", str(culprit)]
    else:
        culprit = tmp_path / "split"
        culprit.mkdir()
        argv = [command, "--corpus", str(corpus_file), "--split", str(culprit),
                "--out", str(tmp_path / "out"),
                *(["--index", str(tmp_path)] if command == "optimize" else
                  ["--patches", str(tmp_path)])]
    assert run_cli(*argv) == EXIT_USAGE
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error: ")]
    assert len(errors) == 1 and str(culprit) in errors[0], err
    assert "Traceback" not in err


def test_ingest_lenient_skips_bad_lines(tmp_path, capsys):
    path = tmp_path / "c.jsonl"
    good = json.dumps({
        "id": "ok1", "problem_id": "p", "original_code": "int main(){}",
        "optimized_code": "int main(){}", "labels": [], "testcases": [],
    })
    path.write_text(good + "\nthis is not json\n", encoding="utf-8")
    code = run_cli(
        "ingest", "--corpus", str(path), "--db-count", "1", "--seed", "1",
        "--out", str(tmp_path / "out"),
    )
    assert code == EXIT_OK
    captured = capsys.readouterr()
    assert "1 bad line(s)" in captured.out
    assert "skipped line 2" in captured.err


def test_ingest_strict_mode_aborts(tmp_path, capsys):
    path = tmp_path / "c.jsonl"
    path.write_text("broken\n", encoding="utf-8")
    code = run_cli(
        "ingest", "--corpus", str(path), "--strict", "--db-count", "0",
        "--seed", "1", "--out", str(tmp_path / "out"),
    )
    assert code == EXIT_USAGE


def test_unknown_mode_rejected(corpus_file, tmp_path):
    code = run_cli(
        "optimize", "--corpus", str(corpus_file), "--split", "x", "--index", "y",
        "--mode", "clairvoyant", "--out", str(tmp_path),
    )
    assert code == EXIT_USAGE


def test_eval_without_patches_exits_3_with_empty_report(corpus_file, tmp_path, capsys):
    assert run_cli(
        "ingest", "--corpus", str(corpus_file), "--db-count", "7", "--seed", "7",
        "--out", str(tmp_path / "ingest"),
    ) == EXIT_OK
    (tmp_path / "patches").mkdir()
    code = run_cli(
        "eval",
        "--corpus", str(corpus_file),
        "--split", str(tmp_path / "ingest" / "split.json"),
        "--patches", str(tmp_path / "patches"),
        "--reps", "1", "--timeout", "5",
        "--out", str(tmp_path / "eval"),
    )
    assert code == EXIT_NO_COMMON_SET
    assert "no common executable set" in capsys.readouterr().err
    report = json.loads((tmp_path / "eval" / "report.json").read_text())
    assert report["modes"] == {}
    assert report["evaluated_count"] == 0
    assert report["common_executable_ids"] == []
    assert report["parameters"]["no_common_executable_set"] is True
    assert "common executable set: 0 program(s)" in (tmp_path / "eval" / "report.txt").read_text()
    test_ids = json.loads((tmp_path / "ingest" / "split.json").read_text())["test_ids"]
    failures = json.loads((tmp_path / "eval" / "failures.json").read_text())
    assert failures == [
        {"record_id": target_id, "mode": mode, "reason": "patch missing"}
        for target_id in test_ids
        for mode in ("zero_shot", "naive", "context")
    ]


@requires_gxx
def test_replay_with_live_llm_env_fails_fast(recorded_workspace, tmp_path, monkeypatch):
    monkeypatch.setenv("AUTOPATCH_LLM_BASE", "http://live-service")
    code = run_cli(
        "index",
        "--corpus", str(recorded_workspace.corpus_file),
        "--split", str(recorded_workspace.split_manifest),
        "--out", str(tmp_path),
        "--replay", "--cassette", str(recorded_workspace.cassette),
    )
    assert code == EXIT_USAGE


@requires_gxx
def test_replay_with_remote_provider_fails_fast(recorded_workspace, tmp_path, monkeypatch):
    monkeypatch.delenv("AUTOPATCH_LLM_BASE", raising=False)
    code = run_cli(
        "index",
        "--corpus", str(recorded_workspace.corpus_file),
        "--split", str(recorded_workspace.split_manifest),
        "--out", str(tmp_path),
        "--provider", "remote",
        "--replay", "--cassette", str(recorded_workspace.cassette),
    )
    assert code == EXIT_USAGE


@requires_gxx
def test_replay_requires_cassette(recorded_workspace, tmp_path, monkeypatch):
    monkeypatch.delenv("AUTOPATCH_LLM_BASE", raising=False)
    code = run_cli(
        "index",
        "--corpus", str(recorded_workspace.corpus_file),
        "--split", str(recorded_workspace.split_manifest),
        "--out", str(tmp_path),
        "--replay",
    )
    assert code == EXIT_USAGE


@requires_gxx
@pytest.mark.parametrize("command", ["index", "optimize"])
def test_cassette_without_record_or_replay_exits_2(recorded_workspace, tmp_path, monkeypatch, capsys,
                                                   command):
    # A live run neither reads nor writes a cassette, so naming one is a mistake.
    monkeypatch.delenv("AUTOPATCH_LLM_BASE", raising=False)
    cassette = tmp_path / "cassette.jsonl"
    options = {"index": (), "optimize": ("--index", str(recorded_workspace.record_dir / "index"),
                                         "--mode", "zero-shot")}[command]
    assert run_cli(
        command,
        "--corpus", str(recorded_workspace.corpus_file),
        "--split", str(recorded_workspace.split_manifest),
        "--out", str(tmp_path / "out"),
        "--cassette", str(cassette),
        *options,
    ) == EXIT_USAGE
    assert "error: --cassette needs --record or --replay" in capsys.readouterr().err
    assert not cassette.exists()
    assert not (tmp_path / "out").exists()


@requires_gxx
def test_index_replay_builds_both_indexes(recorded_workspace, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("AUTOPATCH_LLM_BASE", raising=False)
    code = run_cli(
        "index",
        "--corpus", str(recorded_workspace.corpus_file),
        "--split", str(recorded_workspace.split_manifest),
        "--out", str(tmp_path),
        "--replay", "--cassette", str(recorded_workspace.cassette),
    )
    assert code == EXIT_OK
    assert "indexed 7 record(s)" in capsys.readouterr().out
    for name in ("index_cfg.jsonl", "index_cfg.jsonl.vec",
                 "index_source.jsonl", "index_source.jsonl.vec", INDEX_JOURNAL):
        assert (tmp_path / name).exists()
    header = json.loads((tmp_path / "index_cfg.jsonl").read_text().splitlines()[0])
    assert header["count"] == 7


@requires_gxx
def test_index_rerun_byte_stable(recorded_workspace, tmp_path, monkeypatch):
    monkeypatch.delenv("AUTOPATCH_LLM_BASE", raising=False)
    for name in ("a", "b"):
        assert run_cli(
            "index",
            "--corpus", str(recorded_workspace.corpus_file),
            "--split", str(recorded_workspace.split_manifest),
            "--out", str(tmp_path / name),
            "--replay", "--cassette", str(recorded_workspace.cassette),
        ) == EXIT_OK
    for name in ("index_cfg.jsonl", "index_cfg.jsonl.vec",
                 "index_source.jsonl", "index_source.jsonl.vec", INDEX_JOURNAL):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


INDEX_FILES = ("index_cfg.jsonl", "index_cfg.jsonl.vec",
               "index_source.jsonl", "index_source.jsonl.vec", INDEX_JOURNAL)


def _record_index_cassette(tmp_path, pairs, corpus_file):
    """Ingest the fixture corpus and record the index stage's rationale
    calls, so that `index --replay` can run offline."""
    ingest = run_ingest(corpus_file, DB_COUNT, SEED, tmp_path / "ingest")
    cassette = tmp_path / "cassette.jsonl"
    recorder = LlmClient(LlmConfig(), Cassette(cassette), mode="record",
                         transport=make_scripted_transport(pairs))
    run_index(ingest.corpus, ingest.split, tmp_path / "recorded", LocalHashingProvider(), recorder)
    return ingest, cassette


def test_index_cli_resumes_from_journal(tmp_path, monkeypatch, capsys, pairs, corpus_file,
                                        dump_graphs):
    monkeypatch.delenv("AUTOPATCH_LLM_BASE", raising=False)
    ingest, cassette = _record_index_cassette(tmp_path, pairs, corpus_file)

    stub = pipeline.extract_cfg
    analyzed = []

    def counting_stub(code, config, llm):
        analyzed.append(code)
        return stub(code, config, llm)

    monkeypatch.setattr(pipeline, "extract_cfg", counting_stub)
    out = tmp_path / "index"

    def index(*extra: str) -> tuple[int, dict[str, bytes]]:
        analyzed.clear()
        assert run_cli(
            "index", "--corpus", str(corpus_file), "--split", str(ingest.manifest_path),
            "--out", str(out), "--replay", "--cassette", str(cassette), *extra,
        ) == EXIT_OK
        assert f"indexed {DB_COUNT} record(s); skipped 0" in capsys.readouterr().out
        return len(analyzed), {name: (out / name).read_bytes() for name in INDEX_FILES}

    calls, first = index()
    assert calls == 2 * DB_COUNT  # both sides of every record
    assert index() == (0, first)  # every journaled record is ok, so none is redone
    assert index("--no-resume") == (2 * DB_COUNT, first)


def _journal_lines(out) -> dict[str, str]:
    return {json.loads(line)["record_id"]: line
            for line in (out / INDEX_JOURNAL).read_text(encoding="utf-8").splitlines()}


_PREPARE_RECORD = pipeline._prepare_record


def _index_counting_prepared(monkeypatch, corpus_path, root, out, pairs) -> list[str]:
    """Ingest `corpus_path` into `root` and index it into `out`, live on the
    stub analyzer; returns the sorted ids of the records that were prepared,
    not reused from the journal."""
    prepared = []

    def counting(pair, llm, config):
        prepared.append(pair.id)
        return _PREPARE_RECORD(pair, llm, config)

    monkeypatch.setattr(pipeline, "_prepare_record", counting)
    ingest = run_ingest(corpus_path, DB_COUNT, SEED, root)
    llm = LlmClient(LlmConfig(), None, mode="live", transport=make_scripted_transport(pairs))
    run_index(ingest.corpus, ingest.split, out, LocalHashingProvider(), llm)
    return sorted(prepared)


def test_index_prepares_an_edited_record_again(tmp_path, monkeypatch, pairs, corpus_file,
                                               stub_analyzer):
    out = tmp_path / "index"
    first = _index_counting_prepared(monkeypatch, corpus_file, tmp_path / "a", out, pairs)
    assert len(first) == DB_COUNT
    before = _journal_lines(out)

    edited_id = list(before)[2]
    edited = [replace(pair, original_code="// edited\n" + pair.original_code)
              if pair.id == edited_id else pair for pair in pairs]
    write_corpus(edited, tmp_path / "edited.jsonl")
    again = _index_counting_prepared(monkeypatch, tmp_path / "edited.jsonl", tmp_path / "b", out,
                                     edited)

    assert again == [edited_id]  # the others are reused by their key
    after = _journal_lines(out)
    assert {i for i in after if after[i] != before[i]} == {edited_id}
    assert json.loads(after[edited_id])["key"] != json.loads(before[edited_id])["key"]


def test_index_prepares_every_record_again_under_other_analyzer_flags(tmp_path, monkeypatch,
                                                                      pairs, corpus_file,
                                                                      stub_analyzer):
    out = tmp_path / "index"
    first = _index_counting_prepared(monkeypatch, corpus_file, tmp_path, out, pairs)
    assert len(first) == DB_COUNT
    assert _index_counting_prepared(monkeypatch, corpus_file, tmp_path, out, pairs) == []

    monkeypatch.setenv(ANALYZER_FLAGS_ENV, "-DAUTOPATCH_FLAGS_CHANGED")
    assert _index_counting_prepared(monkeypatch, corpus_file, tmp_path, out, pairs) == first


def test_index_prepares_a_journal_entry_without_a_key_again(tmp_path, monkeypatch, pairs,
                                                            corpus_file, stub_analyzer):
    out = tmp_path / "index"
    _index_counting_prepared(monkeypatch, corpus_file, tmp_path, out, pairs)
    lines = _journal_lines(out)
    older_id = next(iter(lines))
    entry = json.loads(lines[older_id])
    del entry["key"]  # as a journal written before entries had keys
    lines[older_id] = json.dumps(entry, sort_keys=True, ensure_ascii=False)
    (out / INDEX_JOURNAL).write_text("".join(line + "\n" for line in lines.values()),
                                     encoding="utf-8")

    assert _index_counting_prepared(monkeypatch, corpus_file, tmp_path, out, pairs) == [older_id]
    assert "key" in json.loads(_journal_lines(out)[older_id])


def _rerun_index_on_a_damaged_journal(tmp_path, monkeypatch, caplog, pairs, corpus_file,
                                      damage, skipped_line: int) -> None:
    """Run `index`, rewrite its journal's lines with `damage` and run it
    again: the rerun warns that it skips the journal's `skipped_line`, and
    its files equal the first run's."""
    monkeypatch.delenv("AUTOPATCH_LLM_BASE", raising=False)
    ingest, cassette = _record_index_cassette(tmp_path, pairs, corpus_file)
    out = tmp_path / "index"
    argv = ("index", "--corpus", str(corpus_file), "--split", str(ingest.manifest_path),
            "--out", str(out), "--replay", "--cassette", str(cassette))

    assert run_cli(*argv) == EXIT_OK
    first = {name: (out / name).read_bytes() for name in INDEX_FILES}
    (out / INDEX_JOURNAL).write_bytes(b"".join(damage(first[INDEX_JOURNAL].splitlines(keepends=True))))

    with caplog.at_level("WARNING", logger="autopatch.pipeline"):
        assert run_cli(*argv) == EXIT_OK
    assert f"{out / INDEX_JOURNAL}:{skipped_line}: skipping" in caplog.text
    assert {name: (out / name).read_bytes() for name in INDEX_FILES} == first


def test_index_cli_resumes_past_a_torn_journal_line(tmp_path, monkeypatch, caplog, pairs,
                                                    corpus_file, dump_graphs):
    def tear_last_line(journal):  # what a crash mid-write leaves
        return journal[:-1] + [journal[-1][: len(journal[-1]) // 2]]

    _rerun_index_on_a_damaged_journal(tmp_path, monkeypatch, caplog, pairs, corpus_file,
                                      tear_last_line, skipped_line=DB_COUNT)


def test_index_cli_redoes_an_ok_journal_entry_without_its_fields(tmp_path, monkeypatch, caplog,
                                                                 pairs, corpus_file, dump_graphs):
    def strip_first_entry(journal):
        record_id = json.loads(journal[0])["record_id"]
        return [json.dumps({"record_id": record_id, "status": "ok"}).encode() + b"\n"] + journal[1:]

    _rerun_index_on_a_damaged_journal(tmp_path, monkeypatch, caplog, pairs, corpus_file,
                                      strip_first_entry, skipped_line=1)


def test_index_cli_redoes_a_journal_entry_that_is_not_unicode(tmp_path, monkeypatch, caplog,
                                                               pairs, corpus_file, dump_graphs):
    def escape_a_lone_surrogate(journal):  # JSON can escape one; no text file can hold it
        entry = json.loads(journal[0])
        return [json.dumps({**entry, "rationale": "\ud800"}).encode() + b"\n"] + journal[1:]

    _rerun_index_on_a_damaged_journal(tmp_path, monkeypatch, caplog, pairs, corpus_file,
                                      escape_a_lone_surrogate, skipped_line=1)


def test_index_journal_rewrite_that_fails_keeps_the_previous_journal(tmp_path, monkeypatch,
                                                                      pairs, corpus_file,
                                                                      dump_graphs):
    monkeypatch.delenv("AUTOPATCH_LLM_BASE", raising=False)
    ingest, cassette = _record_index_cassette(tmp_path, pairs, corpus_file)
    out = tmp_path / "index"
    assert run_cli("index", "--corpus", str(corpus_file), "--split", str(ingest.manifest_path),
                   "--out", str(out), "--replay", "--cassette", str(cassette)) == EXIT_OK
    journal = (out / INDEX_JOURNAL).read_bytes()

    prepare = pipeline._prepare_record
    second_id = ingest.split.database_set[1].id

    def unwritable_second_entry(pair, llm, config):  # its journal line cannot be encoded
        entry = prepare(pair, llm, config)
        return {**entry, "rationale": "\ud800"} if pair.id == second_id else entry

    monkeypatch.setattr(pipeline, "_prepare_record", unwritable_second_entry)
    replayer = LlmClient(LlmConfig(), Cassette(cassette), mode="replay")
    with pytest.raises(UnicodeEncodeError):
        run_index(ingest.corpus, ingest.split, out, LocalHashingProvider(), replayer, resume=False)
    assert (out / INDEX_JOURNAL).read_bytes() == journal


@requires_gxx
def test_each_contained_failure_is_told_once(tmp_path, monkeypatch, capsys, caplog, pairs,
                                             corpus_file, dump_graphs):
    # One planted failure a stage: the stage's result carries it and the CLI
    # prints it, so neither a log record nor a second stderr line repeats it.
    monkeypatch.delenv("AUTOPATCH_LLM_BASE", raising=False)
    caplog.set_level("INFO")
    ingest, cassette = _record_index_cassette(tmp_path, pairs, corpus_file)
    skipped = ingest.split.database_set[0]
    failed, unreadable = (pair.id for pair in ingest.split.test_set[:2])
    stub = pipeline.extract_cfg

    def analyzer(code, config, llm):
        if code == skipped.original_code:
            raise AutopatchError("planted analyzer failure")
        return stub(code, config, llm)

    def chat(prompt_text, llm):
        target = next(pair for pair in ingest.split.test_set if pair.original_code.rstrip() in prompt_text)
        if target.id == failed:
            raise AutopatchError("planted chat failure")
        return target.original_code

    monkeypatch.setattr(pipeline, "extract_cfg", analyzer)
    monkeypatch.setattr(pipeline, "generate_patch", chat)
    split, index, patches = str(ingest.manifest_path), tmp_path / "index", tmp_path / "patches"
    service = ("--replay", "--cassette", str(cassette))
    assert run_cli("index", "--corpus", str(corpus_file), "--split", split, "--out", str(index),
                   *service) == EXIT_OK
    assert run_cli("optimize", "--corpus", str(corpus_file), "--split", split, "--index", str(index),
                   "--mode", "zero-shot", "--out", str(patches), *service) == EXIT_OK
    (patches / "zero_shot" / f"{unreadable}.cpp").write_bytes(b"\xff\n")
    run_cli("eval", "--corpus", str(corpus_file), "--split", split, "--patches", str(patches),
            "--mode", "zero-shot", "--reps", "1", "--timeout", "5", "--out", str(tmp_path / "eval"))

    err = capsys.readouterr().err
    told = err + "".join(record.getMessage() + "\n" for record in caplog.records)
    for reason in ("planted analyzer failure", "planted chat failure", "patch missing",
                   "patch is not valid UTF-8"):
        assert told.count(reason) == 1, (reason, told)
    assert f"  skipped {skipped.id}: planted analyzer failure\n" in err
    assert f"  failed zero_shot/{failed}: planted chat failure\n" in err
    assert f"  not scored zero_shot/{failed}: patch missing\n" in err
    assert f"  not scored zero_shot/{unreadable}: patch is not valid UTF-8\n" in err


def test_malformed_split_manifest_exits_2(tmp_path, capsys, corpus_file):
    # An id listed twice, or in both sets, would let a target retrieve itself.
    twice = json.dumps({"database_ids": ["p01", "p02", "p01"], "test_ids": ["p03"]})
    both = json.dumps({"database_ids": ["p01", "p02"], "test_ids": ["p03", "p02"]})
    for name, text in (("torn.json", "{"), ("empty.json", "{}"), ("list.json", "[]"),
                       ("twice.json", twice), ("both.json", both)):
        manifest = tmp_path / name
        manifest.write_text(text, encoding="utf-8")
        assert run_cli(
            "eval", "--corpus", str(corpus_file), "--split", str(manifest),
            "--patches", str(tmp_path / "patches"), "--out", str(tmp_path / "eval"),
        ) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"error: {manifest}: malformed split manifest: " in err
        assert "Traceback" not in err
        if name == "twice.json":
            assert "ValueError: id listed twice: 'p01'" in err
        elif name == "both.json":
            assert "ValueError: id listed twice: 'p02'" in err
        assert not (tmp_path / "eval").exists()  # rejected before any work


def test_split_naming_an_unknown_id_exits_2(tmp_path, capsys, corpus_file):
    # The manifest gives no span for p99, so the corpus cannot be read for it.
    manifest = tmp_path / "split.json"
    digest = hashlib.sha256(corpus_file.read_bytes()).hexdigest()
    manifest.write_text(json.dumps({"corpus_sha256": digest, "database_ids": [],
                                    "test_ids": ["p99"], "spans": {}}), encoding="utf-8")
    assert run_cli(
        "eval", "--corpus", str(corpus_file), "--split", str(manifest),
        "--patches", str(tmp_path / "patches"), "--out", str(tmp_path / "eval"),
    ) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"error: {manifest}: malformed split manifest: KeyError: 'p99'" in err
    assert "Traceback" not in err


def _ingested_copy(tmp_path, corpus_file):
    """A copy of the corpus, ingested: its path and the split manifest's."""
    corpus = tmp_path / "pairs.jsonl"
    corpus.write_bytes(corpus_file.read_bytes())
    return corpus, run_ingest(corpus, DB_COUNT, SEED, tmp_path / "ingest").manifest_path


def test_corpus_changed_since_ingest_exits_2(tmp_path, capsys, corpus_file):
    corpus, manifest = _ingested_copy(tmp_path, corpus_file)
    data = corpus.read_bytes()
    for changed in (data + b"\n",                     # a line added, every span still in place
                    data.replace(b"int main", b"int  main", 1)):  # one record edited
        corpus.write_bytes(changed)
        assert run_cli(
            "eval", "--corpus", str(corpus), "--split", str(manifest),
            "--patches", str(tmp_path / "patches"), "--out", str(tmp_path / "eval"),
        ) == EXIT_USAGE
        err = capsys.readouterr().err
        assert (f"error: {corpus}: the corpus has changed since {manifest} was written;"
                f" run `autopatch ingest` again") in err
        assert "Traceback" not in err
        assert not (tmp_path / "eval").exists()


def test_split_span_outside_the_corpus_exits_2(tmp_path, capsys, corpus_file):
    corpus, manifest = _ingested_copy(tmp_path, corpus_file)
    size = corpus.stat().st_size
    original = json.loads(manifest.read_text(encoding="utf-8"))
    target = original["test_ids"][0]
    malformed = f"error: {manifest}: malformed split manifest: "
    for span, expected in (
        ([size - 5, size + 10], f"{malformed}ValueError: span [{size - 5}, {size + 10}] of"
                                f" {target!r} is not within the corpus's {size} bytes"),
        ([7, 7], f"{malformed}ValueError: span [7, 7]"),
        ([0, 1.5], f"{malformed}TypeError: "),
        ([0], f"{malformed}ValueError: "),
        # Within the file, but not a record's line: found when the record is read.
        ([1, 20], f"error: {corpus}: line 1 holds no record at the split manifest's span [1, 20]"),
    ):
        edited = {**original, "spans": {**original["spans"], target: span}}
        manifest.write_text(json.dumps(edited), encoding="utf-8")
        assert run_cli(
            "eval", "--corpus", str(corpus), "--split", str(manifest),
            "--patches", str(tmp_path / "patches"), "--out", str(tmp_path / "eval"),
        ) == EXIT_USAGE
        err = capsys.readouterr().err
        assert expected in err
        assert "Traceback" not in err


def _rotated_split(recorded, tmp_path, listed: str) -> tuple:
    """A copy of the recorded split manifest in which each id of the set
    `listed` has the next one's span, so that no span of that set holds the
    record listed at it; its path, and the error that reading that set's
    first record gives."""
    manifest = json.loads(recorded.split_manifest.read_text(encoding="utf-8"))
    ids, spans = manifest[listed], manifest["spans"]
    manifest["spans"] = {**spans, **{a: spans[b] for a, b in zip(ids, ids[1:] + ids[:1])}}
    path = tmp_path / "rotated.json"
    path.write_text(json.dumps(manifest), encoding="utf-8")
    start, end = spans[ids[1]]
    line_no = recorded.corpus_file.read_bytes().count(b"\n", 0, start) + 1
    return path, (f"error: {recorded.corpus_file}: line {line_no} holds record {ids[1]!r},"
                  f" not {ids[0]!r}, at the split manifest's span [{start}, {end}]\n")


@requires_gxx
@pytest.mark.parametrize("command,listed", [("index", "database_ids"), ("optimize", "test_ids"),
                                            ("eval", "test_ids")])
def test_a_set_read_whole_with_a_span_of_another_record_exits_2(recorded_workspace, tmp_path,
                                                                 monkeypatch, capsys, command, listed):
    monkeypatch.delenv("AUTOPATCH_LLM_BASE", raising=False)
    split, error = _rotated_split(recorded_workspace, tmp_path, listed)
    replay = ("--replay", "--cassette", str(recorded_workspace.cassette))
    options = {
        "index": replay,
        "optimize": ("--index", str(recorded_workspace.record_dir / "index"), *replay),
        "eval": ("--patches", str(recorded_workspace.record_dir / "patches")),
    }[command]
    assert run_cli(command, "--corpus", str(recorded_workspace.corpus_file), "--split", str(split),
                   "--out", str(tmp_path / "out"), *options) == EXIT_USAGE
    assert capsys.readouterr().err == error


@requires_gxx
def test_an_example_with_a_span_of_another_record_fails_only_its_mode(recorded_workspace, tmp_path,
                                                                      monkeypatch, capsys):
    monkeypatch.delenv("AUTOPATCH_LLM_BASE", raising=False)
    split, _ = _rotated_split(recorded_workspace, tmp_path, "database_ids")
    assert run_cli(
        "optimize", "--corpus", str(recorded_workspace.corpus_file), "--split", str(split),
        "--index", str(recorded_workspace.record_dir / "index"), "--mode", "zero-shot,naive",
        "--out", str(tmp_path / "out"), "--replay", "--cassette", str(recorded_workspace.cassette),
    ) == EXIT_OK
    test_ids = json.loads(split.read_text(encoding="utf-8"))["test_ids"]
    failures = json.loads((tmp_path / "out" / "failures.json").read_text(encoding="utf-8"))
    assert [(f["record_id"], f["mode"]) for f in failures] == [(t, "naive") for t in test_ids]
    assert all(f"{recorded_workspace.corpus_file}: line " in f["reason"] and " holds record " in f["reason"]
               for f in failures)
    assert sorted(path.stem for path in (tmp_path / "out" / "zero_shot").iterdir()) == sorted(test_ids)


def test_damaged_index_exits_2_naming_the_file(tmp_path, capsys, corpus_file):
    ingest = run_ingest(corpus_file, DB_COUNT, SEED, tmp_path / "ingest")
    metadata = pipeline.index_path(tmp_path / "index", SourceKind.RAW_SOURCE)
    records = [IndexRecord(pair, f"Δ diff of {pair.id}", f"rationale of {pair.id}", "")
               for pair in ingest.split.database_set]
    build_index(records, LocalHashingProvider(), SourceKind.RAW_SOURCE, metadata)
    vectors = metadata.with_name(metadata.name + ".vec")
    saved = {path: path.read_bytes() for path in (metadata, vectors)}
    header, rows = saved[metadata].split(b"\n", 1)

    def optimize() -> tuple[int, str]:  # replay from an empty cassette: every patch misses
        code = run_cli("optimize", "--corpus", str(corpus_file), "--split", str(ingest.manifest_path),
                       "--index", str(tmp_path / "index"), "--mode", "naive",
                       "--out", str(tmp_path / "patches"), "--replay",
                       "--cassette", str(tmp_path / "empty.jsonl"))
        return code, capsys.readouterr().err

    assert optimize()[0] == EXIT_OK
    flipped = rows.replace(b"rationale of", b"rationale Of", 1)
    older = json.dumps({**json.loads(header), "version": 1}).encode()
    vector_bytes = bytearray(saved[vectors])
    vector_bytes[5] ^= 0x01
    for path, damaged, expected in (
        (metadata, header + b"\n" + flipped,
         f"error: {metadata}: malformed index file: ValueError: the metadata lines do not match"
         f" the header's rows_sha256"),
        (metadata, header + b"\n" + rows[:-1],  # cut short by one byte
         f"error: {metadata}: malformed index file: ValueError: the metadata lines do not match"),
        (metadata, older + b"\n" + rows,
         f"error: {metadata}: malformed index file: ValueError: index version 1 is not 2"),
        (vectors, bytes(vector_bytes),
         f"error: {vectors}: malformed index file: the vectors do not match the header's vec_sha256"),
    ):
        path.write_bytes(damaged)
        code, err = optimize()
        assert code == EXIT_USAGE
        assert expected in err
        assert "Traceback" not in err
        path.write_bytes(saved[path])
    assert optimize()[0] == EXIT_OK


def _index_header(rows: bytes, vectors: bytes, **fields) -> str:
    """A version-2 index header line over these metadata lines and vector
    bytes, for one row `p01` unless `fields` say otherwise."""
    header = {"count": 1, "dim": 256, "ids": ["p01"], "source_kind": "raw_source", "version": 2,
              "rows_sha256": hashlib.sha256(rows).hexdigest(),
              "vec_sha256": hashlib.sha256(vectors).hexdigest(), **fields}
    return json.dumps(header) + "\n"


def test_malformed_index_file_exits_2(tmp_path, capsys, corpus_file):
    ingest = run_ingest(corpus_file, DB_COUNT, SEED, tmp_path / "ingest")
    index_dir = tmp_path / "index"
    index_dir.mkdir()
    # Each damaged metadata line sits under a header whose digest is that of
    # the well-formed line, as when a saved index is edited afterwards.
    row = b'{"diff_text": "", "rationale": "", "record_id": "p01"}\n'
    vectors = b"\0" * 1024
    (index_dir / "index_source.jsonl.vec").write_bytes(vectors)
    header = _index_header(row, vectors)
    for damaged in ("not json\n",                                  # a header that is not JSON
                    '{"dim": 256}\n',                              # a header without its keys
                    _index_header(row, vectors, count=1.0) + row.decode(),  # a count that is not an integer
                    header + '{"record_id": "p01"}\n',  # a metadata line without its keys
                    header + '{"record_id": "p01", "diff_text": "",'
                    ' "rationale": "\\ud800"}\n',  # a rationale that is not valid Unicode
                    header + '{"record_id": "p01", "diff_text": "",'
                    ' "rationale": 5}\n'):  # a rationale that is not a string
        (index_dir / "index_source.jsonl").write_text(damaged, encoding="utf-8")
        assert run_cli(
            "optimize", "--corpus", str(corpus_file), "--split", str(ingest.manifest_path),
            "--index", str(index_dir), "--mode", "naive", "--out", str(tmp_path / "patches"),
        ) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"error: {index_dir / 'index_source.jsonl'}: malformed index file: " in err
        if damaged.startswith(header):
            assert "ValueError: the metadata lines do not match the header's rows_sha256" in err
        assert "Traceback" not in err


def test_inconsistent_index_files_exit_2_naming_the_file(tmp_path, capsys, corpus_file):
    ingest = run_ingest(corpus_file, DB_COUNT, SEED, tmp_path / "ingest")
    index_dir = tmp_path / "index"
    index_dir.mkdir()
    metadata = index_dir / "index_source.jsonl"
    row = b'{"diff_text": "", "rationale": "", "record_id": "p01"}\n'
    vectors = b"\0" * 12
    (index_dir / "index_source.jsonl.vec").write_bytes(vectors)
    for ids, expected in (
        (["p01", "p02"], f"error: {metadata}: index metadata truncated: 1 != 2"),
        (["p01"], f"error: {metadata}.vec: vector blob holds 3 floats, expected 256"),
    ):
        metadata.write_bytes(_index_header(row, vectors, count=len(ids), ids=ids).encode() + row)
        assert run_cli(
            "optimize", "--corpus", str(corpus_file), "--split", str(ingest.manifest_path),
            "--index", str(index_dir), "--mode", "naive", "--out", str(tmp_path / "patches"),
        ) == EXIT_USAGE
        err = capsys.readouterr().err
        assert expected in err
        assert "Traceback" not in err


def test_replay_uses_the_model_from_the_environment(tmp_path, monkeypatch, capsys, pairs,
                                                    corpus_file):
    # Cassette keys hash the model name, so replay must send the model that
    # recorded; zero-shot needs neither an analyzer nor an index.
    monkeypatch.delenv("AUTOPATCH_LLM_BASE", raising=False)
    monkeypatch.setenv("AUTOPATCH_LLM_MODEL", "tuned-model")
    ingest = run_ingest(corpus_file, DB_COUNT, SEED, tmp_path / "ingest")
    cassette = tmp_path / "cassette.jsonl"
    recorder = LlmClient(LlmConfig(model="tuned-model"), Cassette(cassette), mode="record",
                         transport=make_scripted_transport(pairs))
    recorded = tmp_path / "recorded"
    run_optimize(ingest.corpus, ingest.split, tmp_path / "no-index", recorded,
                 (PromptMode.ZERO_SHOT,), recorder, LocalHashingProvider())

    replayed = tmp_path / "replayed"
    assert run_cli(
        "optimize", "--corpus", str(corpus_file), "--split", str(ingest.manifest_path),
        "--index", str(tmp_path / "no-index"), "--mode", "zero-shot", "--out", str(replayed),
        "--replay", "--cassette", str(cassette),
    ) == EXIT_OK
    assert "0 failure(s)" in capsys.readouterr().out
    for pair in ingest.split.test_set:
        name = f"zero_shot/{pair.id}.cpp"
        assert (replayed / name).read_bytes() == (recorded / name).read_bytes()


def _assert_eval_usage_errors(tmp_path, capsys, corpus_file, option, values):
    """`eval` with each of `values` for `option` exits 2 naming the option,
    before it compiles anything."""
    ingest = run_ingest(corpus_file, DB_COUNT, SEED, tmp_path / "ingest")
    patches = tmp_path / "patches"
    for pair in ingest.split.test_set:
        path = pipeline.patch_path(patches, PromptMode.ZERO_SHOT, pair.id)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(pair.original_code, encoding="utf-8")

    out = tmp_path / "eval"
    for value in values:
        with pytest.raises(SystemExit) as excinfo:
            main(["eval", "--corpus", str(corpus_file), "--split", str(ingest.manifest_path),
                  "--patches", str(patches), "--mode", "zero-shot", option, value,
                  "--out", str(out)])
        assert excinfo.value.code == EXIT_USAGE
        assert option in capsys.readouterr().err
    assert not (out / "bin").exists()


def test_eval_rejects_reps_below_one_before_any_work(tmp_path, capsys, pairs, corpus_file):
    _assert_eval_usage_errors(tmp_path, capsys, corpus_file, "--reps", ("0", "-1"))


def test_eval_rejects_a_timeout_that_is_not_positive_and_finite(tmp_path, capsys, pairs,
                                                                 corpus_file):
    # 0 or -1 timed every program out; nan died in the first timed run.
    _assert_eval_usage_errors(tmp_path, capsys, corpus_file, "--timeout",
                              ("0", "-1", "-0.5", "nan", "inf", "-inf", "ten"))


def test_eval_rejects_a_mode_given_twice_before_any_work(tmp_path, capsys, pairs, corpus_file):
    # Each of that mode's patches was timed twice and each failure listed twice.
    _assert_eval_usage_errors(tmp_path, capsys, corpus_file, "--mode",
                              ("zero-shot,zero-shot", "naive,zero-shot,naive"))


def _zero_shot_cassette(tmp_path, pairs) -> str:
    """A cassette of the zero-shot patch request of each of `pairs`, which
    `optimize --replay --mode zero-shot` needs and no index."""
    cassette = tmp_path / "cassette.jsonl"
    recorder = LlmClient(LlmConfig(), Cassette(cassette), mode="record",
                         transport=make_scripted_transport(pairs))
    for pair in pairs:
        recorder.complete(OPTIMIZER_SYSTEM_TEXT, build_prompt(pair))
    return str(cassette)


def test_optimize_rejects_a_mode_given_twice(tmp_path, monkeypatch, capsys, pairs, corpus_file):
    # Each of that mode's patches was sent and written twice.
    monkeypatch.delenv("AUTOPATCH_LLM_BASE", raising=False)
    ingest = run_ingest(corpus_file, DB_COUNT, SEED, tmp_path / "ingest")
    cassette = _zero_shot_cassette(tmp_path, ingest.split.test_set)
    out = tmp_path / "out"
    assert run_cli(
        "optimize", "--corpus", str(corpus_file), "--split", str(ingest.manifest_path),
        "--index", str(tmp_path / "no-index"), "--mode", "zero-shot,zero-shot", "--out", str(out),
        "--replay", "--cassette", cassette,
    ) == EXIT_USAGE
    assert "argument --mode: mode 'zero-shot' given twice" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("record_id", ["../../../escaped", "nul\0byte"])
def test_an_id_that_is_not_one_path_component_writes_nothing_outside_out(tmp_path, monkeypatch, capsys,
                                                                         pairs, record_id):
    # Before ingest refused them, `../../../escaped` wrote `escaped.cpp`
    # above --out, and a NUL raised ValueError out of the CLI once every
    # patch request had been sent.
    monkeypatch.delenv("AUTOPATCH_LLM_BASE", raising=False)
    good = pairs[:2]
    corpus_path = tmp_path / "pairs.jsonl"
    write_corpus([good[0], replace(good[0], id=record_id), good[1]], corpus_path)
    cassette = _zero_shot_cassette(tmp_path, good)  # the bad record's request is good[0]'s
    ingest, out = tmp_path / "run" / "ingest", tmp_path / "run" / "out"
    assert run_cli("ingest", "--corpus", str(corpus_path), "--db-count", "0",
                   "--out", str(ingest)) == EXIT_OK
    before = set(tmp_path.rglob("*"))

    assert run_cli(
        "optimize", "--corpus", str(corpus_path), "--split", str(ingest / "split.json"),
        "--index", str(tmp_path / "no-index"), "--mode", "zero-shot", "--out", str(out),
        "--replay", "--cassette", cassette,
    ) == EXIT_OK
    assert [path for path in set(tmp_path.rglob("*")) - before if not path.is_relative_to(out)] == []
    assert sorted(path.name for path in (out / "zero_shot").iterdir()) == sorted(
        f"{pair.id}.cpp" for pair in good)
    captured = capsys.readouterr()
    assert "wrote 2 patch(es); 0 failure(s)" in captured.out
    assert (f"skipped line 2: line 2: field 'id' must name one path component, not {record_id!r}"
            in captured.err)


def _stage_argvs(root: Path, corpus: Path, cassette: Path) -> dict[str, list[str]]:
    """Each stage's arguments for one run in `root` over `corpus`, with the
    fixture's split and replaying `cassette`: each stage writes under
    `root/<stage>`, its `--out`."""
    split = ["--corpus", str(corpus), "--split", str(root / "ingest" / "split.json")]
    replay = ["--replay", "--cassette", str(cassette)]
    return {
        "ingest": ["ingest", "--corpus", str(corpus), "--db-count", str(DB_COUNT),
                   "--seed", str(SEED), "--out", str(root / "ingest")],
        "index": ["index", *split, *replay, "--out", str(root / "index")],
        "optimize": ["optimize", *split, "--index", str(root / "index"), *replay,
                     "--out", str(root / "optimize")],
        "eval": ["eval", *split, "--patches", str(root / "optimize"), "--reps", "1",
                 "--timeout", "5", "--out", str(root / "eval")],
    }


# Builds, in a few milliseconds, a program that exits 0 and prints nothing.
_EMPTY_PROGRAM_COMPILER = (
    "out = sys.argv[sys.argv.index('-o') + 1]\n"
    "open(out, 'w').write('#!/bin/sh\\n')\n"
    "os.chmod(out, 0o755)\n"
)
# Ids on both sides of the length limit, which `parse_record` sorts.
_IDS = st.one_of(
    st.text(min_size=1, max_size=40),
    st.integers(ID_MAX_BYTES - 6, ID_MAX_BYTES + 2).map(lambda n: "x" * n),
    st.integers(ID_MAX_BYTES // 2 - 6, ID_MAX_BYTES // 2 + 2).map(lambda n: "\u00e9" * n),
)


def test_every_accepted_id_goes_through_every_stage_writing_only_under_out(
        recorded_workspace, tmp_path, monkeypatch, capsys, pairs):
    # A 300-character id once made `optimize` raise `File name too long` out
    # of its patch write after every chat call, writing no failures manifest.
    monkeypatch.delenv("AUTOPATCH_LLM_BASE", raising=False)
    monkeypatch.setenv("AUTOPATCH_CXX", str(fake_tool(tmp_path / "cxx", _EMPTY_PROGRAM_COMPILER)))
    _, split = load_split(recorded_workspace.corpus_file, recorded_workspace.split_manifest)
    database_id, test_id = split.database_set[0].id, split.test_set[0].id
    runs = itertools.count()

    @settings(max_examples=10, deadline=None, database=None)
    @given(st.lists(_IDS, min_size=2, max_size=2, unique=True))
    @example(["x" * ID_MAX_BYTES, "\u00e9" * (ID_MAX_BYTES // 2) + "x"])
    @example(["a", "x" * 300])  # which ingest skips
    @example(["-rf", " .. "])
    @example(["a\nb", ".hidden"])
    @example(["\x85", "\u2028"])  # line breaks to str.splitlines, not to JSON Lines
    def check(ids):
        for record_id in ids:
            try:
                parse_record(record_to_json(replace(pairs[0], id=record_id)), 1)
            except AutopatchError:
                assume(False)
        assume(not {pair.id for pair in pairs} & set(ids))
        # The fixture corpus in its order, so each record keeps its side of the
        # split, and the recorded cassette holds every request: no prompt shows an id.
        renamed = {database_id: ids[0], test_id: ids[1]}
        corpus = tmp_path / f"run{next(runs)}" / "pairs.jsonl"
        corpus.parent.mkdir()
        write_corpus([replace(pair, id=renamed.get(pair.id, pair.id)) for pair in pairs], corpus)
        root = corpus.parent

        for stage, argv in _stage_argvs(root, corpus, recorded_workspace.cassette).items():
            before = set(tmp_path.rglob("*"))
            code = run_cli(*argv)
            err = capsys.readouterr().err
            # No program prints the expected output, so none is executable.
            assert code == (EXIT_NO_COMMON_SET if stage == "eval" else EXIT_OK), err
            assert [path for path in set(tmp_path.rglob("*")) - before
                    if not path.is_relative_to(root / stage)] == []

        # Split as bytes: an id may hold a character that str.splitlines breaks at.
        journal = [json.loads(line) for line in (root / "index" / INDEX_JOURNAL).read_bytes().splitlines()]
        assert {"record_id": ids[0], "status": "ok"}.items() <= journal[0].items()
        for mode in PromptMode:
            assert (root / "optimize" / mode.value / f"{ids[1]}.cpp").is_file()
            assert f"  wrong_output {mode.value}/{ids[1]}: testcase 0: " in err

    check()


@pytest.mark.parametrize("stage, culprit", [
    ("ingest", "split.json.tmp"), ("index", "index_journal.jsonl.tmp"),
    ("optimize", "{test_id}.cpp.tmp"), ("eval", "program.cpp"),
])
def test_a_write_that_fails_for_an_outside_reason_exits_2_naming_the_path(
        recorded_workspace, tmp_path, monkeypatch, capsys, pairs, stage, culprit):
    # As a full disk would: no stage contains an OSError as a record's failure.
    monkeypatch.delenv("AUTOPATCH_LLM_BASE", raising=False)
    monkeypatch.setenv("AUTOPATCH_CXX", str(fake_tool(tmp_path / "cxx", _EMPTY_PROGRAM_COMPILER)))
    _, split = load_split(recorded_workspace.corpus_file, recorded_workspace.split_manifest)
    culprit = culprit.format(test_id=split.test_set[0].id)
    argvs = _stage_argvs(tmp_path / "run", recorded_workspace.corpus_file, recorded_workspace.cassette)
    for before in list(argvs)[:list(argvs).index(stage)]:
        assert run_cli(*argvs[before]) == EXIT_OK
    capsys.readouterr()
    opened, full = [], Path.open

    def open_on_a_full_disk(path, mode="r", *args, **kwargs):
        if path.name == culprit and "w" in mode:
            opened.append(path)
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))
        return full(path, mode, *args, **kwargs)

    monkeypatch.setattr(Path, "open", open_on_a_full_disk)

    assert run_cli(*argvs[stage]) == EXIT_USAGE
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error: ")]
    # Eval's compiles run at once, so more than one may have opened its source.
    assert errors in ([f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}: {str(path)!r}"]
                      for path in opened), err
    assert "Traceback" not in err


@requires_gxx
def test_eval_names_each_patch_that_did_not_run_ok(tmp_path, capsys, corpus_file):
    ingest = run_ingest(corpus_file, DB_COUNT, SEED, tmp_path / "ingest")
    broken, *working = ingest.split.test_set
    patches = tmp_path / "patches"
    for pair in ingest.split.test_set:
        path = pipeline.patch_path(patches, PromptMode.ZERO_SHOT, pair.id)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("int main() { broken" if pair is broken else pair.original_code, encoding="utf-8")

    assert run_cli(
        "eval", "--corpus", str(corpus_file), "--split", str(ingest.manifest_path),
        "--patches", str(patches), "--mode", "zero-shot", "--reps", "1", "--timeout", "5",
        "--out", str(tmp_path / "eval"),
    ) == EXIT_OK
    err = capsys.readouterr().err
    assert f"\n  compile_error zero_shot/{broken.id}: compilation failed: " in "\n" + err, err
    assert all(f"/{pair.id}:" not in err for pair in working)


@requires_gxx
def test_index_skips_unparseable_record(tmp_path, monkeypatch, capsys, analyzer):
    monkeypatch.delenv("AUTOPATCH_LLM_BASE", raising=False)
    pairs = fixture_pairs()[:4]
    from autopatch.corpus import CodePair

    bad = CodePair(
        id="zz_bad",
        problem_id="broken",
        original_code="int main() { completely broken C++ !!!",
        optimized_code="int main(){return 0;}",
        labels=frozenset(),
        testcases=(),
    )
    corpus_path = tmp_path / "c.jsonl"
    write_corpus(pairs + [bad], corpus_path)
    out = tmp_path / "run"
    assert run_cli(
        "ingest", "--corpus", str(corpus_path), "--db-count", "5", "--seed", "3",
        "--out", str(out),
    ) == EXIT_OK

    from autopatch.corpus import load_split

    corpus, split = load_split(corpus_path, out / "split.json")
    recorder = LlmClient(
        LlmConfig(), Cassette(tmp_path / "cassette.json"), mode="record",
        transport=make_scripted_transport(pairs),
    )
    result = run_index(corpus, split, out / "index", LocalHashingProvider(), recorder)
    assert result.indexed_count == 4
    assert len(result.skipped) == 1
    assert result.skipped[0]["record_id"] == "zz_bad"
    journal_lines = (out / "index" / INDEX_JOURNAL).read_text().splitlines()
    assert len(journal_lines) == 5


@requires_gxx
def test_optimize_replay_writes_patches_per_mode(recorded_workspace, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("AUTOPATCH_LLM_BASE", raising=False)
    index_dir = recorded_workspace.record_dir / "index"
    code = run_cli(
        "optimize",
        "--corpus", str(recorded_workspace.corpus_file),
        "--split", str(recorded_workspace.split_manifest),
        "--index", str(index_dir),
        "--mode", "zero-shot,naive,context",
        "--out", str(tmp_path),
        "--replay", "--cassette", str(recorded_workspace.cassette),
    )
    assert code == EXIT_OK
    manifest = json.loads(recorded_workspace.split_manifest.read_text())
    for mode in ("zero_shot", "naive", "context"):
        for target_id in manifest["test_ids"]:
            assert (tmp_path / mode / f"{target_id}.cpp").exists()
    failures = json.loads((tmp_path / "failures.json").read_text())
    assert failures == []


@requires_gxx
def test_optimize_replay_miss_logged_not_fatal(recorded_workspace, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("AUTOPATCH_LLM_BASE", raising=False)
    empty_cassette = tmp_path / "empty.json"
    code = run_cli(
        "optimize",
        "--corpus", str(recorded_workspace.corpus_file),
        "--split", str(recorded_workspace.split_manifest),
        "--index", str(recorded_workspace.record_dir / "index"),
        "--mode", "zero-shot",
        "--out", str(tmp_path / "out"),
        "--replay", "--cassette", str(empty_cassette),
    )
    assert code == EXIT_OK
    failures = json.loads((tmp_path / "out" / "failures.json").read_text())
    assert len(failures) == 3
    assert all("no cassette entry" in f["reason"] for f in failures)
    assert "3 failure(s)" in capsys.readouterr().out


@requires_gxx
def test_optimize_with_an_index_of_another_split_exits_2(recorded_workspace, tmp_path, monkeypatch, capsys):
    # The recorded index holds the seed-7 database set; a seed-8 split of the
    # same corpus tests a record of it, whose own optimized code it could show.
    monkeypatch.delenv("AUTOPATCH_LLM_BASE", raising=False)
    assert run_cli("ingest", "--corpus", str(recorded_workspace.corpus_file),
                   "--db-count", str(DB_COUNT), "--seed", "8", "--out", str(tmp_path / "ingest")) == EXIT_OK
    indexed = json.loads(recorded_workspace.split_manifest.read_text())["database_ids"]
    tested = json.loads((tmp_path / "ingest" / "split.json").read_text())["test_ids"]
    leaked = [target for target in tested if target in indexed]
    assert leaked
    capsys.readouterr()

    index_dir = recorded_workspace.record_dir / "index"
    code = run_cli(
        "optimize",
        "--corpus", str(recorded_workspace.corpus_file),
        "--split", str(tmp_path / "ingest" / "split.json"),
        "--index", str(index_dir),
        "--mode", "naive",
        "--out", str(tmp_path / "out"),
        "--replay", "--cassette", str(recorded_workspace.cassette),
    )
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == (
        f"error: {index_dir / 'index_source.jsonl'}: the index holds test record(s)"
        f" {', '.join(map(repr, leaked))}: it was built over another split; run autopatch index again\n")
    assert list((tmp_path / "out").iterdir()) == []


def test_optimize_with_an_index_of_the_other_kind_exits_2(recorded_workspace, tmp_path, monkeypatch,
                                                          capsys):
    # Context mode would retrieve with a CFG query over source vectors.
    monkeypatch.delenv("AUTOPATCH_LLM_BASE", raising=False)
    index_dir = tmp_path / "index"
    shutil.copytree(recorded_workspace.record_dir / "index", index_dir)
    for suffix in ("", ".vec"):
        shutil.copyfile(index_dir / f"index_source.jsonl{suffix}", index_dir / f"index_cfg.jsonl{suffix}")

    code = run_cli(
        "optimize",
        "--corpus", str(recorded_workspace.corpus_file),
        "--split", str(recorded_workspace.split_manifest),
        "--index", str(index_dir),
        "--mode", "context",
        "--out", str(tmp_path / "out"),
        "--replay", "--cassette", str(recorded_workspace.cassette),
    )
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == (f"error: {index_dir / 'index_cfg.jsonl'}: the index is keyed by"
                                       f" raw_source, not cfg_serialization\n")
    assert list((tmp_path / "out").iterdir()) == []


@requires_gxx
def test_eval_all_compile_failures_exits_3(recorded_workspace, tmp_path, capsys):
    manifest = json.loads(recorded_workspace.split_manifest.read_text())
    patches = tmp_path / "patches" / "zero_shot"
    patches.mkdir(parents=True)
    for target_id in manifest["test_ids"]:
        (patches / f"{target_id}.cpp").write_text("int main() { broken !!!", encoding="utf-8")
    code = run_cli(
        "eval",
        "--corpus", str(recorded_workspace.corpus_file),
        "--split", str(recorded_workspace.split_manifest),
        "--patches", str(tmp_path / "patches"),
        "--mode", "zero-shot",
        "--reps", "1", "--timeout", "5",
        "--out", str(tmp_path / "eval"),
    )
    assert code == EXIT_NO_COMMON_SET
    report = json.loads((tmp_path / "eval" / "report.json").read_text())
    assert report["modes"]["zero_shot"]["outcome_counts"]["ok"] == 0
    assert report["modes"]["zero_shot"]["outcome_counts"]["compile_error"] == 3
    assert report["parameters"]["no_common_executable_set"] is True
