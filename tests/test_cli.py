from __future__ import annotations

import argparse
import gc
import json

import pytest

from autopatch import pipeline
from autopatch.cli import EXIT_NO_COMMON_SET, EXIT_OK, EXIT_USAGE, main
from autopatch.pipeline import INDEX_JOURNAL, run_index, run_ingest, run_optimize
from autopatch.prompting import Cassette, LlmClient, LlmConfig, PromptMode
from autopatch.retrieval import LocalHashingProvider

from conftest import DB_COUNT, SEED, requires_gxx
from helpers import fixture_pairs, make_scripted_transport, write_corpus


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
    manifest = tmp_path / "split.json"
    manifest.write_text(json.dumps({"database_ids": [], "test_ids": ["p99"]}), encoding="utf-8")
    assert run_cli(
        "eval", "--corpus", str(corpus_file), "--split", str(manifest),
        "--patches", str(tmp_path / "patches"), "--out", str(tmp_path / "eval"),
    ) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"error: {manifest}: record 'p99' is not in the corpus" in err
    assert "Traceback" not in err


def test_malformed_index_file_exits_2(tmp_path, capsys, corpus_file):
    ingest = run_ingest(corpus_file, DB_COUNT, SEED, tmp_path / "ingest")
    index_dir = tmp_path / "index"
    index_dir.mkdir()
    header = {"count": 1, "dim": 256, "source_kind": "raw_source", "version": 1}
    for damaged in ("not json\n",                                  # a header that is not JSON
                    '{"dim": 256}\n',                              # a header without its keys
                    json.dumps({**header, "count": 1.0}) + "\n",  # a count that is not an integer
                    json.dumps(header) + '\n{"record_id": "p01"}\n',  # a metadata line without its keys
                    json.dumps(header) + '\n{"record_id": "p01", "diff_text": "",'
                    ' "rationale": "\\ud800"}\n',  # a rationale that is not valid Unicode
                    json.dumps(header) + '\n{"record_id": "p01", "diff_text": "",'
                    ' "rationale": 5}\n'):  # a rationale that is not a string
        (index_dir / "index_source.jsonl").write_text(damaged, encoding="utf-8")
        assert run_cli(
            "optimize", "--corpus", str(corpus_file), "--split", str(ingest.manifest_path),
            "--index", str(index_dir), "--mode", "naive", "--out", str(tmp_path / "patches"),
        ) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"error: {index_dir / 'index_source.jsonl'}: malformed index file: " in err
        assert "Traceback" not in err


def test_inconsistent_index_files_exit_2_naming_the_file(tmp_path, capsys, corpus_file):
    ingest = run_ingest(corpus_file, DB_COUNT, SEED, tmp_path / "ingest")
    index_dir = tmp_path / "index"
    index_dir.mkdir()
    metadata = index_dir / "index_source.jsonl"
    header = {"count": 1, "dim": 256, "source_kind": "raw_source", "version": 1}
    entry = {"diff_text": "", "rationale": "", "record_id": "p01"}
    (index_dir / "index_source.jsonl.vec").write_bytes(b"\0" * 12)
    for count, expected in (
        (2, f"error: {metadata}: index metadata truncated: 1 != 2"),
        (1, f"error: {metadata}.vec: vector blob holds 3 floats, expected 256"),
    ):
        metadata.write_text(f"{json.dumps({**header, 'count': count})}\n{json.dumps(entry)}\n",
                            encoding="utf-8")
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

    from autopatch.pipeline import load_split
    from autopatch import corpus as corpus_mod

    corpus = corpus_mod.ingest_pairs(corpus_path, strict=True)
    split = load_split(corpus, out / "split.json")
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
