from __future__ import annotations

import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autopatch.corpus import (
    ID_MAX_BYTES,
    CorpusSplit,
    OptimizationType,
    ingest_pairs,
    load_record,
    load_split,
    normalize_output,
    normalized_head,
    output_matches,
    parse_record,
    split_corpus,
)
from autopatch.errors import AutopatchError
from autopatch.pipeline import run_ingest

from helpers import fixture_pairs, record_to_json, write_corpus


def _record(record_id="r1", **overrides) -> dict:
    base = {
        "id": record_id,
        "problem_id": "prob",
        "original_code": "int main(){return 0;}",
        "optimized_code": "int main(){return 0;}",
        "labels": ["loop_optimization"],
        "testcases": [{"input": "1\n", "expected_output": "1\n"}],
    }
    base.update(overrides)
    return base


def _write_lines(path, records):
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8")


def test_ingest_counts_valid_records(tmp_path):
    path = tmp_path / "c.jsonl"
    _write_lines(path, [_record(f"r{i}") for i in range(3)])
    corpus = ingest_pairs(path, strict=True)
    assert len(corpus.pairs) == 3


def test_ingest_missing_field_raises_with_line_number(tmp_path):
    path = tmp_path / "c.jsonl"
    record = _record()
    del record["optimized_code"]
    _write_lines(path, [record])
    with pytest.raises(AutopatchError, match="^line 1: missing or non-string field 'optimized_code'$"):
        ingest_pairs(path, strict=True)


def test_ingest_lenient_collects_positional_errors(tmp_path):
    path = tmp_path / "c.jsonl"
    bad = _record("r2")
    bad["labels"] = ["not_a_type"]
    _write_lines(path, [_record("r1"), bad, _record("r3")])
    corpus = ingest_pairs(path, strict=False)
    assert len(corpus.pairs) == 2
    assert [line for line, _ in corpus.stats.errors] == [2]


_NOT_UNICODE = [  # (record, the text that holds a lone surrogate)
    (_record("r\ud800"), "field 'id'"),
    (_record(problem_id="\ud800"), "field 'problem_id'"),
    (_record(original_code="int main(){}//\udfff"), "field 'original_code'"),
    (_record(optimized_code="\ud800"), "field 'optimized_code'"),
    (_record(rationale="\ud800"), "field 'rationale'"),
    (_record(testcases=[{"input": "\ud800", "expected_output": ""}]), "testcase 'input'"),
    (_record(testcases=[{"input": "", "expected_output": "\ud800"}]), "testcase 'expected_output'"),
]


@pytest.mark.parametrize("record", [record for record, _ in _NOT_UNICODE],
                         ids=[what for _, what in _NOT_UNICODE])
def test_text_that_is_not_unicode_is_a_bad_line(tmp_path, record):
    # JSON can escape a lone surrogate, which no UTF-8 journal, patch or
    # request can hold: the line is bad where it enters, whichever field
    # holds it, before any field is read.
    path = tmp_path / "c.jsonl"
    _write_lines(path, [_record("r1"), record, _record("r3")])
    reason = "line 2: invalid JSON: a \\u escape spells a lone surrogate, which is not valid Unicode"
    corpus = ingest_pairs(path, strict=False)
    assert [p.id for p in corpus.pairs] == ["r1", "r3"]
    assert corpus.stats.errors == [(2, reason)]
    with pytest.raises(AutopatchError, match=f"^{re.escape(reason)}$"):
        ingest_pairs(path, strict=True)


@pytest.mark.parametrize("record_id", ["../../../escaped", "a/b", "/abs", "nul\0byte", ".", ".."])
def test_an_id_that_is_not_one_path_component_is_a_bad_line(tmp_path, record_id):
    # An id names a patch file and an eval build directory, so a separator,
    # a NUL or a dot directory would write outside them or fail the write.
    path = tmp_path / "c.jsonl"
    _write_lines(path, [_record("r1"), _record(record_id), _record("r3")])
    reason = f"line 2: field 'id' must name one path component, not {record_id!r}"
    corpus = ingest_pairs(path, strict=False)
    assert [p.id for p in corpus.pairs] == ["r1", "r3"]
    assert corpus.stats.errors == [(2, reason)]
    with pytest.raises(AutopatchError, match=f"^{re.escape(reason)}$"):
        ingest_pairs(path, strict=True)



@pytest.mark.parametrize("record_id", ["x" * 300, "x" * (ID_MAX_BYTES + 1), "\u00e9" * 124])
def test_an_id_too_long_to_name_a_file_is_a_bad_line(tmp_path, record_id):
    # `optimize` writes the patch `<id>.cpp` through `<id>.cpp.tmp`, which must
    # fit in a file name's 255 bytes.
    path = tmp_path / "c.jsonl"
    _write_lines(path, [_record("r1"), _record(record_id), _record("r3")])
    size = len(record_id.encode("utf-8"))
    reason = f"line 2: field 'id' must be at most 247 bytes of UTF-8, not {size}"
    corpus = ingest_pairs(path, strict=False)
    assert [p.id for p in corpus.pairs] == ["r1", "r3"]
    assert corpus.stats.errors == [(2, reason)]
    with pytest.raises(AutopatchError, match=f"^{re.escape(reason)}$"):
        ingest_pairs(path, strict=True)


def test_an_id_of_the_longest_length_names_a_writable_file(tmp_path):
    record_id = "x" * (ID_MAX_BYTES - 2) + "\u00e9"  # 247 bytes, the last character two
    assert parse_record(_record(record_id), 1).id == record_id
    (tmp_path / f"{record_id}.cpp.tmp").write_text("")


NOT_UTF8_REASON = "line 2: invalid JSON: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"


def test_line_that_is_not_utf8_is_a_bad_line(tmp_path):
    path = tmp_path / "c.jsonl"
    _write_lines(path, [_record("r1"), _record("r3")])
    first, second = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(first + b"\xff\n" + second)
    corpus = ingest_pairs(path, strict=False)
    assert [p.id for p in corpus.pairs] == ["r1", "r3"]
    assert corpus.stats.errors == [(2, NOT_UTF8_REASON)]
    with pytest.raises(AutopatchError, match=f"^{re.escape(NOT_UTF8_REASON)}$"):
        ingest_pairs(path, strict=True)


def test_ingest_duplicate_id(tmp_path):
    path = tmp_path / "c.jsonl"
    _write_lines(path, [_record("dup"), _record("dup")])
    with pytest.raises(AutopatchError, match=r"^duplicate id 'dup' \(line 2, first seen line 1\)$"):
        ingest_pairs(path, strict=True)


def test_ingest_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        ingest_pairs(tmp_path / "absent.jsonl", strict=True)


def test_ingest_rejects_empty_code(tmp_path):
    path = tmp_path / "c.jsonl"
    _write_lines(path, [_record(original_code="")])
    with pytest.raises(AutopatchError, match="^line 1: field 'original_code' must be nonempty$"):
        ingest_pairs(path, strict=True)


def test_ingest_full_dataset_scale(tmp_path):
    path = tmp_path / "big.jsonl"
    _write_lines(path, [_record(f"r{i:05d}") for i in range(1200)])
    corpus = ingest_pairs(path, strict=True)
    assert len(corpus.pairs) == 1200


def test_label_histogram_counts_multilabel_records(tmp_path):
    path = tmp_path / "c.jsonl"
    _write_lines(
        path,
        [
            _record("r1", labels=["loop_optimization", "memory_optimization"]),
            _record("r2", labels=["loop_optimization"]),
            _record("r3", labels=[]),
        ],
    )
    histogram = ingest_pairs(path, strict=True).stats.label_histogram
    assert histogram[OptimizationType.LOOP_OPTIMIZATION] == 2
    assert histogram[OptimizationType.MEMORY_OPTIMIZATION] == 1
    assert sum(histogram.values()) == 3


def test_split_sizes_and_disjointness():
    pairs = [parse_record(_record(f"r{i:04d}"), i) for i in range(1, 1201)]
    split = split_corpus(pairs, 1000, seed=7)
    assert len(split.database_set) == 1000
    assert len(split.test_set) == 200
    db_ids = {p.id for p in split.database_set}
    test_ids = {p.id for p in split.test_set}
    assert not db_ids & test_ids
    assert db_ids | test_ids == {p.id for p in pairs}


def test_split_zero_database_boundary():
    pairs = [parse_record(_record(f"r{i}"), i) for i in range(10)]
    split = split_corpus(pairs, 0, seed=1)
    assert len(split.database_set) == 0
    assert len(split.test_set) == 10


def test_split_deterministic_for_equal_seed():
    pairs = [parse_record(_record(f"r{i}"), i) for i in range(50)]
    first = split_corpus(pairs, 30, seed=42)
    second = split_corpus(pairs, 30, seed=42)
    assert [p.id for p in first.database_set] == [p.id for p in second.database_set]
    assert [p.id for p in first.test_set] == [p.id for p in second.test_set]
    different = split_corpus(pairs, 30, seed=43)
    assert [p.id for p in first.database_set] != [p.id for p in different.database_set]


def test_split_count_out_of_range():
    pairs = [parse_record(_record("solo"), 1)]
    with pytest.raises(AutopatchError, match=r"^database_count 2 outside \[0, 1\]$"):
        split_corpus(pairs, 2, seed=0)
    with pytest.raises(AutopatchError, match=r"^database_count -1 outside \[0, 1\]$"):
        split_corpus(pairs, -1, seed=0)


def test_load_record_and_unknown_id(tmp_path):
    path = tmp_path / "c.jsonl"
    _write_lines(path, [_record("p42")])
    corpus = ingest_pairs(path, strict=True)
    assert load_record(corpus, "p42").id == "p42"
    with pytest.raises(AutopatchError, match="^record 'missing' is not in the corpus$"):
        load_record(corpus, "missing")


def _random_record(rng: random.Random, record_id: str) -> dict:
    labels = rng.sample([t.value for t in OptimizationType], rng.randint(0, 3))
    record = {
        "id": record_id,
        "problem_id": f"prob{rng.randrange(100)}",
        "original_code": "int main(){\n  return %d;\n}\n" % rng.randrange(100),
        "optimized_code": "int main(){return %d;}\n" % rng.randrange(100),
        "labels": sorted(labels),
        "testcases": [
            {"input": f"{rng.randrange(10)}\n", "expected_output": f"{rng.randrange(10)}\n"}
            for _ in range(rng.randint(0, 2))
        ],
    }
    if rng.random() < 0.5:
        record["rationale"] = f"hoists the loop invariant ({rng.randrange(10)})"
    return record


def test_round_trip_reserializes_to_original_json(tmp_path):
    rng = random.Random(2024)
    records = [_random_record(rng, f"r{i:03d}") for i in range(50)]
    path = tmp_path / "c.jsonl"
    _write_lines(path, records)
    corpus = ingest_pairs(path, strict=True)
    for original in records:
        loaded = load_record(corpus, original["id"])
        assert record_to_json(loaded) == original


def test_write_corpus_round_trips_fixture_pairs(tmp_path):
    pairs = fixture_pairs()
    path = tmp_path / "f.jsonl"
    write_corpus(pairs, path)
    corpus = ingest_pairs(path, strict=True)
    assert len(corpus.pairs) == len(pairs)
    for pair in pairs:
        assert load_record(corpus, pair.id) == pair


def test_split_preserves_every_id_exactly_once(tmp_path):
    pairs = fixture_pairs()
    split = split_corpus(pairs, 7, seed=7)
    ids = [p.id for p in split.database_set] + [p.id for p in split.test_set]
    assert sorted(ids) == sorted(p.id for p in pairs)
    assert isinstance(split, CorpusSplit)


def test_normalize_output_trailing_rules():
    assert normalize_output("5 \n6\t\n\n\n") == "5\n6"
    assert normalize_output("5\n6") == normalize_output("5\n6\n")
    assert normalize_output("a b\n") != normalize_output("a  b\n")


# Line breaks (`\r\n` one of them), whitespace that is no break (` `, `\t`,
# `\x1f`, NBSP, the ideographic space) and text, so that outputs often
# differ in whitespace alone.
_OUTPUT_PIECES = ["\r\n", "\r", "\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
                  " ", "\t", "\x1f", "\xa0", "\u3000", "1", "2", "a"]
_outputs = st.lists(st.sampled_from(_OUTPUT_PIECES), max_size=12).map("".join)


@settings(max_examples=1000, deadline=None)
@given(_outputs, _outputs, _outputs)
def test_output_matches_follows_normalize_output(prefix, actual_tail, expected_tail):
    actual, expected = prefix + actual_tail, normalize_output(prefix + expected_tail)
    assert output_matches(actual, expected) == (normalize_output(actual) == expected)


@settings(max_examples=1000, deadline=None)
@given(_outputs, st.integers(min_value=0, max_value=8))
def test_normalized_head_follows_normalize_output(text, size):
    assert normalized_head(text, size) == normalize_output(text)[:size]


# A corpus line: a record (its id drawn from a few, so that some repeat and
# are skipped as duplicates, its text non-ASCII or escaped at random), or a
# line that ingest skips: not JSON, not UTF-8, not a record, or blank.
_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=6)
_RECORD_LINE = st.builds(
    lambda record_id, code, rationale, ascii_only: json.dumps(
        {"id": record_id, "problem_id": "p", "original_code": code, "optimized_code": code + ";",
         "labels": ["loop_optimization"], "testcases": [{"input": code, "expected_output": ""}],
         **({"rationale": rationale} if rationale else {})},
        ensure_ascii=ascii_only).encode("utf-8"),
    st.sampled_from(["a", "b", "c", "Δ", "d e", "😀"]), _TEXT, st.none() | _TEXT, st.booleans())
_SKIPPED_LINE = st.sampled_from([b"not json", b"\xff\xfe{}", b"[]", b'{"id": "x"}', b"",
                                 b"   ", b'{"id": "\\ud800", "problem_id": ""}'])


@settings(max_examples=60, deadline=None)
@given(lines=st.lists(_RECORD_LINE | _SKIPPED_LINE, max_size=12), final_newline=st.booleans(),
       seed=st.integers(0, 2**16))
def test_listed_records_equal_a_full_ingest(tmp_path_factory, lines, final_newline, seed):
    root = tmp_path_factory.mktemp("split")
    path = root / "pairs.jsonl"
    path.write_bytes(b"\n".join(lines) + (b"\n" if final_newline else b""))
    oracle = ingest_pairs(path, strict=False)
    manifest = run_ingest(path, seed % (len(oracle.pairs) + 1), seed, root).manifest_path

    corpus, split = load_split(path, manifest)
    listed = json.loads(manifest.read_text(encoding="utf-8"))
    assert sorted(listed["database_ids"] + listed["test_ids"]) == sorted(p.id for p in oracle.pairs)
    assert list(split.database_set) == [load_record(oracle, i) for i in listed["database_ids"]]
    assert list(split.test_set) == [load_record(oracle, i) for i in listed["test_ids"]]
    for pair in oracle.pairs:  # a loaded corpus holds the database records alone
        if pair.id in listed["database_ids"]:
            assert load_record(corpus, pair.id) == pair
        else:
            with pytest.raises(AutopatchError, match=f"^record {re.escape(repr(pair.id))} is not in the corpus$"):
                load_record(corpus, pair.id)


def _ingest_with_spans(tmp_path, edit) -> tuple:
    """The fixture corpus's path, ingested, and its split manifest's path
    and contents after `edit(database_ids, spans)` has changed its spans."""
    path = tmp_path / "pairs.jsonl"
    write_corpus(fixture_pairs(), path)
    manifest_path = run_ingest(path, 4, 3, tmp_path).manifest_path
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    edit(manifest["database_ids"], manifest["spans"])
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    return path, manifest_path, manifest


def test_a_span_that_holds_another_record_than_the_one_listed_is_refused(tmp_path):
    def swap(ids, spans):
        spans[ids[0]], spans[ids[1]] = spans[ids[1]], spans[ids[0]]

    path, manifest_path, manifest = _ingest_with_spans(tmp_path, swap)
    first, second = manifest["database_ids"][:2]
    corpus, split = load_split(path, manifest_path)
    data = path.read_bytes()
    for listed, held in ((first, second), (second, first)):
        start, end = manifest["spans"][listed]
        line_no = data.count(b"\n", 0, start) + 1
        message = (f"{path}: line {line_no} holds record {held!r}, not {listed!r},"
                   f" at the split manifest's span [{start}, {end}]")
        with pytest.raises(AutopatchError, match=f"^{re.escape(message)}$"):
            load_record(corpus, listed)
    with pytest.raises(AutopatchError, match="holds record"):
        list(split.database_set)
    assert [pair.id for pair in split.test_set] == manifest["test_ids"]  # its spans are intact


def test_two_ids_listed_at_one_span_are_a_malformed_manifest(tmp_path):
    def share(ids, spans):
        spans[ids[1]] = spans[ids[0]]

    path, manifest_path, manifest = _ingest_with_spans(tmp_path, share)
    first, second = manifest["database_ids"][:2]
    start, end = manifest["spans"][first]
    message = (f"{manifest_path}: malformed split manifest: ValueError: span [{start}, {end}]"
               f" of {second!r} starts where {first!r}'s does")
    with pytest.raises(AutopatchError, match=f"^{re.escape(message)}$"):
        load_split(path, manifest_path)
