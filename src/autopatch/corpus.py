"""Code-pair dataset: ingestion, validation and splitting.

The corpus file is UTF-8 line-delimited JSON, one record per line:

    {"id": ..., "problem_id": ..., "original_code": ..., "optimized_code": ...,
     "labels": ["loop_optimization", ...], "testcases": [{"input": ..., "expected_output": ...}],
     "rationale": ...}          # rationale optional

`ingest_pairs` decodes and checks every line, skipping or rejecting bad ones,
and finds the file's SHA-256 and each kept record's byte span, which the
split manifest records. A stage given a split reads the corpus through
`listed_rows`: only the lines the manifest lists, each decoded when it is
read, once the file's hash shows it unchanged. A corpus is immutable and
safe for concurrent readers.
"""

from __future__ import annotations

import functools
import hashlib
import random
from array import array
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Sequence

from ._io import Rows, loads
from .errors import AutopatchError


class OptimizationType(Enum):
    CODE_REFACTORING = "code_refactoring"
    MEMORY_OPTIMIZATION = "memory_optimization"
    PERFORMANCE_ENHANCEMENT = "performance_enhancement"
    ALGORITHMIC_SIMPLIFICATION = "algorithmic_simplification"
    LOOP_OPTIMIZATION = "loop_optimization"


@dataclass(frozen=True)
class TestCase:
    __test__ = False  # stdin/stdout sample, not a pytest class

    input: str
    expected_output: str


@dataclass(frozen=True)
class CodePair:
    id: str
    problem_id: str
    original_code: str
    optimized_code: str
    labels: frozenset[OptimizationType]
    testcases: tuple[TestCase, ...]
    rationale: str | None = None


@dataclass
class CorpusStats:
    """What ingest found in a corpus file: the label histogram, the skipped
    lines, the file's SHA-256 (hex), and the byte span `(start, end)` of each
    kept record's line, by id in file order."""

    label_histogram: dict[OptimizationType, int]
    errors: list[tuple[int, str]]
    sha256: str
    spans: dict[str, tuple[int, int]]


@dataclass(frozen=True)
class CorpusSplit:
    database_set: Sequence[CodePair]
    test_set: Sequence[CodePair]


class Corpus:
    """A read-only collection of code pairs, looked up by id with
    `load_record`: `pairs[i]` is the record `ids[i]`. An ingested corpus
    holds every kept record, decoded, and its `CorpusStats`; a split's
    (`pipeline.load_split`) holds the listed records as `Rows` of the file's
    bytes, and no stats."""

    def __init__(self, pairs: Sequence[CodePair], ids: Sequence[str], stats: CorpusStats | None):
        self.pairs = pairs
        self.stats = stats
        self._rows = {record_id: row for row, record_id in enumerate(ids)}


def normalize_output(text: str) -> str:
    """Apply the testcase comparison rule: strip trailing whitespace per line
    and trailing newlines. Competitive-programming outputs commonly differ
    only there."""
    lines = [line.rstrip() for line in text.splitlines()]
    return "\n".join(lines).rstrip("\n")


def parse_record(obj: object, line_no: int) -> CodePair:
    """Validate one JSON object as `_io.loads` decodes it, so its text is
    valid Unicode, and build a CodePair.

    Raises AutopatchError naming the offending line on any violation.
    """
    def bad(reason: str) -> AutopatchError:
        return AutopatchError(f"line {line_no}: {reason}")

    if not isinstance(obj, dict):
        raise bad("record is not a JSON object")

    def required_str(key: str, nonempty: bool = False) -> str:
        value = obj.get(key)
        if not isinstance(value, str):
            raise bad(f"missing or non-string field {key!r}")
        if nonempty and not value:
            raise bad(f"field {key!r} must be nonempty")
        return value

    record_id = required_str("id", nonempty=True)
    problem_id = required_str("problem_id")
    original = required_str("original_code", nonempty=True)
    optimized = required_str("optimized_code", nonempty=True)

    raw_labels = obj.get("labels", [])
    if not isinstance(raw_labels, list):
        raise bad("field 'labels' must be an array")
    labels = set()
    for raw in raw_labels:
        try:
            labels.add(OptimizationType(raw))
        except ValueError:
            raise bad(f"unknown optimization type {raw!r}") from None

    raw_cases = obj.get("testcases", [])
    if not isinstance(raw_cases, list):
        raise bad("field 'testcases' must be an array")
    testcases = []
    for case in raw_cases:
        if (
            not isinstance(case, dict)
            or not isinstance(case.get("input"), str)
            or not isinstance(case.get("expected_output"), str)
        ):
            raise bad("testcase entries need string 'input' and 'expected_output'")
        testcases.append(TestCase(case["input"], case["expected_output"]))

    rationale = obj.get("rationale")
    if rationale is not None and not isinstance(rationale, str):
        raise bad("field 'rationale' must be a string when present")

    return CodePair(
        id=record_id,
        problem_id=problem_id,
        original_code=original,
        optimized_code=optimized,
        labels=frozenset(labels),
        testcases=tuple(testcases),
        rationale=rationale,
    )


def ingest_pairs(path: Path | str, strict: bool) -> Corpus:
    """Ingest a line-delimited JSON corpus file.

    In strict mode the first bad line (malformed, or a duplicate id) raises
    AutopatchError.
    In lenient mode bad lines are skipped, each leaving a positional entry in
    stats.errors; nothing is ever dropped silently.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(str(path))
    data = path.read_bytes()

    pairs: list[CodePair] = []
    seen: dict[str, int] = {}
    spans: dict[str, tuple[int, int]] = {}
    errors: list[tuple[int, str]] = []
    histogram: Counter[OptimizationType] = Counter()

    start, line_no = 0, 0
    while start < len(data):
        end = data.find(b"\n", start) + 1 or len(data)
        line, span, start = data[start:end], (start, end), end
        line_no += 1
        if not line.strip():
            continue
        try:
            try:
                obj = loads(line)
            except ValueError as exc:  # not UTF-8, not JSON, or not valid Unicode
                raise AutopatchError(f"line {line_no}: invalid JSON: {exc}") from None
            pair = parse_record(obj, line_no)
            if pair.id in seen:
                raise AutopatchError(
                    f"duplicate id {pair.id!r} (line {line_no}, first seen line {seen[pair.id]})"
                )
        except AutopatchError as exc:
            if strict:
                raise
            errors.append((line_no, str(exc)))
            continue
        seen[pair.id] = line_no
        spans[pair.id] = span
        pairs.append(pair)
        histogram.update(pair.labels)

    stats = CorpusStats(label_histogram=dict(histogram), errors=errors,
                        sha256=hashlib.sha256(data).hexdigest(), spans=spans)
    return Corpus(tuple(pairs), [pair.id for pair in pairs], stats)


def split_corpus(pairs: Sequence[CodePair], database_count: int, seed: int) -> CorpusSplit:
    """Deterministically shuffle and split: the first database_count shuffled
    records form the database set, the rest the test set."""
    if not 0 <= database_count <= len(pairs):
        raise AutopatchError(f"database_count {database_count} outside [0, {len(pairs)}]")
    shuffled = list(pairs)
    random.Random(seed).shuffle(shuffled)
    return CorpusSplit(
        database_set=tuple(shuffled[:database_count]),
        test_set=tuple(shuffled[database_count:]),
    )


def load_record(corpus: Corpus, record_id: str) -> CodePair:
    try:
        row = corpus._rows[record_id]
    except KeyError:
        raise AutopatchError(f"record {record_id!r} is not in the corpus") from None
    return corpus.pairs[row]


def _listed_record(path: Path, data: bytes, start: int, end: int) -> CodePair:
    """The record on bytes [start, end) of `data`, the corpus file `path`:
    the line of a record that ingest accepted. A span that holds no record
    means that the split manifest which gave it is wrong, and raises
    AutopatchError naming the file and the span's line."""
    try:
        return parse_record(loads(data[start:end]), 0)  # a failure's message is replaced below
    except (ValueError, AutopatchError):  # not UTF-8 JSON, or not a record
        line_no = data.count(b"\n", 0, start) + 1
        raise AutopatchError(f"{path}: line {line_no} holds no record at the split manifest's"
                             f" span [{start}, {end}]") from None


def listed_rows(path: Path, data: bytes, spans: array) -> Rows:
    """The records on the lines of `data`, the corpus file `path`, that
    `spans` gives: `_listed_record` of each, decoded when it is read."""
    return Rows(data, spans, functools.partial(_listed_record, path))
