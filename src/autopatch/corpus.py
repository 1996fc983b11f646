"""Code-pair dataset: ingestion, validation and splitting.

The corpus file is UTF-8 line-delimited JSON, one record per line:

    {"id": ..., "problem_id": ..., "original_code": ..., "optimized_code": ...,
     "labels": ["loop_optimization", ...], "testcases": [{"input": ..., "expected_output": ...}],
     "rationale": ...}          # rationale optional

A loaded corpus is immutable and safe for concurrent readers.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Sequence

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
    label_histogram: dict[OptimizationType, int]
    errors: list[tuple[int, str]] = field(default_factory=list)


@dataclass(frozen=True)
class CorpusSplit:
    database_set: tuple[CodePair, ...]
    test_set: tuple[CodePair, ...]


class Corpus:
    """An ingested, read-only collection of code pairs."""

    def __init__(self, pairs: Sequence[CodePair], stats: CorpusStats):
        self.pairs: tuple[CodePair, ...] = tuple(pairs)
        self.by_id: dict[str, CodePair] = {p.id: p for p in self.pairs}
        self.stats = stats


def normalize_output(text: str) -> str:
    """Apply the testcase comparison rule: strip trailing whitespace per line
    and trailing newlines. Competitive-programming outputs commonly differ
    only there."""
    lines = [line.rstrip() for line in text.splitlines()]
    return "\n".join(lines).rstrip("\n")


def parse_record(obj: object, line_no: int) -> CodePair:
    """Validate one decoded JSON object and build a CodePair.

    Raises AutopatchError naming the offending line on any violation.
    """
    def bad(reason: str) -> AutopatchError:
        return AutopatchError(f"line {line_no}: {reason}")

    if not isinstance(obj, dict):
        raise bad("record is not a JSON object")

    def unicode_str(value: str, what: str) -> str:
        try:  # JSON can escape a lone surrogate ("\ud800"); no UTF-8 file holds one
            value.encode("utf-8")
        except UnicodeEncodeError:
            raise bad(f"{what} is not valid Unicode") from None
        return value

    def required_str(key: str, nonempty: bool = False) -> str:
        value = obj.get(key)
        if not isinstance(value, str):
            raise bad(f"missing or non-string field {key!r}")
        if nonempty and not value:
            raise bad(f"field {key!r} must be nonempty")
        return unicode_str(value, f"field {key!r}")

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
        testcases.append(TestCase(unicode_str(case["input"], "testcase 'input'"),
                                  unicode_str(case["expected_output"], "testcase 'expected_output'")))

    rationale = obj.get("rationale")
    if rationale is not None:
        if not isinstance(rationale, str):
            raise bad("field 'rationale' must be a string when present")
        unicode_str(rationale, "field 'rationale'")

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

    pairs: list[CodePair] = []
    seen: dict[str, int] = {}
    errors: list[tuple[int, str]] = []
    histogram: Counter[OptimizationType] = Counter()

    with path.open("r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
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
            pairs.append(pair)
            histogram.update(pair.labels)

    stats = CorpusStats(label_histogram=dict(histogram), errors=errors)
    return Corpus(pairs, stats)


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
        return corpus.by_id[record_id]
    except KeyError:
        raise AutopatchError(f"record {record_id!r} is not in the corpus") from None
