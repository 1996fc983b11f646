"""Code-pair dataset: ingestion, validation, splitting and the split manifest.

The corpus file is UTF-8 line-delimited JSON, one record per line:

    {"id": ..., "problem_id": ..., "original_code": ..., "optimized_code": ...,
     "labels": ["loop_optimization", ...], "testcases": [{"input": ..., "expected_output": ...}],
     "rationale": ...}          # rationale optional

`ingest_pairs` decodes and checks every line, skipping or rejecting bad ones,
and finds the file's SHA-256 and each kept record's byte span. This module
alone knows the split manifest's layout: `write_split` records the split
with that hash and those spans, and `load_split` reads it back. A loaded
split reads only the lines the manifest lists, each decoded when it is
read, once the file's hash shows it unchanged. A corpus is immutable and
safe for concurrent readers.
"""

from __future__ import annotations

import functools
import hashlib
import random
import re
from array import array
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Sequence

from ._io import Rows, line_spans, loads, write_json
from .errors import AutopatchError

# 255 bytes is a file name's limit on common Linux file systems, and the
# longest name a stage writes is the patch's `<id>.cpp.tmp` (`_io.replacing`).
ID_MAX_BYTES = 255 - len(".cpp.tmp")


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
    holds every kept record, decoded, and its `CorpusStats`; a loaded
    split's (`load_split`) holds its database records, the `Rows` that are
    also its `database_set`, and no stats."""

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


# The line breaks of `str.splitlines`, "\r\n" being one. Every break is
# whitespace to `str.rstrip` and to `\s`, which agree on every character.
_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
_LINE = re.compile(f"[^{_BREAKS}]*(?:\r\n|[{_BREAKS}])|[^{_BREAKS}]+\\Z")  # its break included
_LINE_END = re.compile(f"[^\\S{_BREAKS}]*(?:\r\n|[{_BREAKS}]|\\Z)")  # trailing whitespace, break
_BLANK = re.compile(r"\s*")


def output_matches(text: str, expected: str) -> bool:
    """Whether `normalize_output(text) == expected`, for an `expected` that
    `normalize_output` returned, read a line at a time with no copy of
    `text`: each expected line must begin a line of `text` that only
    whitespace follows, and the rest of `text` must be whitespace."""
    pos = 0
    for want in expected.split("\n") if expected else ():
        line_end = text.startswith(want, pos) and _LINE_END.match(text, pos + len(want))
        if not line_end:
            return False
        pos = line_end.end()
    return _BLANK.fullmatch(text, pos) is not None


def normalized_head(text: str, size: int) -> str:
    """`normalize_output(text)[:size]`, read a line at a time until it is
    known, with no line copied past `size` characters."""
    head, gap = "", -1  # gap: the newlines owed before the next line that is not blank
    for line in _LINE.finditer(text):
        start, end = line.span()
        piece = text[start:min(end, start + size)]
        if _BLANK.fullmatch(text, start + len(piece), end):  # nothing but whitespace past the piece
            piece = piece.rstrip()
        gap += 1
        if piece:
            head, gap = head + "\n" * gap + piece, 0
        if len(head) + gap >= size:  # each line adds one to this sum, at least
            if gap and not _BLANK.fullmatch(text, end):
                head += "\n" * gap
            break
    return head[:size]


def parse_record(obj: object, line_no: int) -> CodePair:
    """Validate one JSON object as `_io.loads` decodes it, so its text is
    valid Unicode, and build a CodePair. The id names one path component of
    at most ID_MAX_BYTES bytes, since a patch and an eval build are named by it.

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
    if "/" in record_id or "\0" in record_id or record_id in (".", ".."):
        raise bad(f"field 'id' must name one path component, not {record_id!r}")
    size = len(record_id.encode("utf-8"))
    if size > ID_MAX_BYTES:
        raise bad(f"field 'id' must be at most {ID_MAX_BYTES} bytes of UTF-8, not {size}")
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

    lines = line_spans(data, 0)
    for line_no, (start, end) in enumerate(zip(lines[::2], lines[1::2]), start=1):
        line = data[start:end]
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
        spans[pair.id] = (start, end)
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


def write_split(path: Path, corpus: Corpus, split: CorpusSplit, seed: int) -> None:
    """Write to `path` the manifest of `split`, drawn with `seed` from an
    ingested `corpus`: both sets' ids, which list every kept record, and
    the file's hash and spans, which `load_split` checks and reads by."""
    write_json(path, {
        "corpus_sha256": corpus.stats.sha256,
        "database_count": len(split.database_set),
        "seed": seed,
        "database_ids": [p.id for p in split.database_set],
        "test_ids": [p.id for p in split.test_set],
        "spans": {record_id: list(span) for record_id, span in corpus.stats.spans.items()},
    })


def _listed_record(path: Path, listed_at: dict[int, str], data: bytes, start: int, end: int) -> CodePair:
    """The record on bytes [start, end) of `data`, the corpus file `path`:
    the line of the record that ingest accepted and the split manifest
    lists at `start` in `listed_at`. A span that holds no record, or another
    record than that, means that the manifest is wrong, and raises
    AutopatchError naming the file and the span's line."""
    try:
        pair = parse_record(loads(data[start:end]), 0)  # a failure's message is replaced below
    except (ValueError, AutopatchError):  # not UTF-8 JSON, or not a record
        pair = None
    if pair is not None and pair.id == listed_at[start]:
        return pair
    line_no = data.count(b"\n", 0, start) + 1
    held = "no record" if pair is None else f"record {pair.id!r}, not {listed_at[start]!r},"
    raise AutopatchError(f"{path}: line {line_no} holds {held} at the split manifest's"
                         f" span [{start}, {end}]")


def load_split(corpus_path: Path | str, manifest_path: Path | str) -> tuple[Corpus, CorpusSplit]:
    """The split that `write_split` recorded, over the corpus file's bytes:
    each set is `Rows` that decode a record from the span the manifest
    gives for it when a stage reads it, and the corpus is the database set,
    the only records a stage looks up by id. Raises AutopatchError naming
    the manifest when it is malformed (a span outside the file, or two ids'
    spans at one offset, included), and naming the corpus when its SHA-256
    is not the one the manifest records, since the spans then point into
    another file, or when a record is read whose span holds another one."""
    path, corpus_path = Path(manifest_path), Path(corpus_path)
    data = corpus_path.read_bytes()
    try:
        manifest = loads(path.read_bytes())
        database_ids, test_ids = manifest["database_ids"], manifest["test_ids"]
        listed = Counter([*database_ids, *test_ids])
        if max(listed.values(), default=0) > 1:  # in one set twice, or in both sets
            raise ValueError(f"id listed twice: {', '.join(repr(i) for i, n in listed.items() if n > 1)}")
        recorded = manifest["corpus_sha256"]
        if not isinstance(recorded, str):
            raise TypeError(f"corpus_sha256 is {type(recorded).__name__}, not a string")
        if recorded != hashlib.sha256(data).hexdigest():
            raise AutopatchError(f"{corpus_path}: the corpus has changed since {path} was written;"
                                 f" run `autopatch ingest` again")
        spans, listed_at = array("q"), {}
        for record_id in listed:
            start, end = manifest["spans"][record_id]
            if not 0 <= start < end <= len(data):
                raise ValueError(f"span [{start}, {end}] of {record_id!r} is not within the"
                                 f" corpus's {len(data)} bytes")
            spans.extend((start, end))
            if start in listed_at:  # one line cannot hold both records
                raise ValueError(f"span [{start}, {end}] of {record_id!r} starts where"
                                 f" {listed_at[start]!r}'s does")
            listed_at[start] = record_id
    except (ValueError, KeyError, TypeError) as exc:  # not UTF-8 JSON, or not the manifest's shape
        raise AutopatchError(f"{path}: malformed split manifest: {type(exc).__name__}: {exc}") from None
    decode, cut = functools.partial(_listed_record, corpus_path, listed_at), 2 * len(database_ids)
    database = Rows(data, spans[:cut], decode)
    return Corpus(database, database_ids, None), CorpusSplit(database, Rows(data, spans[cut:], decode))
