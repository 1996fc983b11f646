"""Embed program representations and retrieve the single closest example.

The index is deliberately a flat matrix plus exhaustive cosine scoring: at a
few thousand entries approximate-NN machinery buys nothing and exact scoring
keeps retrieval trivially testable. Two embedding providers are supported: a
remote HTTP service and a deterministic local fallback that feature-hashes
token trigrams.

Index persistence is two files: `<path>` holds a JSON header line followed by
one JSON metadata line per entry, and `<path>.vec` holds the vectors as
count x dim little-endian float32, in metadata order. A loaded index keeps
the metadata file's bytes and decodes a row only when it is read.
"""

from __future__ import annotations

import hashlib
import json
import operator
import os
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from pathlib import Path

import numpy as np

from ._io import http_post_json, loads, replacing, service_error
from .corpus import CodePair
from .errors import AutopatchError
from .metrics import tokenize

EMBED_BASE_ENV = "AUTOPATCH_EMBED_BASE"
EMBED_KEY_ENV = "AUTOPATCH_EMBED_KEY"
EMBED_TIMEOUT_S = 60.0

LOCAL_DIM = 256


class SourceKind(Enum):
    CFG_SERIALIZATION = "cfg_serialization"
    RAW_SOURCE = "raw_source"


def _stable_bucket(gram: tuple[str, ...], dim: int) -> int:
    digest = hashlib.blake2b("\x1f".join(gram).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little") % dim


def hash_grams(text: str) -> list[tuple[str, ...]]:
    """Token trigrams of the text, with fallbacks that guarantee at least one
    gram for any nonempty input (shorter token runs collapse to a single gram,
    token-free text falls back to character trigrams)."""
    tokens = tokenize(text)
    if len(tokens) >= 3:
        return list(zip(tokens, tokens[1:], tokens[2:]))
    if tokens:
        return [tuple(tokens)]
    chars = list(text.strip()) or list(text)
    if len(chars) >= 3:
        return list(zip(chars, chars[1:], chars[2:]))
    return [tuple(chars)]


class LocalHashingProvider:
    """Deterministic offline embedding: feature-hash token trigrams into a
    fixed number of buckets, then L2-normalize. Each gram's bucket is memoized
    for the provider's life; threads may share a provider, since a racing miss
    only stores the same bucket twice. The vectors do not depend on the memo."""

    def __init__(self):
        self._buckets: dict[tuple[str, ...], int] = {}

    def embed(self, text: str) -> np.ndarray:
        buckets = []
        for gram in hash_grams(text):
            bucket = self._buckets.get(gram)
            if bucket is None:
                bucket = self._buckets[gram] = _stable_bucket(gram, LOCAL_DIM)
            buckets.append(bucket)
        counts = np.bincount(buckets, minlength=LOCAL_DIM).astype(np.float64)
        norm = np.linalg.norm(counts)
        return (counts / norm).astype(np.float32)


class RemoteEmbeddingProvider:
    """HTTP embedding service speaking `{"model", "input": [text]}` requests
    and `{"data": [{"embedding": [...]}]}` responses."""

    def __init__(self, base_url: str, api_key: str):
        self.base_url = base_url
        self.api_key = api_key

    @classmethod
    def from_env(cls) -> "RemoteEmbeddingProvider":
        base = os.environ.get(EMBED_BASE_ENV)
        if not base:
            raise AutopatchError(f"{EMBED_BASE_ENV} is not set")
        return cls(base_url=base, api_key=os.environ.get(EMBED_KEY_ENV, ""))

    def embed(self, text: str) -> np.ndarray:
        payload = {"model": "", "input": [text]}
        response = http_post_json(self.base_url, payload, self.api_key, EMBED_TIMEOUT_S)
        try:
            return np.asarray(response["data"][0]["embedding"], dtype=np.float32)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise service_error(0, f"malformed embedding response: {exc}") from None


def embed_text(text: str, provider) -> np.ndarray:
    if not text:
        raise AutopatchError("cannot embed empty text")
    vector = provider.embed(text)
    if vector.ndim != 1:
        raise AutopatchError(f"provider returned shape {vector.shape}")
    if not np.linalg.norm(vector) > 0:
        raise AutopatchError("provider returned a zero vector")
    return vector.astype(np.float32)


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    if a.shape != b.shape:
        raise AutopatchError(f"{a.shape} vs {b.shape}")
    a64 = a.astype(np.float64)
    b64 = b.astype(np.float64)
    norm_a = np.linalg.norm(a64)
    norm_b = np.linalg.norm(b64)
    if norm_a == 0.0 or norm_b == 0.0:
        raise AutopatchError("cosine similarity undefined for zero vectors")
    return float(np.dot(a64, b64) / (norm_a * norm_b))


@dataclass(frozen=True)
class IndexEntry:
    """One retrieved example: a row of a VectorIndex with its metadata."""

    record_id: str
    vector: np.ndarray
    diff_text: str
    rationale: str


@dataclass(frozen=True, eq=False)
class VectorIndex:
    """A flat index: `ids[i]`, `matrix[i]` and `metadata[i]` (the pair of
    diff text and rationale) describe row i. The matrix is float32 of shape
    (len(ids), dim); it must not be mutated, since its row norms are computed
    once, on the first query. A built index's metadata is a list; a loaded
    one's is a read-only `_MetadataRows`."""

    ids: tuple[str, ...]
    matrix: np.ndarray
    metadata: Sequence[tuple[str, str]]
    source_kind: SourceKind

    @cached_property
    def row_norms(self) -> np.ndarray:
        # Summed in float64 without making a float64 copy of the matrix.
        return np.sqrt(np.einsum("ij,ij->i", self.matrix, self.matrix, dtype=np.float64))

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[1])


@dataclass(frozen=True)
class IndexRecord:
    """One record prepared for indexing: the pair, its rendered diff text,
    the stored rationale, and the canonical CFG serialization."""

    pair: CodePair
    diff_text: str
    rationale: str
    cfg_text: str


def embed_record(record: IndexRecord, source_kind: SourceKind, provider) -> np.ndarray:
    """The record's vector in a `source_kind` index: the embedding of its CFG
    serialization or of its source. Like a chat transport, a provider raises
    only AutopatchError, which is raised again naming the record."""
    text = record.cfg_text if source_kind is SourceKind.CFG_SERIALIZATION else record.pair.original_code
    try:
        return embed_text(text, provider)
    except AutopatchError as exc:
        raise AutopatchError(f"record {record.pair.id}: {exc}") from exc


def assemble_index(records: Sequence[IndexRecord], vectors: Sequence[np.ndarray],
                   source_kind: SourceKind, path: Path | str) -> VectorIndex:
    """The index of `records`, with `vectors[i]` the vector of record i,
    saved to `path`."""
    if not records:
        raise AutopatchError("no records to index")

    seen: set[str] = set()
    for record in records:
        if record.pair.id in seen:
            raise AutopatchError(f"duplicate id {record.pair.id!r} (index build)")
        seen.add(record.pair.id)

    dim = int(vectors[0].shape[0])
    for record, vector in zip(records, vectors):
        if vector.shape[0] != dim:
            raise AutopatchError(f"record {record.pair.id}: dim {vector.shape[0]} != {dim}")

    index = VectorIndex(
        ids=tuple(record.pair.id for record in records),
        matrix=np.stack(vectors),
        metadata=[(record.diff_text, record.rationale) for record in records],
        source_kind=source_kind,
    )
    save_index(index, path)
    return index


def build_index(records: Sequence[IndexRecord], provider, source_kind: SourceKind,
                path: Path | str) -> VectorIndex:
    """`embed_record` for every record, then `assemble_index`: a failure to
    embed a record raises AutopatchError naming that record; the caller
    decides skip policy."""
    vectors = [embed_record(record, source_kind, provider) for record in records]
    return assemble_index(records, vectors, source_kind, path)


def vector_sidecar_path(path: Path | str) -> Path:
    return Path(str(path) + ".vec")


def save_index(index: VectorIndex, path: Path | str) -> None:
    path = Path(path)
    header = {
        "version": 1,
        "dim": index.dim,
        "source_kind": index.source_kind.value,
        "count": len(index.ids),
    }
    # The vectors first, so the metadata file is never newer than its vectors.
    with replacing(vector_sidecar_path(path), "wb") as handle:
        index.matrix.astype("<f4").tofile(handle)
    with replacing(path, "w") as handle:
        handle.write(json.dumps(header, sort_keys=True) + "\n")
        for record_id, (diff_text, rationale) in zip(index.ids, index.metadata):
            meta = {"record_id": record_id, "diff_text": diff_text, "rationale": rationale}
            handle.write(json.dumps(meta, sort_keys=True, ensure_ascii=False) + "\n")


class _MetadataRows(Sequence):
    """The `(diff_text, rationale)` rows of a loaded index, kept as the bytes
    of its metadata file: row i is `data[spans[2i]:spans[2i + 1]]`, decoded
    each time it is read. Every row was decoded and checked once, at load."""

    def __init__(self, data: bytes, spans: array):
        self._data = data
        self._spans = spans

    def __len__(self) -> int:
        return len(self._spans) // 2

    def __getitem__(self, i):
        row = range(len(self))[i]  # an IndexError past either end, like a list's
        if isinstance(row, range):
            return [self[j] for j in row]
        meta = loads(self._data[self._spans[2 * row]:self._spans[2 * row + 1]])
        return meta["diff_text"], meta["rationale"]


def load_index(path: Path | str) -> VectorIndex:
    path = Path(path)
    data = path.read_bytes()
    ids: list[str] = []
    spans = array("q")  # the start and end of each nonblank metadata line
    # Checked in the order of a decode of every line, then the header's
    # fields, then every line's fields: the first of these to fail is named.
    missing, untyped = None, False
    try:
        start = data.find(b"\n") + 1 or len(data)
        header = loads(data[:start])
        while start < len(data):
            end = data.find(b"\n", start) + 1 or len(data)
            line = data[start:end]
            if line.strip():
                meta = loads(line)
                try:
                    row = (meta["record_id"], meta["diff_text"], meta["rationale"])
                except (KeyError, TypeError) as exc:
                    missing = missing or exc
                else:
                    untyped = untyped or not all(isinstance(text, str) for text in row)
                    ids.append(row[0])
                spans.extend((start, end))
            start = end
        count, dim = operator.index(header["count"]), operator.index(header["dim"])
        source_kind = SourceKind(header["source_kind"])
        if missing is not None:
            raise missing
        if untyped:
            raise TypeError("index metadata holds a value that is not a string")
    except (ValueError, KeyError, TypeError) as exc:  # not UTF-8 JSON, or not the index's shape
        raise AutopatchError(f"{path}: malformed index file: {type(exc).__name__}: {exc}") from None
    if len(ids) != count:
        raise AutopatchError(f"{path}: index metadata truncated: {len(ids)} != {count}")
    vec_path = vector_sidecar_path(path)
    flat = np.fromfile(vec_path, dtype="<f4")
    if flat.size != count * dim:
        raise AutopatchError(f"{vec_path}: vector blob holds {flat.size} floats, expected {count * dim}")
    return VectorIndex(ids=tuple(ids), matrix=flat.reshape(count, dim),
                       metadata=_MetadataRows(data, spans), source_kind=source_kind)


# How far a float32 matvec cosine can sit from the exact one, per unit of
# dimension: with the query scaled to unit length, the error is at most about
# (dim + 3) * 2**-24, and this is at least twice that. The bound assumes no
# float32 underflow, so it is used only for rows of norm above _MIN_ROW_NORM.
_SHORTLIST_MARGIN_PER_DIM = 4 * float(np.finfo(np.float32).eps)
_MIN_ROW_NORM = 2.0**-100


def retrieve_top1(index: VectorIndex, query: np.ndarray) -> tuple[IndexEntry, float]:
    """Exhaustive cosine argmax; ties go to the lexicographically smallest
    record id. Exactly one example is retrieved by design.

    One float32 matvec scores every row approximately and shortlists the rows
    within a rounding margin of the best. Only those are rescored, with
    `cosine_similarity`, so the winner and its score are exactly those of a
    scan that scores every row with `cosine_similarity`."""
    if not index.ids:
        raise AutopatchError("index is empty")
    if query.shape != (index.dim,):
        raise AutopatchError(f"query shape {query.shape} vs index dim {index.dim}")
    query64 = query.astype(np.float64)
    query_norm = np.linalg.norm(query64)
    if query_norm == 0.0 or (index.row_norms == 0.0).any():
        raise AutopatchError("cosine similarity undefined for zero vectors")

    # einsum, not BLAS: a BLAS matvec (2000 x 256) split across two threads took
    # ~8 ms on a 2-vCPU host, against 0.08 ms single-threaded here.
    unit_query = (query64 / query_norm).astype(np.float32)
    approx = np.einsum("ij,j->i", index.matrix, unit_query) / index.row_norms
    if np.isfinite(approx).all() and index.row_norms.min() > _MIN_ROW_NORM:
        margin = _SHORTLIST_MARGIN_PER_DIM * index.dim
        shortlist = np.flatnonzero(approx >= approx.max() - margin)
    else:  # overflow, underflow or non-finite input: no bound holds
        shortlist = range(len(index.ids))

    best_row = -1
    best_score = -np.inf
    for row in shortlist:
        score = cosine_similarity(index.matrix[row], query)
        if (
            best_row < 0
            or score > best_score
            or (score == best_score and index.ids[row] < index.ids[best_row])
        ):
            best_row, best_score = int(row), score
    diff_text, rationale = index.metadata[best_row]
    entry = IndexEntry(index.ids[best_row], index.matrix[best_row], diff_text, rationale)
    return entry, float(best_score)
