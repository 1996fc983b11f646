"""Embed program representations and retrieve the single closest example.

The index is deliberately a flat matrix plus exhaustive cosine scoring: at a
few thousand entries approximate-NN machinery buys nothing and exact scoring
keeps retrieval trivially testable. Two embedding providers are supported: a
remote HTTP service and a deterministic local fallback that feature-hashes
token trigrams.

Index persistence is two files: `<path>` holds a JSON header line followed by
one JSON metadata line per entry, and `<path>.vec` holds the vectors as
count x dim little-endian float32, in metadata order. The header (version 2)
lists the record ids and the SHA-256 of the metadata lines and of the `.vec`
bytes, so a load checks both files by their digests, as git checks its index
file by the checksum at its end, and decodes no metadata line: a loaded
index keeps the metadata file's bytes and decodes a row only when it is read.
"""

from __future__ import annotations

import hashlib
import json
import operator
import os
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from pathlib import Path

import numpy as np

from ._io import Rows, canonical, http_post_json, line_spans, loads, replacing, service_error
from .corpus import CodePair
from .errors import AutopatchError
from .metrics import tokenize

EMBED_BASE_ENV = "AUTOPATCH_EMBED_BASE"
EMBED_KEY_ENV = "AUTOPATCH_EMBED_KEY"
EMBED_TIMEOUT_S = 60.0

LOCAL_DIM = 256

INDEX_VERSION = 2


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
    one's is a read-only `_io.Rows` of its metadata file."""

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
    vectors = np.ascontiguousarray(index.matrix, dtype="<f4")
    rows = [canonical({"record_id": record_id, "diff_text": diff_text, "rationale": rationale})
            .encode("utf-8") + b"\n"
            for record_id, (diff_text, rationale) in zip(index.ids, index.metadata)]
    rows_sha256 = hashlib.sha256()
    for row in rows:  # not over a joined copy of the rows
        rows_sha256.update(row)
    header = {
        "version": INDEX_VERSION,
        "dim": index.dim,
        "source_kind": index.source_kind.value,
        "count": len(index.ids),
        "ids": list(index.ids),
        "rows_sha256": rows_sha256.hexdigest(),
        "vec_sha256": hashlib.sha256(vectors).hexdigest(),
    }
    # The vectors first, so the metadata file is never newer than its vectors.
    with replacing(vector_sidecar_path(path), "wb") as handle:
        vectors.tofile(handle)
    with replacing(path, "wb") as handle:
        # ASCII, not `canonical`, so a header that lists a non-ASCII id keeps its bytes.
        handle.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        handle.writelines(rows)


def _metadata_row(data: bytes, start: int, end: int) -> tuple[str, str]:
    """The `(diff_text, rationale)` pair on bytes [start, end) of a metadata
    file whose digest `load_index` checked."""
    meta = loads(data[start:end])
    return meta["diff_text"], meta["rationale"]


def load_index(path: Path | str) -> VectorIndex:
    """The index saved at `path`. Its header is decoded and both files are
    checked against the header's digests; no metadata line is decoded until
    it is read. Any mismatch, an index of another version or a file cut
    short raises AutopatchError naming the file."""
    path = Path(path)
    data = path.read_bytes()
    start = data.find(b"\n") + 1 or len(data)
    try:
        header = loads(data[:start])
        if header["version"] != INDEX_VERSION:
            raise ValueError(f"index version {header['version']!r} is not {INDEX_VERSION};"
                             f" build the index again")
        count, dim = operator.index(header["count"]), operator.index(header["dim"])
        source_kind = SourceKind(header["source_kind"])
        ids, vec_sha256 = header["ids"], header["vec_sha256"]
        if not (isinstance(ids, list) and all(isinstance(i, str) for i in ids)):
            raise TypeError("the header's ids are not a list of strings")
        if len(ids) != count:
            raise ValueError(f"the header lists {len(ids)} ids for a count of {count}")
        # Through a memoryview, so the rows are not copied to be hashed.
        if hashlib.sha256(memoryview(data)[start:]).hexdigest() != header["rows_sha256"]:
            raise ValueError("the metadata lines do not match the header's rows_sha256")
    except (ValueError, KeyError, TypeError) as exc:  # not UTF-8 JSON, or not the index's shape
        raise AutopatchError(f"{path}: malformed index file: {type(exc).__name__}: {exc}") from None
    spans = line_spans(data, start)  # the start and end of each metadata line
    if len(spans) // 2 != count:
        raise AutopatchError(f"{path}: index metadata truncated: {len(spans) // 2} != {count}")
    vec_path = vector_sidecar_path(path)
    flat = np.fromfile(vec_path, dtype="<f4")
    if flat.size != count * dim:
        raise AutopatchError(f"{vec_path}: vector blob holds {flat.size} floats, expected {count * dim}")
    if hashlib.sha256(flat).hexdigest() != vec_sha256:
        raise AutopatchError(f"{vec_path}: malformed index file: the vectors do not match the"
                             f" header's vec_sha256")
    return VectorIndex(ids=tuple(ids), matrix=flat.reshape(count, dim),
                       metadata=Rows(data, spans, _metadata_row), source_kind=source_kind)


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
