from __future__ import annotations

import hashlib
import json
import math
import random
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autopatch._io import service_error
from autopatch.corpus import CodePair
from autopatch.pipeline import INDEX_JOURNAL, index_path, run_ingest
from autopatch.errors import AutopatchError
from autopatch.retrieval import (
    LOCAL_DIM,
    IndexEntry,
    IndexRecord,
    LocalHashingProvider,
    RemoteEmbeddingProvider,
    SourceKind,
    VectorIndex,
    _MIN_ROW_NORM,
    _stable_bucket,
    build_index,
    cosine_similarity,
    embed_text,
    hash_grams,
    load_index,
    retrieve_top1,
    save_index,
)

from conftest import DB_COUNT, GOLDEN_DIR, SEED
from helpers import fixture_pairs, index_slow_first, scan_top1


def _pair(record_id: str, code: str = "int main(){return 0;}") -> CodePair:
    return CodePair(
        id=record_id,
        problem_id="p",
        original_code=code,
        optimized_code=code,
        labels=frozenset(),
        testcases=(),
    )


def _entry(record_id: str, vector) -> IndexEntry:
    return IndexEntry(
        record_id=record_id,
        vector=np.asarray(vector, dtype=np.float32),
        diff_text="",
        rationale="",
    )


def _index(entries) -> VectorIndex:
    return VectorIndex(
        ids=tuple(e.record_id for e in entries),
        matrix=np.stack([e.vector for e in entries]),
        metadata=[(e.diff_text, e.rationale) for e in entries],
        source_kind=SourceKind.RAW_SOURCE,
    )


# --- local provider -------------------------------------------------------------


def test_local_embedding_deterministic():
    provider = LocalHashingProvider()
    text = "for (int i = 0; i < n; i++) s += i;"
    first = provider.embed(text)
    second = provider.embed(text)
    assert first.dtype == np.float32
    assert np.array_equal(first, second)


def test_local_embedding_unit_norm():
    provider = LocalHashingProvider()
    for text in ("x", "int main(){}", "a b", "// nothing but a comment"):
        assert abs(np.linalg.norm(provider.embed(text)) - 1.0) < 1e-6


def test_disjoint_trigrams_are_orthogonal():
    # Verified disjoint under the same hashing the provider uses.
    a = "int alpha = beta + gamma;"
    b = "while (delta) { epsilon(zeta); }"
    buckets_a = {_stable_bucket(g, 256) for g in hash_grams(a)}
    buckets_b = {_stable_bucket(g, 256) for g in hash_grams(b)}
    assert not buckets_a & buckets_b
    provider = LocalHashingProvider()
    assert cosine_similarity(provider.embed(a), provider.embed(b)) == 0.0


def test_embed_text_rejects_empty():
    with pytest.raises(AutopatchError, match="^cannot embed empty text$"):
        embed_text("", LocalHashingProvider())


def _reference_embedding(text: str) -> np.ndarray:
    """One digest per gram occurrence, no memo: the exact reference."""
    counts = np.zeros(LOCAL_DIM, dtype=np.float64)
    for gram in hash_grams(text):
        counts[_stable_bucket(gram, LOCAL_DIM)] += 1.0
    return (counts / np.linalg.norm(counts)).astype(np.float32)


_CPP_SOURCES = [
    "int main(){return 0;}",
    '#include <cstdio>\nint main() {\n  // sum the squares\n  long s = 0;\n'
    '  for (int i = 0; i < 100; ++i) s += 1LL * i * i;\n'
    '  printf("%ld\\n", s); /* done */\n  return 0;\n}\n',
    "std::vector<int> v{1, 2, 3};\nauto it = v.begin();\nx <<= 0x1Fu; y = 1.5e-3f;\n"
    "char c = '\\'';\nconst char *s = \"tab\\t \\\"q\\\"\";\np->*m; a <=> b; f(...);\n",
    # hash_grams' fallbacks: a run of under three tokens, then character trigrams
    "x y",
    "/* only a comment */",
    "   ",
]
_PINNED_TEXTS = [
    *((GOLDEN_DIR / f"{name}.serialized.txt").read_text(encoding="utf-8")
      for name in ("prog03", "prog05")),
    *_CPP_SOURCES,
]
# SHA-256 of the concatenated float32 vectors of _PINNED_TEXTS. Indexes on
# disk hold such vectors, so a change to tokenizing or hashing must fail here
# rather than silently invalidate them.
_PINNED_EMBEDDING_SHA256 = "4cdf13b63fe3e986f067550e3b088f7f2f7019667b5e98a29ace2430307844a2"


def test_local_embedding_bytes_are_pinned():
    provider = LocalHashingProvider()
    blob = b"".join(provider.embed(text).tobytes() for text in _PINNED_TEXTS)
    assert hashlib.sha256(blob).hexdigest() == _PINNED_EMBEDDING_SHA256


def _varied_texts() -> list[str]:
    """Fifty texts that share many trigrams: the pinned texts, both sides of
    the fixture pairs, and shuffled token soups drawn from them."""
    texts = _PINNED_TEXTS + [code for pair in fixture_pairs()
                             for code in (pair.original_code, pair.optimized_code)]
    vocabulary = sorted({token for text in texts for token in text.split()})
    rng = random.Random(SEED)
    while len(texts) < 50:
        texts.append(" ".join(rng.choices(vocabulary, k=rng.randint(1, 80))))
    return texts


def test_local_embedding_equals_reference_fresh_provider():
    for text in _PINNED_TEXTS:
        assert LocalHashingProvider().embed(text).tobytes() == _reference_embedding(text).tobytes()


@pytest.mark.parametrize("order", [1, -1], ids=["forward", "reverse"])
def test_local_embedding_equals_reference_with_reused_provider(order):
    provider = LocalHashingProvider()
    for text in _varied_texts()[::order]:
        assert provider.embed(text).tobytes() == _reference_embedding(text).tobytes()


def test_local_embedding_equals_reference_with_provider_shared_by_threads():
    provider = LocalHashingProvider()
    texts = _varied_texts() * 4
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the threads' memo reads and writes
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            vectors = list(pool.map(provider.embed, texts, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    for text, vector in zip(texts, vectors):
        assert vector.tobytes() == _reference_embedding(text).tobytes()


# --- cosine -----------------------------------------------------------------------


def test_cosine_self_similarity():
    v = np.asarray([0.3, -1.2, 4.0], dtype=np.float32)
    assert cosine_similarity(v, v) == pytest.approx(1.0, abs=1e-9)


def test_cosine_orthogonal():
    a = np.asarray([1.0, 0.0], dtype=np.float32)
    b = np.asarray([0.0, 1.0], dtype=np.float32)
    assert cosine_similarity(a, b) == 0.0


def test_cosine_known_value():
    a = np.asarray([1.0, 2.0, 3.0], dtype=np.float32)
    b = np.asarray([4.0, 5.0, 6.0], dtype=np.float32)
    expected = 32.0 / (math.sqrt(14.0) * math.sqrt(77.0))
    assert cosine_similarity(a, b) == pytest.approx(expected, abs=1e-4)
    assert cosine_similarity(a, b) == pytest.approx(0.9746, abs=1e-4)


def test_cosine_dim_mismatch_and_zero_vector():
    with pytest.raises(AutopatchError, match=r"^\(3,\) vs \(4,\)$"):
        cosine_similarity(np.ones(3, dtype=np.float32), np.ones(4, dtype=np.float32))
    with pytest.raises(AutopatchError, match="^cosine similarity undefined for zero vectors$"):
        cosine_similarity(np.zeros(3, dtype=np.float32), np.ones(3, dtype=np.float32))


# --- index build / persistence -----------------------------------------------------


def _records(n: int) -> list[IndexRecord]:
    return [
        IndexRecord(
            pair=_pair(f"r{i}", f"int main(){{return {i};}}"),
            diff_text=f"ΔS: none (r{i})",
            rationale=f"rationale {i}",
            cfg_text=f"B0: return {i} -> succ: ",
        )
        for i in range(n)
    ]


def test_build_index_cardinality_and_dim(tmp_path):
    index = build_index(_records(5), LocalHashingProvider(), SourceKind.RAW_SOURCE,
                        path=tmp_path / "index.jsonl")
    assert len(index.ids) == 5
    assert index.dim == 256
    assert all(vector.shape == (256,) for vector in index.matrix)
    assert list(index.ids) == [f"r{i}" for i in range(5)]


def test_build_index_duplicate_id(tmp_path):
    records = _records(2) + _records(1)
    with pytest.raises(AutopatchError, match=r"^duplicate id 'r0' \(index build\)$"):
        build_index(records, LocalHashingProvider(), SourceKind.RAW_SOURCE,
                    path=tmp_path / "index.jsonl")
    assert not (tmp_path / "index.jsonl").exists()


def test_build_index_kind_selects_embedded_text(tmp_path):
    records = _records(3)
    provider = LocalHashingProvider()
    cfg_index = build_index(records, provider, SourceKind.CFG_SERIALIZATION,
                            path=tmp_path / "cfg.jsonl")
    src_index = build_index(records, provider, SourceKind.RAW_SOURCE,
                            path=tmp_path / "source.jsonl")
    for record, cfg_vector, src_vector in zip(records, cfg_index.matrix, src_index.matrix):
        assert np.array_equal(cfg_vector, provider.embed(record.cfg_text))
        assert np.array_equal(src_vector, provider.embed(record.pair.original_code))


def test_build_index_concurrent_commit_order(tmp_path, pairs, corpus_file, dump_graphs):
    # The index stage prepares records concurrently and out of order, yet
    # commits the journal and each index in database order, with the vectors
    # a sequential build over the same records gives.
    ingest = run_ingest(corpus_file, DB_COUNT, SEED, tmp_path / "ingest")
    database = ingest.split.database_set
    transport = index_slow_first(tmp_path, ingest, pairs)
    assert transport.finished != sorted(transport.finished)

    journal = (tmp_path / "index" / INDEX_JOURNAL).read_text(encoding="utf-8")
    assert [json.loads(line)["record_id"] for line in journal.splitlines()] == [
        p.id for p in database
    ]
    sequential = build_index(
        [IndexRecord(pair=p, diff_text="", rationale="", cfg_text="") for p in database],
        LocalHashingProvider(),
        SourceKind.RAW_SOURCE,
        path=tmp_path / "sequential.jsonl",
    )
    concurrent = load_index(index_path(tmp_path / "index", SourceKind.RAW_SOURCE))
    assert sequential.ids == concurrent.ids
    for a, b in zip(sequential.matrix, concurrent.matrix):
        assert np.array_equal(a, b)
    cfg_index = load_index(index_path(tmp_path / "index", SourceKind.CFG_SERIALIZATION))
    assert list(cfg_index.ids) == [p.id for p in database]


def test_build_index_at_database_scale(tmp_path):
    index = build_index(
        _records(1000),
        LocalHashingProvider(),
        SourceKind.RAW_SOURCE,
        path=tmp_path / "big.jsonl",
    )
    assert len(index.ids) == 1000
    assert load_index(tmp_path / "big.jsonl").ids[999] == "r999"


def test_index_round_trip_bit_exact(tmp_path):
    index = build_index(_records(6), LocalHashingProvider(), SourceKind.CFG_SERIALIZATION,
                        path=tmp_path / "built.jsonl")
    path = tmp_path / "index.jsonl"
    save_index(index, path)
    loaded = load_index(path)
    assert loaded.dim == index.dim
    assert loaded.source_kind == index.source_kind
    assert len(loaded.ids) == len(index.ids)
    assert loaded.ids == index.ids
    assert list(loaded.metadata) == index.metadata
    for original, restored in zip(index.matrix, loaded.matrix):
        assert original.tobytes() == restored.tobytes()


# Row text for the loaded metadata's decode: "Δ" and other non-ASCII text, the
# characters JSON escapes (quotes, backslashes, newlines), control characters,
# which save_index writes as `\u` escapes, a literal backslash-u, and "".
_ROW_TEXT = st.lists(
    st.sampled_from(["Δ", '"', "\\", "\n", "\x01", "\x1f", "\u2028", "é", "😀", "\\u0394"])
    | st.characters(blacklist_categories=("Cs",)),
    max_size=12,
).map("".join)


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.tuples(_ROW_TEXT, _ROW_TEXT), min_size=1, max_size=8),
       seed=st.integers(0, 2**32 - 1))
def test_loaded_metadata_equals_a_per_line_decode(tmp_path_factory, rows, seed):
    path = tmp_path_factory.mktemp("rows") / "index.jsonl"
    rng = np.random.default_rng(seed)
    ids = tuple(f"Δ{i}" for i in range(len(rows)))
    built = VectorIndex(ids, rng.normal(size=(len(rows), 4)).astype(np.float32), rows,
                        SourceKind.RAW_SOURCE)
    save_index(built, path)
    loaded = load_index(path)

    decoded = [json.loads(line) for line in path.read_bytes().split(b"\n")[1:] if line]
    assert list(loaded.metadata) == [(m["diff_text"], m["rationale"]) for m in decoded] == rows
    assert len(loaded.metadata) == len(rows)
    assert loaded.metadata[-1] == rows[-1] and loaded.metadata[1:] == rows[1:]
    with pytest.raises(IndexError):
        loaded.metadata[len(rows)]
    for query in (*built.matrix, rng.normal(size=4)):
        (got, got_score), (want, want_score) = retrieve_top1(loaded, query), retrieve_top1(built, query)
        assert (got.record_id, got.diff_text, got.rationale, got.vector.tobytes(), got_score) == \
            (want.record_id, want.diff_text, want.rationale, want.vector.tobytes(), want_score)


def test_a_loaded_index_holds_about_its_metadata_file(tmp_path):
    # Decoded, a diff text that holds a "Δ" takes 2 bytes a character, so a
    # list of decoded rows held about 1.8 times the file's size.
    count = 2000
    ids = tuple(f"r{i:04d}" for i in range(count))
    metadata = [("".join(f"Δ B{i}.{j}: loop bound hoisted out of B{j + 1}\n" for j in range(30)),
                 f"Record {i}: the invariant bound is computed once, before the loop. " * 3)
                for i in range(count)]
    path = tmp_path / "index.jsonl"
    save_index(VectorIndex(ids, np.ones((count, 8), np.float32), metadata, SourceKind.RAW_SOURCE),
               path)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        index = load_index(path)
        held = tracemalloc.get_traced_memory()[0] - before - index.matrix.nbytes
    finally:
        tracemalloc.stop()
    assert len(index.metadata) == count
    assert held <= 1.1 * path.stat().st_size, (held, path.stat().st_size)


def test_index_header_format(tmp_path):
    index = build_index(_records(2), LocalHashingProvider(), SourceKind.RAW_SOURCE,
                        path=tmp_path / "built.jsonl")
    path = tmp_path / "index.jsonl"
    save_index(index, path)
    header = json.loads(path.read_text(encoding="utf-8").splitlines()[0])
    assert header == {"count": 2, "dim": 256, "source_kind": "raw_source", "version": 1}
    blob = (tmp_path / "index.jsonl.vec").read_bytes()
    assert len(blob) == 2 * 256 * 4  # count x dim little-endian float32


# --- retrieval -----------------------------------------------------------------------


def test_retrieve_stored_vector_scores_one():
    rng = np.random.default_rng(5)
    entries = [_entry(f"r{i}", rng.normal(size=16)) for i in range(20)]
    index = _index(entries)
    entry, score = retrieve_top1(index, entries[7].vector)
    assert entry.record_id == "r7"
    assert score == pytest.approx(1.0, abs=1e-9)


def test_retrieve_tie_breaks_to_smallest_record_id():
    shared = [1.0, 2.0, 3.0]
    entries = [_entry("zzz", shared), _entry("aaa", shared), _entry("mmm", [3.0, -1.0, 0.5])]
    index = _index(entries)
    entry, score = retrieve_top1(index, np.asarray(shared, dtype=np.float32))
    assert entry.record_id == "aaa"
    assert score == pytest.approx(1.0, abs=1e-9)


def test_retrieve_matches_linear_scan_oracle():
    rng = np.random.default_rng(42)
    entries = [_entry(f"r{i:03d}", rng.normal(size=24)) for i in range(150)]
    index = _index(entries)
    for _ in range(25):
        query = rng.normal(size=24).astype(np.float32)
        best = max(
            ((cosine_similarity(e.vector, query), e.record_id) for e in entries),
            key=lambda pair: (pair[0], [-ord(c) for c in pair[1]]),
        )
        entry, score = retrieve_top1(index, query)
        assert (score, entry.record_id) == best


def test_retrieve_scale_invariant():
    rng = np.random.default_rng(9)
    entries = [_entry(f"r{i}", rng.normal(size=12)) for i in range(30)]
    index = _index(entries)
    query = rng.normal(size=12).astype(np.float32)
    baseline, _ = retrieve_top1(index, query)
    for factor in (0.001, 0.5, 7.0, 4096.0):
        scaled, _ = retrieve_top1(index, (query * factor).astype(np.float32))
        assert scaled.record_id == baseline.record_id


def test_retrieve_empty_index_and_dim_mismatch():
    with pytest.raises(AutopatchError, match="^index is empty$"):
        retrieve_top1(VectorIndex((), np.zeros((0, 4), np.float32), [], SourceKind.RAW_SOURCE),
                      np.ones(4, dtype=np.float32))
    index = _index([_entry("a", [1.0, 0.0])])
    with pytest.raises(AutopatchError, match=r"^query shape \(3,\) vs index dim 2$"):
        retrieve_top1(index, np.ones(3, dtype=np.float32))


def test_retrieve_zero_query_and_zero_row_raise():
    index = _index([_entry("a", [1.0, 0.0]), _entry("b", [0.0, 1.0])])
    with pytest.raises(AutopatchError, match="^cosine similarity undefined for zero vectors$"):
        retrieve_top1(index, np.zeros(2, dtype=np.float32))
    index = _index([_entry("a", [1.0, 0.0]), _entry("b", [0.0, 0.0])])
    with pytest.raises(AutopatchError, match="^cosine similarity undefined for zero vectors$"):
        retrieve_top1(index, np.ones(2, dtype=np.float32))


def test_retrieve_full_rescore_fallback_equals_exhaustive_scan():
    # Rows the float32 shortlist bound does not cover: one of norm below
    # _MIN_ROW_NORM, and one whose float32 products overflow. retrieve_top1
    # then rescores every row, and must still agree with the exhaustive scan,
    # ties (scaled copies of a row) going to the smallest id.
    rng = np.random.default_rng(11)
    dim = 16
    base = np.abs(rng.normal(size=(8, dim))).astype(np.float32)
    ids = tuple(f"r{i}" for i in range(7, -1, -1))  # the smallest ids sit last
    tiny, huge = base.copy(), base.copy()
    tiny[2] = base[6] * np.float32(1e-35)
    huge[2] = np.float32(3e38)
    huge[1] = base[5] * np.float32(2.0)
    assert VectorIndex(ids, tiny, [], SourceKind.RAW_SOURCE).row_norms.min() <= _MIN_ROW_NORM
    for matrix in (tiny, huge):
        index = VectorIndex(ids, matrix, [(record_id, "") for record_id in ids],
                            SourceKind.RAW_SOURCE)
        for query in (*base, np.abs(rng.normal(size=dim)).astype(np.float32)):
            if matrix is huge:
                unit = (query / np.linalg.norm(query)).astype(np.float32)
                with np.errstate(over="ignore"):
                    assert not np.isfinite(np.einsum("ij,j->i", matrix, unit)).all()
            expected_id, expected_score = scan_top1(index, query)
            with np.errstate(over="ignore"):
                entry, score = retrieve_top1(index, query)
            assert entry.record_id == expected_id
            assert np.float64(score).tobytes() == np.float64(expected_score).tobytes()


@st.composite
def _planted_index_and_query(draw):
    """A random index with shuffled ids and planted duplicate rows (exact,
    positive-scaled, or one float32 step off) and a cluster of near-copies
    of one hub row (perturbed by 1e-8 to 1e-5), plus a float32 or float64
    query that is random, equal to a stored row, or a near-copy of the hub."""
    n = draw(st.integers(1, 300))
    dim = draw(st.integers(2, 1536))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def near(row):
        return row + rng.normal(size=dim) * 10.0 ** rng.uniform(-8, -5)

    matrix = rng.normal(size=(n, dim)).astype(np.float32)
    for kind in draw(st.lists(st.sampled_from(["exact", "scaled", "step"]), max_size=8)):
        src, dst = rng.integers(n, size=2)
        if kind == "exact":
            matrix[dst] = matrix[src]
        elif kind == "scaled":
            matrix[dst] = matrix[src] * np.float32(rng.uniform(0.01, 100.0))
        else:
            matrix[dst] = matrix[src]
            k = rng.integers(dim)
            matrix[dst, k] = np.nextafter(matrix[dst, k], np.float32(np.inf))
    hub = matrix[rng.integers(n)].copy()
    for dst in rng.integers(n, size=draw(st.integers(0, n))):
        matrix[dst] = near(hub)
    ids = [f"r{i:03d}" for i in rng.permutation(n)]
    index = VectorIndex(tuple(ids), matrix, [(i, "") for i in ids], SourceKind.RAW_SOURCE)
    query = draw(st.sampled_from(["random", "stored", "near"]))
    query = {"random": rng.normal(size=dim), "stored": matrix[rng.integers(n)],
             "near": near(hub)}[query]
    return index, query.astype(draw(st.sampled_from([np.float32, np.float64])))


@settings(max_examples=100, deadline=None)
@given(_planted_index_and_query())
def test_retrieve_equals_exhaustive_scan_oracle(case):
    index, query = case
    expected_id, expected_score = scan_top1(index, query)
    entry, score = retrieve_top1(index, query)
    assert entry.record_id == expected_id
    assert np.float64(score).tobytes() == np.float64(expected_score).tobytes()
    row = index.ids.index(expected_id)
    assert entry.diff_text == index.metadata[row][0]
    assert entry.vector.tobytes() == index.matrix[row].tobytes()


# --- remote provider --------------------------------------------------------------


def test_remote_provider_request_and_response(monkeypatch):
    captured = {}

    def fake_post(url, payload, api_key, timeout_s):
        captured.update(url=url, payload=payload, api_key=api_key)
        return {"data": [{"embedding": [0.1, 0.2, 0.3]}]}

    monkeypatch.setattr("autopatch.retrieval.http_post_json", fake_post)
    provider = RemoteEmbeddingProvider("http://svc/embed", api_key="k")
    vector = embed_text("int main(){}", provider)
    assert captured["url"] == "http://svc/embed"
    assert captured["payload"] == {"model": "", "input": ["int main(){}"]}
    assert captured["api_key"] == "k"
    assert vector.dtype == np.float32
    assert vector.shape == (3,)


def test_remote_provider_unreachable(monkeypatch):
    def refuse(request, timeout):
        raise OSError("connection refused")

    monkeypatch.setattr("urllib.request.urlopen", refuse)
    provider = RemoteEmbeddingProvider("http://svc/embed", api_key="")
    with pytest.raises(AutopatchError, match="^service returned 0: service unreachable: connection refused$"):
        provider.embed("x")


def test_remote_provider_malformed_response(monkeypatch):
    bodies = (
        {"unexpected": True},
        {"data": []},
        [],
        {"data": [{"embedding": ["x", 1]}]},
        {"data": [{"embedding": [[0.1], [0.2, 0.3]]}]},
        {"data": [{"embedding": {"x": 1}}]},
    )
    provider = RemoteEmbeddingProvider("http://svc/embed", api_key="")
    for body in bodies:
        monkeypatch.setattr("autopatch.retrieval.http_post_json", lambda *args: body)
        with pytest.raises(AutopatchError,
                           match="^service returned 0: malformed embedding response: "):
            provider.embed("x")


def test_remote_provider_from_env(monkeypatch):
    monkeypatch.delenv("AUTOPATCH_EMBED_BASE", raising=False)
    with pytest.raises(AutopatchError, match="^AUTOPATCH_EMBED_BASE is not set$"):
        RemoteEmbeddingProvider.from_env()
    monkeypatch.setenv("AUTOPATCH_EMBED_BASE", "http://svc/embed")
    monkeypatch.setenv("AUTOPATCH_EMBED_KEY", "secret")
    provider = RemoteEmbeddingProvider.from_env()
    assert provider.base_url == "http://svc/embed"
    assert provider.api_key == "secret"


def test_build_index_attaches_record_id_to_provider_error(tmp_path):
    class FailingProvider:
        name = "failing"

        def embed(self, text):
            raise AutopatchError("boom")

    with pytest.raises(AutopatchError, match="^record r0: boom$"):
        build_index(_records(1), FailingProvider(), SourceKind.RAW_SOURCE,
                    path=tmp_path / "index.jsonl")


def test_build_index_wraps_service_error_naming_the_record(tmp_path):
    class BusyProvider:
        name = "busy"

        def embed(self, text):
            raise service_error(503, "busy")

    with pytest.raises(AutopatchError, match="^record r0: service returned 503: busy$") as excinfo:
        build_index(_records(2), BusyProvider(), SourceKind.RAW_SOURCE,
                    path=tmp_path / "index.jsonl")
    assert str(excinfo.value.__cause__) == "service returned 503: busy"
