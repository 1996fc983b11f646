"""The three benchmark workloads.

Each workload has a `setup` (corpus generation, ingest and any prebuilt
index or cassette), a `batch` that runs the timed part once over the fixed
seeded corpus into a fresh directory, a `check` of that batch's outputs
against what was planted, and a `digest` of the artifacts it produced.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from autopatch import cli, pipeline
from autopatch.analyzer import parse_cfg_dump, split_dump_functions
from autopatch.cfg import serialize_cfg
from autopatch.cfg_diff import compute_diff, render_diff
from autopatch.corpus import split_corpus
from autopatch.metrics import normalize_whitespace
from autopatch.preprocess import preprocess_source
from autopatch.prompting import (
    RATIONALE_SYSTEM_TEXT,
    Cassette,
    LlmClient,
    LlmConfig,
    PromptMode,
    request_hash,
)
from autopatch.retrieval import (
    IndexRecord,
    LocalHashingProvider,
    SourceKind,
    build_index,
    embed_text,
    load_index,
    retrieve_top1,
)

import corpus_gen
from stub_analyzer import dump_cfg
from transport import ScriptedTransport, expected_patch

ALL_MODES = (PromptMode.ZERO_SHOT, PromptMode.NAIVE, PromptMode.CONTEXT)
SPLIT_SEED = 7


class CheckFailed(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _write_corpus(path: Path, records: list[dict]) -> None:
    with path.open("w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")


@dataclass
class SeededCorpus:
    path: Path
    records: list[dict]
    db_ids: list[str]
    test_ids: list[str]
    db_faults: set[str]
    test_faults: set[str]


def _make_corpus(work: Path, rng: random.Random, db_count: int, test_count: int,
                 db_chars: tuple[int, int] = (corpus_gen.MIN_CHARS, corpus_gen.MAX_CHARS),
                 rationale: bool = False, db_faults: int = 0, test_faults: int = 0) -> SeededCorpus:
    """Write a seeded corpus whose database and test records are generated
    for their role, with analyzer faults planted in a fixed number of each.
    The split the pipeline will choose depends only on the ids, in file
    order, so `split_corpus` over the ids gives it in advance."""
    ids = [f"r{i:05d}" for i in range(db_count + test_count)]
    split = split_corpus(ids, db_count, SPLIT_SEED)
    db_ids, test_ids = list(split.database_set), list(split.test_set)

    in_db = set(db_ids)
    sizes = {True: corpus_gen.stratified_sizes(rng, db_count, db_chars),
             False: corpus_gen.stratified_sizes(rng, test_count)}
    records = [corpus_gen.make_pair(rng, i, sizes[i in in_db].pop(), rationale) for i in ids]
    bad_db = set(rng.sample(sorted(db_ids), db_faults))
    bad_test = set(rng.sample(sorted(test_ids), test_faults))
    for record in records:
        if record["id"] in bad_db | bad_test:
            corpus_gen.plant_analyzer_fault(record)
    path = work / "pairs.jsonl"
    _write_corpus(path, records)
    return SeededCorpus(path, records, db_ids, test_ids, bad_db, bad_test)


def _split_ids(path: Path) -> tuple[list[str], list[str]]:
    manifest = json.loads(path.read_text(encoding="utf-8"))
    return manifest["database_ids"], manifest["test_ids"]


def _patch_failures(patch_dir: Path) -> set[tuple[str, str]]:
    failures = json.loads((patch_dir / pipeline.FAILURES_MANIFEST).read_text(encoding="utf-8"))
    return {(f["record_id"], f["mode"]) for f in failures}


def _check_patches(patch_dir: Path, by_id: dict, test_ids: list[str], failed: set) -> None:
    for target in test_ids:
        for mode in ALL_MODES:
            if (target, mode.value) in failed:
                continue
            path = pipeline.patch_path(patch_dir, mode, target)
            require(path.exists(), f"patch {mode.value}/{target} missing")
            want = expected_patch(by_id[target], mode is not PromptMode.ZERO_SHOT)
            require(path.read_text(encoding="utf-8") == want,
                    f"patch {mode.value}/{target} differs from the transport's answer")


# Analyzer failures quote the analyzer's input path, which lies in a fresh
# temporary directory on every call, so failure reasons in journals and
# manifests differ run to run. The digest masks that path and says so.
_ANALYZER_TMP_DIR = re.compile(rb"autopatch-cfg-\w+")
MASKED = "analyzer temp-dir paths in failure reasons"


def _mask(data: bytes) -> bytes:
    data = data.replace(tempfile.gettempdir().encode(), b"$TMPDIR")
    return _ANALYZER_TMP_DIR.sub(b"autopatch-cfg-*", data)


def _hash_files(digest, root: Path, names: list[str]) -> None:
    """Fold the named files (and, for directories, every file below them,
    in sorted order) into the digest; text files are masked first."""
    for name in names:
        path = root / name
        files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
        for file in files:
            data = file.read_bytes()
            if file.suffix != ".vec":
                data = _mask(data)
            digest.update(str(file.relative_to(root)).encode() + b"\0")
            digest.update(data + b"\0")


def _write_prior_cassette(path: Path, rng: random.Random, count: int) -> None:
    """A cassette holding `count` rationale entries of an earlier recording,
    each shaped as `LlmClient.complete` stores them, about 5 KB apiece.
    Record mode never looks entries up, so only their size matters."""
    config = LlmConfig()
    entries = {}
    for i, size in enumerate(corpus_gen.stratified_sizes(rng, count)):
        pair = corpus_gen.make_pair(rng, f"prior{i:05d}", size)
        user = (f"## Original program\n\n```cpp\n{pair['original_code']}```\n\n"
                f"## Optimized program\n\n```cpp\n{pair['optimized_code']}```")
        request = {"model": config.model,
                   "messages": [{"role": "system", "content": RATIONALE_SYSTEM_TEXT},
                                {"role": "user", "content": user}],
                   "temperature": config.temperature}
        content = f"The rewrite of {pair['id']} replaces its loops by closed forms."
        entries[request_hash(config.model, RATIONALE_SYSTEM_TEXT, user)] = {
            "request": request,
            "response": {"choices": [{"message": {"content": content}}]},
            "timestamp": "2000-01-01T00:00:00Z",
        }
    path.write_text(json.dumps(entries, sort_keys=True, ensure_ascii=False, indent=1),
                    encoding="utf-8")


class Workload:
    name = ""
    setup_repeats = 12
    idle_layers: tuple[str, ...] = ()  # layers a traced batch must never call
    items = 0  # units of work one batch attempts
    item_base = ""

    def __init__(self, seed: int):
        self.seed = seed

    def fresh_rng(self) -> random.Random:
        """The seeded generator; every setup starts it afresh, so repeated
        setups build the same inputs."""
        return random.Random(f"{self.name}-{self.seed}")

    def gauges(self, out: Path) -> dict[str, float]:
        return {"prompting.cassette_bytes": 0.0, "retrieval.index_entries": 0.0}

    def final_check(self, out: Path) -> None:
        """Oracle checks that are too slow to run after every batch."""


class Record(Workload):
    """record-mode ingest -> index -> optimize (all three modes)."""

    name = "record"
    DB, TESTS, DB_FAULTS, TEST_FAULTS = 60, 12, 3, 1
    DELAY_S = 0.02
    # The batch records into a cassette that already holds this many entries.
    # A paper-scale record run (about 300 rationales and 120 patches) ends
    # near 420 entries, so the batch's stores, which rewrite the whole file,
    # cost what they cost in the last stretch of such a run.
    PRIOR_ENTRIES = 300
    items = DB + TESTS * len(ALL_MODES)
    item_base = "database records indexed + (target, mode) patches attempted"
    idle_layers = ("prompting.Cassette.lookup", "metrics.levenshtein", "harness.compile_program")

    def setup(self, work: Path) -> None:
        rng = self.fresh_rng()
        self.corpus = _make_corpus(work, rng, self.DB, self.TESTS,
                                   db_faults=self.DB_FAULTS, test_faults=self.TEST_FAULTS)
        self.by_id = {r["id"]: r for r in self.corpus.records}
        self.prior_cassette = work / "prior-cassette.json"
        _write_prior_cassette(self.prior_cassette, rng, self.PRIOR_ENTRIES)

    def batch(self, out: Path) -> dict[str, float]:
        provider = LocalHashingProvider()
        shutil.copyfile(self.prior_cassette, out / "cassette.json")
        llm = LlmClient(LlmConfig(), Cassette(out / "cassette.json"), mode="record",
                        transport=ScriptedTransport(self.corpus.records, self.DELAY_S))
        ingest = pipeline.run_ingest(self.corpus.path, self.DB, SPLIT_SEED, out)
        start = time.perf_counter()
        pipeline.run_index(ingest.corpus, ingest.split, out / "index", provider, llm)
        indexed = time.perf_counter()
        pipeline.run_optimize(ingest.corpus, ingest.split, out / "index", out / "patches",
                              ALL_MODES, llm, provider)
        end = time.perf_counter()
        return {"index_rps": self.DB / (indexed - start),
                "optimize_pps": self.TESTS * len(ALL_MODES) / (end - indexed)}

    def check(self, out: Path) -> int:
        db_ids, test_ids = _split_ids(out / pipeline.SPLIT_MANIFEST)
        require((db_ids, test_ids) == (self.corpus.db_ids, self.corpus.test_ids),
                "split differs from the planned one")
        journal = [json.loads(line) for line in
                   (out / "index" / pipeline.INDEX_JOURNAL).read_text(encoding="utf-8").splitlines()]
        journal_failed = {e["record_id"] for e in journal if e["status"] != "ok"}
        require(journal_failed == self.corpus.db_faults,
                f"journal failures {sorted(journal_failed)} != planted {sorted(self.corpus.db_faults)}")
        failed = _patch_failures(out / "patches")
        require(failed == {(t, PromptMode.CONTEXT.value) for t in self.corpus.test_faults},
                f"optimize failures {sorted(failed)} != planted analyzer faults")
        _check_patches(out / "patches", self.by_id, test_ids, failed)
        return len(journal_failed) + len(failed)

    def digest(self, out: Path):
        digest = hashlib.sha256()
        _hash_files(digest, out, ["index", "patches"])
        return digest

    def gauges(self, out: Path) -> dict[str, float]:
        return {"prompting.cassette_bytes": float((out / "cassette.json").stat().st_size),
                "retrieval.index_entries": float(self.DB - self.DB_FAULTS)}


class ReplayLargeIndex(Workload):
    """`autopatch optimize --replay` through the CLI against a large index."""

    name = "replay-large-index"
    INDEX, TESTS, TEST_FAULTS = 2000, 40, 2
    INDEX_CHARS = (400, 700)  # database programs stay small to keep setup short
    setup_repeats = 2
    idle_layers = ("prompting.Cassette.store", "cfg_diff.compute_diff", "harness.compile_program")
    items = TESTS * len(ALL_MODES)
    item_base = "(target, mode) patches attempted"
    ORACLE_QUERIES = 8

    def setup(self, work: Path) -> None:
        corpus = _make_corpus(work, self.fresh_rng(), self.INDEX, self.TESTS,
                              db_chars=self.INDEX_CHARS, rationale=True,
                              test_faults=self.TEST_FAULTS)
        self.corpus_path, self.test_bad = corpus.path, corpus.test_faults
        ingest = pipeline.run_ingest(self.corpus_path, self.INDEX, SPLIT_SEED, work)
        self.split_path = ingest.manifest_path

        provider = LocalHashingProvider()
        self.index_dir = work / "index"
        prepared = []
        for pair in ingest.split.database_set:
            graphs = []
            for code in (pair.original_code, pair.optimized_code):
                (_, section), = split_dump_functions(dump_cfg(preprocess_source(code).output_code))
                graphs.append(parse_cfg_dump(section))
            diff = compute_diff(*graphs)
            prepared.append(IndexRecord(pair=pair, diff_text=render_diff(diff, *graphs),
                                        rationale=pair.rationale, cfg_text=serialize_cfg(graphs[0])))
        for kind in SourceKind:
            build_index(prepared, provider, kind, path=pipeline.index_path(self.index_dir, kind))

        self.cassette = work / "cassette.json"
        llm = LlmClient(LlmConfig(), Cassette(self.cassette), mode="record",
                        transport=ScriptedTransport(corpus.records, 0.0))
        self.recorded = work / "recorded"
        pipeline.run_optimize(ingest.corpus, ingest.split, self.index_dir, self.recorded,
                              ALL_MODES, llm, provider)
        self.test_ids = [p.id for p in ingest.split.test_set]
        self.query_codes = {p.id: p.original_code for p in ingest.split.test_set}

    def batch(self, out: Path) -> dict[str, float]:
        argv = ["optimize", "--corpus", str(self.corpus_path), "--split", str(self.split_path),
                "--index", str(self.index_dir), "--mode", "zero-shot,naive,context",
                "--out", str(out / "patches"), "--provider", "local",
                "--replay", "--cassette", str(self.cassette)]
        printed = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(printed):
            code = cli.main(argv)
        elapsed = time.perf_counter() - start
        require(code == 0, f"autopatch optimize --replay exited {code}: {printed.getvalue()}")
        return {"optimize_pps": self.items / elapsed}

    def check(self, out: Path) -> int:
        failures = json.loads((out / "patches" / pipeline.FAILURES_MANIFEST).read_text("utf-8"))
        misses = [f for f in failures if "no cassette entry" in f["reason"]]
        require(not misses, f"{len(misses)} replay miss(es)")
        failed = {(f["record_id"], f["mode"]) for f in failures}
        require(failed == {(t, PromptMode.CONTEXT.value) for t in self.test_bad},
                f"replay failures {sorted(failed)} != planted analyzer faults")
        require(failed == _patch_failures(self.recorded), "replay failures differ from recording")
        for target in self.test_ids:
            for mode in ALL_MODES:
                if (target, mode.value) in failed:
                    continue
                replayed = pipeline.patch_path(out / "patches", mode, target).read_bytes()
                recorded = pipeline.patch_path(self.recorded, mode, target).read_bytes()
                require(replayed == recorded, f"replayed patch {mode.value}/{target} differs")
        return len(failed)

    def final_check(self, out: Path) -> None:
        """retrieve_top1 against a float64 matrix argmax over the index
        files, ties to the smallest id, on a seeded sample of queries."""
        provider = LocalHashingProvider()
        sample = random.Random(self.seed).sample(sorted(set(self.test_ids) - self.test_bad),
                                                  self.ORACLE_QUERIES // 2)
        for kind in SourceKind:
            path = pipeline.index_path(self.index_dir, kind)
            lines = path.read_text(encoding="utf-8").splitlines()
            ids = [json.loads(line)["record_id"] for line in lines[1:] if line.strip()]
            matrix = np.fromfile(str(path) + ".vec", dtype="<f4").astype(np.float64)
            matrix = matrix.reshape(len(ids), -1)
            matrix /= np.linalg.norm(matrix, axis=1, keepdims=True)
            index = load_index(path)
            for target in sample:
                code = self.query_codes[target]
                if kind is SourceKind.CFG_SERIALIZATION:
                    (_, section), = split_dump_functions(dump_cfg(preprocess_source(code).output_code))
                    code = serialize_cfg(parse_cfg_dump(section))
                query = embed_text(code, provider)
                scores = matrix @ (query.astype(np.float64) / np.linalg.norm(query))
                best = scores.max()
                expected = min(i for i, s in zip(ids, scores) if s >= best - 1e-12)
                got = retrieve_top1(index, query)[0].record_id
                require(got == expected, f"{kind.value} query {target}: retrieve_top1 chose "
                                         f"{got}, oracle {expected}")

    def digest(self, out: Path):
        digest = hashlib.sha256()
        _hash_files(digest, self.index_dir.parent, ["index"])
        _hash_files(digest, out, ["patches"])
        return digest

    def gauges(self, out: Path) -> dict[str, float]:
        return {"prompting.cassette_bytes": float(self.cassette.stat().st_size),
                "retrieval.index_entries": float(self.INDEX)}


def dp_levenshtein(a: str, b: str) -> int:
    """Plain two-row dynamic-programming edit distance."""
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        current = [i]
        for j, cb in enumerate(b, 1):
            current.append(min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + (ca != cb)))
        previous = current
    return previous[-1]


class Eval(Workload):
    """run_eval over planted patches: lexical scores, compile, time."""

    name = "eval"
    TESTS, REPS, TIMEOUT_S = 12, 3, 10.0
    setup_repeats = 45  # each takes a few tens of ms, with much noise
    FAULTS_PER_KIND = 2
    items = TESTS * len(ALL_MODES)
    item_base = "(target, mode) patches attempted"
    EDS_SAMPLE, EDS_MAX_CELLS = 2, 2_500_000
    idle_layers = ("analyzer.run_analyzer", "retrieval.retrieve_top1", "prompting.LlmClient.complete")

    def setup(self, work: Path) -> None:
        rng = self.fresh_rng()
        records = _make_corpus(work, rng, 0, self.TESTS).records
        self.by_id = {r["id"]: r for r in records}
        ingest = pipeline.run_ingest(work / "pairs.jsonl", 0, SPLIT_SEED, work)
        self.corpus, self.split = ingest.corpus, ingest.split

        slots = [(r["id"], mode) for r in records for mode in ALL_MODES]
        planted = rng.sample(slots, self.FAULTS_PER_KIND * len(corpus_gen.EVAL_FAULTS))
        kinds = [k for k in corpus_gen.EVAL_FAULTS for _ in range(self.FAULTS_PER_KIND)]
        self.expected = {(t, m.value): "ok" for t, m in slots}
        self.patch_dir = work / "patches"
        for target, mode in slots:
            record = self.by_id[target]
            code = record["original_code" if mode is PromptMode.ZERO_SHOT else "optimized_code"]
            if (target, mode) in planted:
                kind = kinds[planted.index((target, mode))]
                code = corpus_gen.EVAL_FAULTS[kind](code)
                self.expected[(target, mode.value)] = kind
            path = pipeline.patch_path(self.patch_dir, mode, target)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(code, encoding="utf-8")

    def batch(self, out: Path) -> dict[str, float]:
        captured = []
        aggregate = pipeline.aggregate_report

        def capture(results, *args, **kwargs):  # keeps the per-patch results
            captured[:] = list(results)
            return aggregate(captured, *args, **kwargs)

        pipeline.aggregate_report = capture
        try:
            start = time.perf_counter()
            pipeline.run_eval(self.corpus, self.split, self.patch_dir, out, ALL_MODES,
                              self.REPS, self.TIMEOUT_S)
            elapsed = time.perf_counter() - start
        finally:
            pipeline.aggregate_report = aggregate
        self.results = captured
        return {"eval_pps": self.items / elapsed}

    def check(self, out: Path) -> int:
        failures = json.loads((out / pipeline.FAILURES_MANIFEST).read_text(encoding="utf-8"))
        require(not failures, f"unexpected eval failures: {failures}")
        got = {(r.target_id, r.mode): r.outcome.status.value for r in self.results}
        require(got == self.expected, "per-patch statuses differ from the planted ones: " + ", ".join(
            f"{k}: {got.get(k)} != {v}" for k, v in sorted(self.expected.items()) if got.get(k) != v))
        return sum(status != "ok" for status in got.values())

    def final_check(self, out: Path) -> None:
        """EDS against a plain DP Levenshtein on a seeded sample of patches
        small enough for a pure-Python DP."""
        candidates = []
        for r in self.results:
            mode = PromptMode(r.mode)
            a = normalize_whitespace(pipeline.patch_path(self.patch_dir, mode, r.target_id)
                                     .read_text(encoding="utf-8"))
            b = normalize_whitespace(self.by_id[r.target_id]["optimized_code"])
            if len(a) * len(b) <= self.EDS_MAX_CELLS:
                candidates.append((r, a, b))
        require(len(candidates) >= self.EDS_SAMPLE, "too few patches small enough for the EDS oracle")
        for r, a, b in random.Random(self.seed).sample(candidates, self.EDS_SAMPLE):
            want = 1.0 - dp_levenshtein(a, b) / max(len(a), len(b))
            require(r.lexical.eds == want, f"EDS of {r.mode}/{r.target_id}: {r.lexical.eds} != {want}")

    def digest(self, out: Path):
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        report.pop("generated_at", None)
        for mode in report["modes"].values():  # timings vary run to run
            for key in ("avg_time_s", "improvement_pct", "per_type_avg_time_s"):
                mode.pop(key, None)
        digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode())
        _hash_files(digest, out, [pipeline.FAILURES_MANIFEST])
        return digest


WORKLOADS = {cls.name: cls for cls in (Record, ReplayLargeIndex, Eval)}

