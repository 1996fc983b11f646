"""End-to-end orchestration behind the CLI subcommands.

Each stage is per-record skip-and-log: one bad program never aborts a batch
run, it lands in a journal or failures manifest with a reason and the stage
carries on. Given identical inputs, seeds, and cassettes, every stage writes
byte-identical artifacts (timing measurements aside).
"""

from __future__ import annotations

import json
import logging
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from . import corpus as corpus_mod
from ._io import loads, replacing
from .analyzer import AnalyzerConfig, extract_cfg
from .cfg import serialize_cfg
from .cfg_diff import compute_diff, render_diff
from .corpus import Corpus, CodePair, CorpusSplit, load_record
from .errors import AutopatchError
from .harness import (
    RunOutcome,
    RunStatus,
    ToolchainConfig,
    compile_program,
    measure_execution,
)
from .metrics import LexicalScores, compute_lexical
from .prompting import LlmClient, PromptMode, build_prompt, generate_patch, generate_rationale
from .report import EvaluationReport, EvalResult, aggregate_report
from .retrieval import (
    IndexRecord,
    SourceKind,
    VectorIndex,
    build_index,
    embed_text,
    load_index,
    retrieve_top1,
)

logger = logging.getLogger(__name__)

SPLIT_MANIFEST = "split.json"
INDEX_JOURNAL = "index_journal.jsonl"
FAILURES_MANIFEST = "failures.json"

# Threads in the pool of a stage that waits on subprocesses or chat calls:
# the index stage prepares this many records at once (which also bounds the
# chat calls in flight), the optimize stage runs this many analyzer runs or
# chat calls at once, and the eval stage compiles this many patches.
STAGE_WORKERS = 4

_INDEX_FILES = {
    SourceKind.CFG_SERIALIZATION: "index_cfg.jsonl",
    SourceKind.RAW_SOURCE: "index_source.jsonl",
}

_MODE_SOURCE_KIND = {
    PromptMode.NAIVE: SourceKind.RAW_SOURCE,
    PromptMode.CONTEXT: SourceKind.CFG_SERIALIZATION,
}


def _write_json(path: Path, payload) -> None:
    with replacing(path, "w") as handle:
        handle.write(json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n")


# --- ingest -----------------------------------------------------------------


@dataclass
class IngestResult:
    corpus: Corpus
    split: CorpusSplit
    manifest_path: Path


def run_ingest(
    corpus_path: Path | str,
    db_count: int,
    seed: int,
    out_dir: Path | str,
    strict: bool = False,
) -> IngestResult:
    corpus = corpus_mod.ingest_pairs(corpus_path, strict=strict)
    split = corpus_mod.split_corpus(corpus.pairs, db_count, seed)
    out_dir = Path(out_dir)
    manifest = {
        "database_count": db_count,
        "seed": seed,
        "database_ids": [p.id for p in split.database_set],
        "test_ids": [p.id for p in split.test_set],
    }
    manifest_path = out_dir / SPLIT_MANIFEST
    _write_json(manifest_path, manifest)
    return IngestResult(corpus=corpus, split=split, manifest_path=manifest_path)


def load_split(corpus: Corpus, manifest_path: Path | str) -> CorpusSplit:
    path = Path(manifest_path)
    try:
        manifest = loads(path.read_bytes())
        return CorpusSplit(
            database_set=tuple(load_record(corpus, i) for i in manifest["database_ids"]),
            test_set=tuple(load_record(corpus, i) for i in manifest["test_ids"]),
        )
    except (ValueError, KeyError, TypeError) as exc:  # not UTF-8 JSON, or not the manifest's shape
        raise AutopatchError(f"{path}: malformed split manifest: {type(exc).__name__}: {exc}") from None
    except AutopatchError as exc:  # an id that the corpus does not hold
        raise AutopatchError(f"{path}: {exc}") from None


# --- index ------------------------------------------------------------------


@dataclass
class IndexResult:
    built: dict[SourceKind, Path]
    indexed_count: int
    skipped: list[dict] = field(default_factory=list)


def index_path(index_dir: Path | str, kind: SourceKind) -> Path:
    return Path(index_dir) / _INDEX_FILES[kind]


def _prepare_record(
    pair: CodePair,
    llm: LlmClient,
    analyzer_config: AnalyzerConfig,
) -> dict:
    """Extract both sides' CFGs, diff them, and obtain a rationale. Returns
    the journal payload for one successfully prepared record."""
    g_o = extract_cfg(pair.original_code, analyzer_config)
    g_p = extract_cfg(pair.optimized_code, analyzer_config)
    diff = compute_diff(g_o, g_p)
    rationale = pair.rationale or generate_rationale(diff, pair, llm)
    return {
        "record_id": pair.id,
        "status": "ok",
        "cfg_text": serialize_cfg(g_o),
        "diff_text": render_diff(diff, g_o, g_p),
        "rationale": rationale,
    }


def _is_journal_entry(obj) -> bool:
    """An object with a string record id; an "ok" entry also holds the
    strings that run_index reuses."""
    if not isinstance(obj, dict) or not isinstance(obj.get("record_id"), str):
        return False
    return obj.get("status") != "ok" or all(
        isinstance(obj.get(key), str) for key in ("cfg_text", "diff_text", "rationale")
    )


def _load_journal(path: Path) -> dict[str, dict]:
    """The journal's entries by record id. A line that is not an entry, such
    as a torn last line, an "ok" entry that lacks a field or one whose text
    is not valid Unicode, is skipped with a warning, so its record is
    prepared again."""
    if not path.exists():
        return {}
    entries = {}
    with path.open("rb") as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                obj = loads(line)
            except ValueError:  # not UTF-8, not JSON, or not valid Unicode
                obj = None
            if not _is_journal_entry(obj):
                logger.warning("%s:%d: skipping a line that is not a journal entry", path, line_no)
                continue
            entries[obj["record_id"]] = obj
    return entries


def run_index(
    corpus: Corpus,
    split: CorpusSplit,
    out_dir: Path | str,
    provider,
    llm: LlmClient,
    resume: bool = True,
) -> IndexResult:
    """Build the CFG-keyed and the source-keyed vector index over the
    database split.

    Up to STAGE_WORKERS records are prepared at once; the journal and the
    indexes list them in database order all the same. Preparation results
    are journaled per record, so a rerun reuses finished records and retries
    failed ones; per-record failures are logged and skipped, never fatal.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    analyzer_config = AnalyzerConfig.from_env()

    journal_path = out_dir / INDEX_JOURNAL
    previous = _load_journal(journal_path) if resume else {}

    def prepare(pair: CodePair) -> dict:
        cached = previous.get(pair.id)
        if cached is not None and cached.get("status") == "ok":
            return cached
        try:
            return _prepare_record(pair, llm, analyzer_config)
        except AutopatchError as exc:
            logger.warning("index: skipping %s: %s", pair.id, exc)
            return {"record_id": pair.id, "status": "failed", "reason": str(exc)}

    # map yields in database order, whatever order the records finish in.
    with ThreadPoolExecutor(max_workers=STAGE_WORKERS) as pool:
        entries = list(pool.map(prepare, split.database_set))
    prepared = [entry for entry in entries if entry["status"] == "ok"]
    skipped = [entry for entry in entries if entry["status"] != "ok"]

    # A crash mid-write leaves the previous journal whole.
    with replacing(journal_path, "w") as handle:
        for entry in prepared + skipped:
            handle.write(json.dumps(entry, sort_keys=True, ensure_ascii=False) + "\n")

    built: dict[SourceKind, Path] = {}
    if prepared:
        records = [
            IndexRecord(
                pair=load_record(corpus, entry["record_id"]),
                diff_text=entry["diff_text"],
                rationale=entry["rationale"],
                cfg_text=entry["cfg_text"],
            )
            for entry in prepared
        ]
        for kind in _INDEX_FILES:
            path = index_path(out_dir, kind)
            build_index(records, provider, kind, path=path)
            built[kind] = path

    return IndexResult(built=built, indexed_count=len(prepared), skipped=skipped)


# --- optimize ----------------------------------------------------------------


@dataclass
class OptimizeResult:
    written: dict[str, list[str]]
    failures: list[dict] = field(default_factory=list)


def patch_path(patch_dir: Path | str, mode: PromptMode, target_id: str) -> Path:
    return Path(patch_dir) / mode.value / f"{target_id}.cpp"


def run_optimize(
    corpus: Corpus,
    split: CorpusSplit,
    index_dir: Path | str,
    out_dir: Path | str,
    modes: tuple[PromptMode, ...],
    llm: LlmClient,
    provider,
) -> OptimizeResult:
    """Generate one patch per test record per requested mode.

    Three phases, each in (target, mode) order: when context mode is
    requested, the analyzer runs on every target on a pool of STAGE_WORKERS
    threads; then the main thread builds each prompt, retrieving its
    example; then the same pool sends every built prompt. Patches and the
    failures manifest follow (target, mode) order, whatever order the calls
    finish in. A failed target and mode keeps only its reason, which fails
    that one patch: a target the analyzer rejects still gets its naive and
    zero-shot patches.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    analyzer_config = AnalyzerConfig.from_env()

    indexes: dict[SourceKind, VectorIndex] = {}
    for mode in modes:
        kind = _MODE_SOURCE_KIND.get(mode)
        if kind is not None and kind not in indexes:
            indexes[kind] = load_index(index_path(index_dir, kind))

    def analyze(pair: CodePair) -> tuple[str | None, str | None]:
        return _attempt(lambda: serialize_cfg(extract_cfg(pair.original_code, analyzer_config)))

    def send(built: tuple) -> tuple[str | None, str | None]:
        prompt, reason = built
        return (None, reason) if reason is not None else _attempt(generate_patch, prompt, llm)

    targets = split.test_set
    queries = [None] * len(targets)
    # Each map yields in (target, mode) order, whatever order its calls finish in.
    with ThreadPoolExecutor(max_workers=STAGE_WORKERS) as pool:
        if PromptMode.CONTEXT in modes:
            queries = list(pool.map(analyze, targets))
        built = [
            _attempt(_build_mode_prompt, pair, mode, indexes, corpus, provider, query)
            for pair, query in zip(targets, queries)
            for mode in modes
        ]
        patches = list(pool.map(send, built))

    written: dict[str, list[str]] = {mode.value: [] for mode in modes}
    failures: list[dict] = []
    slots = [(pair, mode) for pair in targets for mode in modes]
    for (pair, mode), (code, reason) in zip(slots, patches):
        if reason is not None:
            failures.append({"record_id": pair.id, "mode": mode.value, "reason": reason})
            logger.warning("optimize: %s/%s failed: %s", mode.value, pair.id, reason)
            continue
        with replacing(patch_path(out_dir, mode, pair.id), "w") as handle:
            handle.write(code)
        written[mode.value].append(pair.id)

    _write_json(out_dir / FAILURES_MANIFEST, failures)
    return OptimizeResult(written=written, failures=failures)


def _attempt(fn, *args) -> tuple:
    """`(fn(*args), None)`, or `(None, reason)` when it raises AutopatchError.
    Only the message is kept: a kept exception's traceback holds the frames
    it passed through, and so whatever the caller holds, such as the loaded
    indexes, in a cycle that only the cyclic collector frees."""
    try:
        return fn(*args), None
    except AutopatchError as exc:
        return None, str(exc)


def _build_mode_prompt(
    pair: CodePair,
    mode: PromptMode,
    indexes: dict[SourceKind, VectorIndex],
    corpus: Corpus,
    provider,
    cfg_query: tuple[str | None, str | None] | None,
):
    """Naive mode retrieves the example by the target's source; context mode
    by its CFG serialization, and adds the example's diff and rationale.
    `cfg_query` is the (serialization, reason) pair of the target's analyzer
    run; context mode fails with the reason when there is no serialization."""
    if mode is PromptMode.ZERO_SHOT:
        return build_prompt(mode, pair)

    context = mode is PromptMode.CONTEXT
    text = pair.original_code
    if context:
        text, reason = cfg_query
        if reason is not None:
            raise AutopatchError(reason)
    entry, _ = retrieve_top1(indexes[_MODE_SOURCE_KIND[mode]], embed_text(text, provider))
    extra = {"diff": entry.diff_text, "rationale": entry.rationale} if context else {}
    return build_prompt(mode, pair, example=load_record(corpus, entry.record_id), **extra)


# --- eval --------------------------------------------------------------------


@dataclass
class EvalRunResult:
    report: EvaluationReport
    report_json_path: Path
    failures: list[dict] = field(default_factory=list)


def run_eval(
    corpus: Corpus,
    split: CorpusSplit,
    patch_dir: Path | str,
    out_dir: Path | str,
    modes: tuple[PromptMode, ...],
    reps: int,
    timeout_s: float,
    parameters: dict | None = None,
) -> EvalRunResult:
    """Score every patch lexically against the ground truth, compile it, time
    it against the record's testcases, and aggregate the report.

    Three phases, each in (target, mode) order: score every patch; compile
    each distinct source of the scored ones once, on a pool of STAGE_WORKERS
    threads, in `bin/<mode>/<id>` of the first patch that holds it; then,
    once every compile has returned, time every scored patch's binary one at
    a time, so no timed run shares the CPU with a compiler. A patch that is
    missing, undecodable, unscorable or without testcases goes to the
    failures manifest; one whose source does not compile is a COMPILE_ERROR
    result.
    """
    patch_dir = Path(patch_dir)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    toolchain = ToolchainConfig.from_env()

    scored: list[tuple[CodePair, PromptMode, str, LexicalScores]] = []
    failures: list[dict] = []

    for pair in split.test_set:
        for mode in modes:
            source = patch_path(patch_dir, mode, pair.id)
            try:
                if not source.exists():
                    raise AutopatchError("patch missing")
                try:
                    code = source.read_text(encoding="utf-8")
                except UnicodeDecodeError:
                    raise AutopatchError("patch is not valid UTF-8") from None
                lexical = compute_lexical(code, pair.optimized_code)
                if not pair.testcases:
                    raise AutopatchError("no testcases")
            except AutopatchError as exc:
                failures.append({"record_id": pair.id, "mode": mode.value, "reason": str(exc)})
                logger.warning("eval: %s/%s not scored: %s", mode.value, pair.id, exc)
                continue
            scored.append((pair, mode, code, lexical))

    # Equal sources build the same program, so each builds once.
    build_dirs: dict[str, Path] = {}
    for pair, mode, code, _ in scored:
        build_dirs.setdefault(code, out_dir / "bin" / mode.value / pair.id)

    def compile_source(code: str, build_dir: Path) -> Path | RunOutcome:
        try:
            return compile_program(code, toolchain, build_dir)
        except AutopatchError as exc:
            return RunOutcome.failure(RunStatus.COMPILE_ERROR, str(exc))

    # map yields in build_dirs' order; leaving the block waits for every compile.
    with ThreadPoolExecutor(max_workers=STAGE_WORKERS) as pool:
        compiled = dict(zip(build_dirs, pool.map(compile_source, build_dirs, build_dirs.values())))

    results: list[EvalResult] = []
    for pair, mode, code, lexical in scored:
        built = compiled[code]
        if isinstance(built, RunOutcome):
            outcome = built
        else:
            outcome = measure_execution(built, pair.testcases, reps, timeout_s)
        results.append(
            EvalResult(
                target_id=pair.id,
                mode=mode.value,
                lexical=lexical,
                outcome=outcome,
                labels=pair.labels,
            )
        )

    parameters = dict(parameters or {})
    parameters.update({"reps": reps, "timeout_s": timeout_s})

    report = aggregate_report(results, parameters=parameters)
    if not report.common_executable_ids:
        report.parameters["no_common_executable_set"] = True

    payload = report.to_json_dict()
    payload["generated_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())

    json_path = out_dir / "report.json"
    _write_json(json_path, payload)
    (out_dir / "report.txt").write_text(report.render_text(), encoding="utf-8")
    _write_json(out_dir / FAILURES_MANIFEST, failures)

    return EvalRunResult(report=report, report_json_path=json_path, failures=failures)
