"""End-to-end orchestration behind the CLI subcommands. `run_ingest` writes
the split manifest through `corpus.write_split`; the other stages take the
corpus and split that it returns, or that `corpus.load_split` reads back.

Each stage contains a record's failure: one bad program never aborts a
batch run, it lands in the stage's result and its journal or failures
manifest with a reason, unlogged (the caller tells it once), and the stage
carries on. `_attempt` turns a record's error into that reason, in a pooled
phase (`_pooled`) or on the main thread. Given identical inputs, seeds, and
cassettes, every stage writes byte-identical artifacts (timing measurements
aside), and a rerun into the same directory keeps no earlier output in place
of one it failed to make.
"""

from __future__ import annotations

import logging
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from . import corpus as corpus_mod
from ._io import TOOL_SLOTS, canonical, content_key, object_line, replacing, write_json
from .analyzer import AnalyzerConfig, analyzer_request, extract_cfg
from .cfg import serialize_cfg
from .cfg_diff import compute_diff, render_diff
from .corpus import Corpus, CodePair, CorpusSplit, load_record
from .errors import AutopatchError
from .harness import RunOutcome, RunStatus, ToolchainConfig, compile_program, measure_execution
from .metrics import LexicalScores, compute_lexical
from .prompting import LlmClient, PromptMode, build_prompt, generate_patch, generate_rationale
from .report import EvaluationReport, EvalResult, aggregate_report
from .retrieval import (
    IndexRecord,
    SourceKind,
    VectorIndex,
    assemble_index,
    embed_record,
    embed_text,
    load_index,
    retrieve_top1,
    vector_sidecar_path,
)

logger = logging.getLogger(__name__)

SPLIT_MANIFEST = "split.json"
INDEX_JOURNAL = "index_journal.jsonl"
FAILURES_MANIFEST = "failures.json"

# Threads in `_pooled`: the calls a stage keeps in flight, records prepared,
# analyzer requests and chat calls alike, when one of them can wait. Most of
# them wait, on a chat service or for a tool, rather than compute, so the
# pool is wider than the host; `_io.run_tool` alone bounds the tools that
# run at once, to two a core. `_width` keeps one in flight where none can.
STAGE_WORKERS = 16

_INDEX_FILES = {
    SourceKind.CFG_SERIALIZATION: "index_cfg.jsonl",
    SourceKind.RAW_SOURCE: "index_source.jsonl",
}

_MODE_SOURCE_KIND = {
    PromptMode.NAIVE: SourceKind.RAW_SOURCE,
    PromptMode.CONTEXT: SourceKind.CFG_SERIALIZATION,
}


def _attempt(fn, *args) -> tuple:
    """`(fn(*args), None)`, or `(None, reason)` when it raises AutopatchError.
    Only the message is kept: a kept exception's traceback holds the frames
    it passed through, and so whatever the caller holds, such as the loaded
    indexes, in a cycle that only the cyclic collector frees."""
    try:
        return fn(*args), None
    except AutopatchError as exc:
        return None, str(exc)


def _width(llm: LlmClient, config: AnalyzerConfig, codes) -> int:
    """The calls a phase keeps in flight: STAGE_WORKERS when one can wait,
    else one. A recorded or live call waits, on the chat service or the
    analyzer. A replayed one reads the cassette, and waits only when it
    misses an analyzer answer, as that runs the analyzer (a chat miss
    raises). So under replay a phase keeps one call in flight when the
    cassette holds the answer for each of `codes`, the programs it asks the
    analyzer about (none, for a phase of chat calls); a code that fails
    preprocessing fails before any run."""
    if llm.mode != "replay":
        return STAGE_WORKERS
    for code in codes:
        request, reason = _attempt(analyzer_request, code, config)
        if reason is None and llm.cassette.lookup(content_key(request)) is None:
            return STAGE_WORKERS
    return 1


def _pooled(fn, items, workers: int) -> list[tuple]:
    """`[_attempt(fn, item) for item in items]`, with up to `workers` calls
    in flight at once (the tools those calls start still run two a core at
    most); the list is in the items' order, whatever order the calls finish
    in. At width 1 it is exactly that list, made on the calling thread. An
    interrupt, or any error but AutopatchError, cancels the calls not yet
    started; those running finish first."""
    if workers == 1:
        return [_attempt(fn, item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda item: _attempt(fn, item), items))


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
    manifest_path = Path(out_dir) / SPLIT_MANIFEST
    corpus_mod.write_split(manifest_path, corpus, split, seed)
    return IngestResult(corpus=corpus, split=split, manifest_path=manifest_path)


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
    """Extract both sides' CFGs, diff them, and obtain a rationale, asking
    `llm` for the analyzer's answers and the rationale. Returns the journal
    payload for one successfully prepared record."""
    g_o = extract_cfg(pair.original_code, analyzer_config, llm)
    g_p = extract_cfg(pair.optimized_code, analyzer_config, llm)
    diff = compute_diff(g_o, g_p)
    rationale = pair.rationale or generate_rationale(diff, pair, llm)
    return {
        "record_id": pair.id,
        "status": "ok",
        "cfg_text": serialize_cfg(g_o),
        "diff_text": render_diff(diff, g_o, g_p),
        "rationale": rationale,
    }


def _load_journal(path: Path) -> dict[str, dict]:
    """The journal's entries by record id: each line's `_io.object_line` by
    `record_id`, and an "ok" entry also holds the strings that run_index
    reuses. A line that is not an entry, such as a torn last line, an "ok"
    entry that lacks a field or one whose text is not valid Unicode, is
    skipped with a warning, so its record is prepared again."""
    if not path.exists():
        return {}
    entries = {}
    with path.open("rb") as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            obj = object_line(line, "record_id")
            if obj is None or (obj.get("status") == "ok" and not all(
                    isinstance(obj.get(key), str) for key in ("cfg_text", "diff_text", "rationale"))):
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

    Up to STAGE_WORKERS records are prepared at once (`_pooled`), or taken
    from the journal, so that many rationale calls may be in flight while
    their analyzer runs share the launcher's slots; under replay, when the
    cassette holds every analyzer answer, one at a time on the main thread
    (`_width`). Then the main thread embeds each prepared record's texts
    for both indexes; the first to embed sets each index's dimension.
    A record that fails either step, or whose vector has another dimension,
    becomes a "failed" journal entry with its reason, and is skipped,
    never fatal. A rerun reuses an "ok" entry only while its `key` matches:
    both sources, the stored rationale, the analyzer's arguments and the
    model of a generated rationale. The indexes list the indexed records in
    database order; the journal lists them, then the failed ones, each in
    database order. When no record is indexed, both index files and their
    vectors are removed, so no older index outlives the run.
    `corpus` is not read: the split holds the records.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    analyzer_config = AnalyzerConfig.from_env()

    journal_path = out_dir / INDEX_JOURNAL
    previous = _load_journal(journal_path) if resume else {}

    def prepare(pair: CodePair) -> dict:
        key = content_key({"sources": [pair.original_code, pair.optimized_code],
                           "rationale": pair.rationale, "analyzer_args": list(analyzer_config.args),
                           "model": None if pair.rationale else llm.config.model})
        cached = previous.get(pair.id)
        if cached is not None and cached.get("status") == "ok" and cached.get("key") == key:
            return cached
        return {**_prepare_record(pair, llm, analyzer_config), "key": key}

    dims: dict[SourceKind, int] = {}  # set by the first record that embeds

    def embed(pair: CodePair, entry: dict) -> tuple[IndexRecord, dict]:
        record = IndexRecord(pair, entry["diff_text"], entry["rationale"], entry["cfg_text"])
        vectors = {kind: embed_record(record, kind, provider) for kind in _INDEX_FILES}
        for kind, vector in vectors.items():
            if len(vector) != dims.setdefault(kind, len(vector)):
                raise AutopatchError(f"record {pair.id}: dim {len(vector)} != {dims[kind]}")
        return record, vectors

    database = tuple(split.database_set)  # a loaded split decodes a record each time it is read
    width = _width(llm, analyzer_config,
                   [code for pair in database for code in (pair.original_code, pair.optimized_code)])
    prepared, skipped, indexed = [], [], []
    for pair, (entry, reason) in zip(database, _pooled(prepare, database, width)):
        embedded, reason = _attempt(embed, pair, entry) if reason is None else (None, reason)
        if reason is not None:
            skipped.append({"record_id": pair.id, "status": "failed", "reason": reason})
        else:
            prepared.append(entry)
            indexed.append(embedded)

    # A crash mid-write leaves the previous journal whole.
    with replacing(journal_path, "w") as handle:
        for entry in prepared + skipped:
            handle.write(canonical(entry) + "\n")

    built: dict[SourceKind, Path] = {}
    records = [record for record, _ in indexed]
    for kind in _INDEX_FILES:
        path = index_path(out_dir, kind)
        if indexed:
            built[kind] = path
            assemble_index(records, [vectors[kind] for _, vectors in indexed], kind, path)
        else:  # no index, rather than an older one that optimize would retrieve from
            path.unlink(missing_ok=True)
            vector_sidecar_path(path).unlink(missing_ok=True)

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
    requested, `llm` gets the analyzer's answer for every target (run,
    recorded or replayed by its mode; `_pooled`, with at most two analyzer
    runs a core at once); then the main thread builds each prompt,
    retrieving its example; then every built prompt is sent (`_pooled`, up
    to STAGE_WORKERS chat calls in flight). Under replay the chat calls run
    one at a time on the main thread, and so do the analyzer requests when
    the cassette holds every answer; when it lacks one, which runs the
    analyzer, they keep their width (`_width`). Patches and the failures
    manifest follow (target, mode) order, whatever order the calls finish
    in. A failed target and mode keeps only its reason, which fails that
    one patch (and removes an earlier run's): a target the analyzer rejects
    still gets its naive and zero-shot patches. An index built over another
    split (it holds a test record) or of the other kind raises
    AutopatchError before any call.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    analyzer_config = AnalyzerConfig.from_env()

    indexes: dict[SourceKind, VectorIndex] = {}
    for mode in modes:
        kind = _MODE_SOURCE_KIND.get(mode)
        if kind is not None and kind not in indexes:
            indexes[kind] = load_index(index_path(index_dir, kind))
    targets = tuple(split.test_set)  # a loaded split decodes a record each time it is read
    for kind, index in indexes.items():
        if index.source_kind is not kind:  # as when one index file is copied over the other
            raise AutopatchError(f"{index_path(index_dir, kind)}: the index is keyed by"
                                 f" {index.source_kind.value}, not {kind.value}")
        held = set(index.ids)
        leaked = ", ".join(repr(pair.id) for pair in targets if pair.id in held)
        if leaked:  # its example for a target could be the target itself
            raise AutopatchError(f"{index_path(index_dir, kind)}: the index holds test record(s)"
                                 f" {leaked}: it was built over another split; run autopatch index again")

    def analyze(pair: CodePair) -> str:
        return serialize_cfg(extract_cfg(pair.original_code, analyzer_config, llm))

    def send(built: tuple) -> str:
        prompt_text, reason = built
        if reason is not None:
            raise AutopatchError(reason)
        return generate_patch(prompt_text, llm)

    queries = (_pooled(analyze, targets,
                       _width(llm, analyzer_config, [pair.original_code for pair in targets]))
               if PromptMode.CONTEXT in modes else [None] * len(targets))
    built = [
        _attempt(_build_mode_prompt, pair, mode, indexes, corpus, provider, query)
        for pair, query in zip(targets, queries)
        for mode in modes
    ]
    patches = _pooled(send, built, _width(llm, analyzer_config, ()))

    written: dict[str, list[str]] = {mode.value: [] for mode in modes}
    failures: list[dict] = []
    slots = [(pair, mode) for pair in targets for mode in modes]
    for (pair, mode), (code, reason) in zip(slots, patches):
        if reason is not None:
            failures.append({"record_id": pair.id, "mode": mode.value, "reason": reason})
            patch_path(out_dir, mode, pair.id).unlink(missing_ok=True)  # not an earlier run's
            continue
        with replacing(patch_path(out_dir, mode, pair.id), "w") as handle:
            handle.write(code)
        written[mode.value].append(pair.id)

    write_json(out_dir / FAILURES_MANIFEST, failures)
    return OptimizeResult(written=written, failures=failures)


def _build_mode_prompt(
    pair: CodePair,
    mode: PromptMode,
    indexes: dict[SourceKind, VectorIndex],
    corpus: Corpus,
    provider,
    cfg_query: tuple[str | None, str | None] | None,
) -> str:
    """The one place that decides what each mode shows. Naive mode retrieves
    the example by the target's source; context mode by its CFG serialization,
    and adds the example's diff and rationale. `cfg_query` is the
    (serialization, reason) pair of the target's analyzer run; context mode
    fails with the reason when there is no serialization."""
    if mode is PromptMode.ZERO_SHOT:
        return build_prompt(pair)

    context = mode is PromptMode.CONTEXT
    text = pair.original_code
    if context:
        text, reason = cfg_query
        if reason is not None:
            raise AutopatchError(reason)
    entry, _ = retrieve_top1(indexes[_MODE_SOURCE_KIND[mode]], embed_text(text, provider))
    example = load_record(corpus, entry.record_id)
    return build_prompt(pair, example, (entry.diff_text, entry.rationale) if context else None)


# --- eval --------------------------------------------------------------------


@dataclass
class EvalRunResult:
    report: EvaluationReport
    report_json_path: Path
    results: list[EvalResult]
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

    Three phases, each in (target, mode) order: score every patch on the
    main thread; compile each distinct source of the scored ones once
    (`_pooled`, two a core at once, as many as the launcher runs), in
    `bin/<mode>/<id>` of the first patch that holds it;
    then, once every compile has returned, time every scored patch's binary
    one at a time, so no timed run shares the CPU with a compiler. A patch
    that is missing, undecodable, unscorable or without testcases goes to
    the failures manifest with its reason; one whose source does not compile
    is a COMPILE_ERROR result with the compiler's reason. The result keeps
    every scored patch's `EvalResult`, in (target, mode) order, with the
    detail of its outcome, which the report only counts. `corpus` is not
    read: the split holds the records.
    """
    patch_dir = Path(patch_dir)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    toolchain = ToolchainConfig.from_env()

    def score(pair: CodePair, mode: PromptMode) -> tuple[str, LexicalScores]:
        source = patch_path(patch_dir, mode, pair.id)
        if not source.exists():
            raise AutopatchError("patch missing")
        try:
            code = source.read_text(encoding="utf-8")
        except UnicodeDecodeError:
            raise AutopatchError("patch is not valid UTF-8") from None
        lexical = compute_lexical(code, pair.optimized_code)
        if not pair.testcases:
            raise AutopatchError("no testcases")
        return code, lexical

    scored: list[tuple[CodePair, PromptMode, str, LexicalScores]] = []
    failures: list[dict] = []
    for pair in split.test_set:
        for mode in modes:
            scores, reason = _attempt(score, pair, mode)
            if reason is not None:
                failures.append({"record_id": pair.id, "mode": mode.value, "reason": reason})
                continue
            scored.append((pair, mode, *scores))

    # Equal sources build the same program, so each builds once.
    build_dirs: dict[str, Path] = {}
    for pair, mode, code, _ in scored:
        build_dirs.setdefault(code, out_dir / "bin" / mode.value / pair.id)
    # _pooled returns once every compile has. A compile is a tool run and
    # nothing else, so a thread beyond the launcher's slots would only wait
    # for one.
    programs = _pooled(lambda job: compile_program(job[0], toolchain, job[1]), build_dirs.items(),
                       TOOL_SLOTS)
    compiled = dict(zip(build_dirs, programs))

    results: list[EvalResult] = []
    for pair, mode, code, lexical in scored:
        program, reason = compiled[code]
        if reason is not None:
            outcome = RunOutcome(RunStatus.COMPILE_ERROR, detail=reason)
        else:
            outcome = measure_execution(program, pair.testcases, reps, timeout_s)
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
    write_json(json_path, payload)
    with replacing(out_dir / "report.txt", "w") as handle:
        handle.write(report.render_text())
    write_json(out_dir / FAILURES_MANIFEST, failures)

    return EvalRunResult(report=report, report_json_path=json_path, results=results, failures=failures)
