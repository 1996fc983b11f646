from __future__ import annotations

import importlib.util
import shutil
from dataclasses import dataclass
from pathlib import Path

import pytest

from autopatch import pipeline
from autopatch.analyzer import ANALYZER_FLAGS_ENV, ANALYZER_PATH_ENV, parse_cfg_dump
from autopatch.pipeline import run_index, run_ingest, run_optimize
from autopatch.prompting import Cassette, LlmClient, LlmConfig, PromptMode
from autopatch.retrieval import LocalHashingProvider

from helpers import fixture_pairs, make_scripted_transport, write_corpus

HAVE_CLANG = shutil.which("clang") is not None
HAVE_GXX = shutil.which("g++") is not None

requires_clang = pytest.mark.skipif(not HAVE_CLANG, reason="clang not on PATH")
requires_gxx = pytest.mark.skipif(not HAVE_GXX, reason="g++ not on PATH")

FIXTURES = Path(__file__).parent / "fixtures"
DUMP_DIR = FIXTURES / "cfg_dumps"
GOLDEN_DIR = FIXTURES / "golden"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

DB_COUNT = 7
SEED = 7
ALL_MODES = (PromptMode.ZERO_SHOT, PromptMode.NAIVE, PromptMode.CONTEXT)


@pytest.fixture(scope="session")
def pairs():
    return fixture_pairs()


@pytest.fixture()
def dump_graphs(monkeypatch, pairs):
    """Stand in for the analyzer: each side of each pair maps to one of the
    committed dumps, the two sides of a pair to different ones."""
    graphs = [parse_cfg_dump(path.read_text()) for path in sorted(DUMP_DIR.glob("prog*.txt"))]
    by_code = {}
    for i, pair in enumerate(pairs):
        by_code[pair.original_code] = graphs[i % len(graphs)]
        by_code[pair.optimized_code] = graphs[(i + 1) % len(graphs)]
    monkeypatch.setattr(pipeline, "extract_cfg", lambda code, config, llm: by_code[code])


@pytest.fixture(scope="session")
def stub_launcher(tmp_path_factory) -> Path:
    """An executable that runs the benchmark's clang-free analyzer,
    `perfbench/stub_analyzer.py`, written by the benchmark's own
    `_write_launcher`."""
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench._write_launcher(tmp_path_factory.mktemp("stub"))


def _use_stub_without_clang(patch: pytest.MonkeyPatch, launcher: Path) -> None:
    if not HAVE_CLANG:
        patch.setenv(ANALYZER_PATH_ENV, str(launcher))
        patch.delenv(ANALYZER_FLAGS_ENV, raising=False)


@pytest.fixture()
def analyzer(monkeypatch, stub_launcher) -> None:
    """The analyzer of a test that runs one: clang where it is on PATH, and
    the stub everywhere else."""
    _use_stub_without_clang(monkeypatch, stub_launcher)


@pytest.fixture()
def stub_analyzer(monkeypatch, stub_launcher) -> None:
    """Point the analyzer at the benchmark's launcher of the stub, clang or
    not, and keep the chat service offline."""
    monkeypatch.setenv(ANALYZER_PATH_ENV, str(stub_launcher))
    monkeypatch.delenv(ANALYZER_FLAGS_ENV, raising=False)
    monkeypatch.delenv("AUTOPATCH_LLM_BASE", raising=False)


@pytest.fixture(scope="session")
def corpus_file(tmp_path_factory, pairs) -> Path:
    path = tmp_path_factory.mktemp("corpus") / "pairs.jsonl"
    write_corpus(pairs, path)
    return path


@dataclass
class RecordedWorkspace:
    """Fixture corpus plus a cassette prerecorded against the scripted
    transport, ready for offline replay runs."""

    corpus_file: Path
    split_manifest: Path
    cassette: Path
    record_dir: Path


@pytest.fixture(scope="session")
def _recording(tmp_path_factory, pairs, corpus_file, stub_launcher) -> RecordedWorkspace:
    with pytest.MonkeyPatch.context() as patch:
        _use_stub_without_clang(patch, stub_launcher)
        root = tmp_path_factory.mktemp("workspace")
        ingest = run_ingest(corpus_file, DB_COUNT, SEED, root / "ingest")

        cassette_path = root / "cassette.json"
        recorder = LlmClient(
            LlmConfig(),
            Cassette(cassette_path),
            mode="record",
            transport=make_scripted_transport(pairs),
        )
        provider = LocalHashingProvider()
        record_dir = root / "record"
        index_result = run_index(
            ingest.corpus, ingest.split, record_dir / "index", provider, recorder
        )
        assert not index_result.skipped, f"fixture corpus must index cleanly: {index_result.skipped}"
        optimize_result = run_optimize(
            ingest.corpus,
            ingest.split,
            record_dir / "index",
            record_dir / "patches",
            ALL_MODES,
            recorder,
            provider,
        )
        assert not optimize_result.failures, optimize_result.failures
        return RecordedWorkspace(
            corpus_file=corpus_file,
            split_manifest=ingest.manifest_path,
            cassette=cassette_path,
            record_dir=record_dir,
        )


@pytest.fixture()
def recorded_workspace(_recording, analyzer) -> RecordedWorkspace:
    """The session's recorded workspace, under the analyzer that recorded it."""
    return _recording
