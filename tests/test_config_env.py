from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import autopatch
from autopatch import _io, pipeline
from autopatch.analyzer import ANALYZER_FLAGS_ENV, ANALYZER_PATH_ENV, AnalyzerConfig, extract_cfg
from autopatch.harness import ToolchainConfig
from autopatch.pipeline import run_index, run_ingest
from autopatch.prompting import LlmClient, LlmConfig
from autopatch.retrieval import LocalHashingProvider

from conftest import DB_COUNT, SEED
from helpers import BarrierTransport, counting_popen, index_slow_first, write_corpus


def test_analyzer_config_env_overrides(monkeypatch):
    monkeypatch.setenv("AUTOPATCH_ANALYZER_PATH", "/opt/llvm/bin/clang")
    monkeypatch.setenv("AUTOPATCH_ANALYZER_FLAGS", "-I/opt/include -DFOO=1")
    config = AnalyzerConfig.from_env()
    assert config.binary == "/opt/llvm/bin/clang"
    assert config.extra_flags == ("-I/opt/include", "-DFOO=1")


def test_analyzer_config_defaults(monkeypatch):
    monkeypatch.delenv("AUTOPATCH_ANALYZER_PATH", raising=False)
    monkeypatch.delenv("AUTOPATCH_ANALYZER_FLAGS", raising=False)
    config = AnalyzerConfig.from_env()
    assert config.binary == "clang"
    assert config.extra_flags == ()


def test_toolchain_config_env_overrides(monkeypatch):
    monkeypatch.setenv("AUTOPATCH_CXX", "clang++")
    monkeypatch.setenv("AUTOPATCH_CXXFLAGS", "-O3 -march=native")
    config = ToolchainConfig.from_env()
    assert config.compiler == "clang++"
    assert config.flags == ("-O3", "-march=native")


def test_toolchain_config_defaults(monkeypatch):
    monkeypatch.delenv("AUTOPATCH_CXX", raising=False)
    monkeypatch.delenv("AUTOPATCH_CXXFLAGS", raising=False)
    config = ToolchainConfig.from_env()
    assert config.compiler == "g++"
    assert config.flags == ("-O2", "-std=c++17")


def test_llm_config_env(monkeypatch):
    monkeypatch.setenv("AUTOPATCH_LLM_BASE", "http://svc/chat")
    monkeypatch.setenv("AUTOPATCH_LLM_KEY", "secret")
    monkeypatch.setenv("AUTOPATCH_LLM_MODEL", "tuned-model")
    config = LlmConfig.from_env()
    assert config.base_url == "http://svc/chat"
    assert config.api_key == "secret"
    assert config.model == "tuned-model"
    assert config.temperature == 0.0


def test_llm_client_bounds_in_flight_requests(tmp_path, monkeypatch, pairs, corpus_file, dump_graphs,
                                              stub_launcher):
    # The index stage's worker pool is what bounds chat calls in flight.
    ingest = run_ingest(corpus_file, DB_COUNT, SEED, tmp_path / "ingest")
    transport = index_slow_first(tmp_path, ingest, pairs)
    assert 2 <= transport.peak <= pipeline.STAGE_WORKERS
    assert sorted(transport.finished) == list(range(len(ingest.split.database_set)))

    # A chat call waits rather than computes, so the pool is wider than the
    # host: 16 records are prepared at once, and 8 of their rationale calls
    # wait for each other. A tool computes, so however many records are in
    # flight, the launcher runs at most two a core.
    copies = [replace(pair, id=f"{pair.id}-{n}") for n in range(2) for pair in pairs]
    write_corpus(copies, tmp_path / "copies.jsonl")
    ingest = run_ingest(tmp_path / "copies.jsonl", 16, SEED, tmp_path / "copies")
    monkeypatch.setattr(pipeline, "extract_cfg", extract_cfg)  # the analyzer runs, unlike dump_graphs
    monkeypatch.setenv(ANALYZER_PATH_ENV, str(stub_launcher))
    monkeypatch.delenv(ANALYZER_FLAGS_ENV, raising=False)
    popen = counting_popen()
    monkeypatch.setattr(subprocess, "Popen", popen)
    llm = LlmClient(LlmConfig(), None, "live", transport=BarrierTransport(copies, 8, 10.0))

    result = run_index(ingest.corpus, ingest.split, tmp_path / "index16", LocalHashingProvider(), llm)

    assert result.indexed_count == 16 and not result.skipped
    assert popen.running == 0
    assert 2 <= popen.peak <= _io.TOOL_SLOTS


def test_tool_slots_count_the_cpus_this_process_may_run_on():
    # A process pinned to one CPU gets two slots, however many CPUs the host has.
    child = subprocess.run(
        [sys.executable, "-c", "import os\n"
         "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
         "from autopatch import _io\n"
         "print(_io.TOOL_SLOTS)\n"],
        env={**os.environ, "PYTHONPATH": str(Path(autopatch.__file__).parents[1])},
        capture_output=True, timeout=60)
    assert child.returncode == 0, child.stderr.decode("utf-8", "replace")
    assert child.stdout == b"2\n"
