from __future__ import annotations

from autopatch import pipeline
from autopatch.analyzer import AnalyzerConfig
from autopatch.harness import ToolchainConfig
from autopatch.pipeline import run_ingest
from autopatch.prompting import LlmConfig

from conftest import DB_COUNT, SEED
from helpers import index_slow_first


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


def test_llm_client_bounds_in_flight_requests(tmp_path, pairs, corpus_file, dump_graphs):
    # The index stage's worker pool is what bounds chat calls in flight.
    ingest = run_ingest(corpus_file, DB_COUNT, SEED, tmp_path / "ingest")
    transport = index_slow_first(tmp_path, ingest, pairs)
    assert 2 <= transport.peak <= pipeline.STAGE_WORKERS
    assert sorted(transport.finished) == list(range(len(ingest.split.database_set)))
