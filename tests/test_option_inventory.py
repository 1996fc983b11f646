"""The inventory of options in `src/autopatch`: every field of a `*Config`
dataclass, plus every defaulted parameter of a public function or method
(`__init__` included). A new option makes this test fail, so that it shows
up in review together with the caller that needs it.

The package `__init__` binds no public name, so every name has one import
path: its submodule. Every failure the package raises is an
`AutopatchError` whose message tells it apart; `BothEmpty` is the one
subclass. A new exception class fails `test_error_types` the way a new
option fails the inventory, and any new class fails `test_class_inventory`."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import autopatch

SOURCE_DIR = Path(autopatch.__file__).parent

EXPECTED_OPTIONS = [
    "analyzer.AnalyzerConfig.binary",
    "analyzer.AnalyzerConfig.extra_flags",
    "cfg_diff.render_diff(g_o=)",
    "cfg_diff.render_diff(g_p=)",
    "cli.main(argv=)",
    "harness.ToolchainConfig.compiler",
    "harness.ToolchainConfig.flags",
    "pipeline.run_eval(parameters=)",
    "pipeline.run_index(resume=)",
    "pipeline.run_ingest(strict=)",
    "prompting.LlmClient.__init__(transport=)",
    "prompting.LlmConfig.api_key",
    "prompting.LlmConfig.base_url",
    "prompting.LlmConfig.model",
    "prompting.build_prompt(diff=)",
    "prompting.build_prompt(example=)",
    "prompting.build_prompt(rationale=)",
]


def _is_public(name: str) -> bool:
    return not name.startswith("_") or name == "__init__"


def _options(body: list[ast.stmt], module: str, prefix: str) -> list[str]:
    found = []
    for node in body:
        if isinstance(node, ast.ClassDef) and _is_public(node.name):
            if node.name.endswith("Config"):
                found += [
                    f"{module}.{node.name}.{field.target.id}"
                    for field in node.body
                    if isinstance(field, ast.AnnAssign) and isinstance(field.target, ast.Name)
                ]
            found += _options(node.body, module, f"{prefix}{node.name}.")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and _is_public(node.name):
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [arg for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                          if default is not None]
            found += [f"{module}.{prefix}{node.name}({arg.arg}=)" for arg in defaulted]
    return found


def test_option_inventory():
    options = []
    for path in sorted(SOURCE_DIR.glob("*.py")):
        options += _options(ast.parse(path.read_text(encoding="utf-8")).body, path.stem, "")
    assert sorted(options) == EXPECTED_OPTIONS


def test_error_types():
    defined = []
    for path in sorted(SOURCE_DIR.glob("*.py")):
        module = importlib.import_module("autopatch" if path.stem == "__init__" else f"autopatch.{path.stem}")
        defined += [f"{path.stem}.{name}" for name, value in vars(module).items()
                    if isinstance(value, type) and issubclass(value, BaseException)
                    and value.__module__ == module.__name__]
    assert defined == ["errors.AutopatchError", "errors.BothEmpty"]


EXPECTED_CLASSES = [
    "analyzer.AnalyzerConfig",
    "cfg.BasicBlock", "cfg.ControlFlowGraph",
    "cfg_diff.Changes", "cfg_diff.StatementEdit", "cfg_diff.ContentChange", "cfg_diff.CfgDiff",
    "corpus.OptimizationType", "corpus.TestCase", "corpus.CodePair", "corpus.CorpusStats",
    "corpus.CorpusSplit", "corpus.Corpus",
    "errors.AutopatchError", "errors.BothEmpty",
    "harness.ToolchainConfig", "harness.RunStatus", "harness.RunOutcome",
    "metrics.LexicalScores",
    "pipeline.IngestResult", "pipeline.IndexResult", "pipeline.OptimizeResult",
    "pipeline.EvalRunResult",
    "preprocess.PreprocessReport",
    "prompting.PromptMode", "prompting.Prompt", "prompting.Cassette", "prompting.LlmConfig",
    "prompting.LlmClient",
    "report.EvalResult", "report.ModeReport", "report.EvaluationReport",
    "retrieval.SourceKind", "retrieval.LocalHashingProvider", "retrieval.RemoteEmbeddingProvider",
    "retrieval.IndexEntry", "retrieval.VectorIndex", "retrieval.IndexRecord",
]


def test_class_inventory():
    defined = []
    for path in sorted(SOURCE_DIR.glob("*.py")):
        defined += [f"{path.stem}.{node.name}"
                    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                    if isinstance(node, ast.ClassDef)]
    assert defined == EXPECTED_CLASSES


def test_package_binds_no_public_name():
    bound = []
    for node in ast.parse((SOURCE_DIR / "__init__.py").read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.append(node.name)
        else:
            bound += [name.id for name in ast.walk(node)
                      if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store)]
    assert [name for name in bound if not name.startswith("_")] == []
