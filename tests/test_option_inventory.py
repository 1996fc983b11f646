"""The inventory of options in `src/autopatch`: every field of a `*Config`
dataclass, plus every defaulted parameter of a public function or method
(`__init__` included). A new option makes this test fail, so that it shows
up in review together with the caller that needs it.

The package `__init__` binds no public name, so every name has one import
path: its submodule. Every failure the package raises is an
`AutopatchError` whose message tells it apart; `BothEmpty` is the one
subclass. A new exception class fails `test_error_types` the way a new
option fails the inventory, and any new class fails `test_class_inventory`.

Bytes from outside become objects in `_io` alone: a new JSON decoder or
Unicode check elsewhere fails `test_decoders_live_in_io`. `_io.canonical`
is the one encoder of the package's JSON Lines and content keys: a
`json.dumps` that passes `ensure_ascii=False` in another module fails
`test_canonical_encoder_lives_in_io`.

Every stage has one shape: `pipeline._pooled` builds the one thread pool,
and `pipeline._attempt` is the one place a stage turns a record's error
into its reason. A new pool or a new containment point fails
`test_one_pool_and_one_containment_point`. Only `AutopatchError` is
contained: a new handler that is bare or catches `Exception` or
`BaseException` fails `test_no_catch_all_handler`. A record's failure is
told once, by the caller, from the stage's result: a `logger` or `logging`
call inside a `pipeline.run_*` stage fails `test_stages_log_nothing_they_return`.

A process starts in one place only: `_io.run_process`, which starts, reads
and reaps both the outside tools, through `_io.run_tool` (the analyzer,
whose answer the cassette records and replays, and the compiler), and the
timed run of `harness._run_once`, giving each a file for its stdin and
reading back one stream of each. A new `subprocess` call, or a
`from subprocess import`, fails `test_processes_start_in_one_place`, so
that a process path that bypasses the cassette shows up in review. A
process never reads the caller's stdin: a `subprocess` call that passes
neither `stdin=` nor `input=` fails `test_every_process_is_given_its_stdin`.
Nor does it read a pipe, which a program that `fstat`s or `mmap`s its stdin
cannot use as it uses `prog < input`: a `stdin=` that names
`subprocess.PIPE` fails `test_no_process_reads_its_stdin_from_a_pipe`.
`run_process` waits for the exit
itself rather than poll for it: a `subprocess` call, or a `wait` or
`communicate` method call, that passes `timeout=` fails
`test_no_process_exit_is_polled_for`. Its one `Popen` starts each process as
the leader of a process group of its own, which the run kills whole once the
process exits, so no child outlives it: a `Popen` that does not pass
`start_new_session=True` fails `test_every_process_leads_a_group_of_its_own`.

A `ControlFlowGraph` indexes its blocks by id and its successors when it is
built, so a lookup never scans the graph: a loop or comprehension in
`ControlFlowGraph.block` or `.successors` fails `test_graph_lookups_do_not_scan`.

Imports between the package's modules go one way: the graph of their
`from .x import` statements, those under `if TYPE_CHECKING:` included, has
no cycle, and no module imports `TYPE_CHECKING`, so a cycle cannot hide
behind one. `test_imports_go_one_way` pins both; `analyzer` imports
`prompting`, never the reverse.

The split manifest's layout is known to `corpus` alone, which writes, reads
and checks it: a manifest key spelled in another module fails
`test_split_manifest_lives_in_corpus`.

Every prompt, a rationale request included, is laid out by
`prompting._document`: a heading spelled anywhere else fails
`test_prompt_layout_lives_in_one_function`.

The tests of `test_cfg_extract.py` need clang, so each of their calls is
also bound to `extract_cfg`'s signature here, where they may not run: a
call that no longer fits fails `test_clang_gated_calls_bind_to_extract_cfg`."""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

import autopatch
from autopatch.analyzer import extract_cfg

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
    "prompting.build_prompt(context=)",
    "prompting.build_prompt(example=)",
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
    "_io.Rows",
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
    "prompting.PromptMode", "prompting.Cassette", "prompting.LlmConfig",
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


# Every `json.load`/`json.loads` call, every `from json import`, and every
# `.encode(...)` whose result is dropped, which can only be a check that a
# text is valid Unicode; by the function that holds it.
EXPECTED_DECODERS = [
    "_io.is_text: .encode()",
    "_io.loads: json.loads()",
    # The probe for the older cassette layout, one JSON map: `_io.loads` would
    # reject the whole map where the entry that is not text should be named.
    "prompting.Cassette._load: json.loads()",
]


def _decoders(node: ast.AST, where: str) -> list[str]:
    found = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found += _decoders(child, f"{where}.{child.name}")
            continue
        if isinstance(child, ast.ImportFrom) and child.module == "json":
            found.append(f"{where}: from json import")
        elif (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
              and isinstance(child.func.value, ast.Name) and child.func.value.id == "json"
              and child.func.attr in ("load", "loads")):
            found.append(f"{where}: json.{child.func.attr}()")
        elif (isinstance(child, ast.Expr) and isinstance(child.value, ast.Call)
              and isinstance(child.value.func, ast.Attribute) and child.value.func.attr == "encode"):
            found.append(f"{where}: .encode()")
        found += _decoders(child, where)
    return found


def test_decoders_live_in_io():
    found = []
    for path in sorted(SOURCE_DIR.glob("*.py")):
        found += _decoders(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert sorted(found) == EXPECTED_DECODERS


def _keeps_non_ascii(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name) and node.func.value.id == "json"
            and node.func.attr == "dumps"
            and any(keyword.arg == "ensure_ascii" and not (isinstance(keyword.value, ast.Constant)
                                                           and keyword.value.value is True)
                    for keyword in node.keywords))


def test_canonical_encoder_lives_in_io():
    found = []
    for path in sorted(SOURCE_DIR.glob("*.py")):
        if path.stem != "_io":
            found += _sites(ast.parse(path.read_text(encoding="utf-8")), path.stem, _keeps_non_ascii)
    assert found == []


def _sites(node: ast.AST, where: str, matches) -> list[str]:
    """The functions (or the module) that hold a node `matches` accepts,
    once per node."""
    found = []
    for child in ast.iter_child_nodes(node):
        if matches(child):
            found.append(where)
        inner = where
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{where}.{child.name}"
        found += _sites(child, inner, matches)
    return found


def _is_pool(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and "ThreadPoolExecutor" in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None))


def _catches_autopatch_error(node: ast.AST) -> bool:
    return isinstance(node, ast.ExceptHandler) and node.type is not None and any(
        isinstance(name, ast.Name) and name.id == "AutopatchError" for name in ast.walk(node.type))


def test_one_pool_and_one_containment_point():
    pools = []
    for path in sorted(SOURCE_DIR.glob("*.py")):
        pools += _sites(ast.parse(path.read_text(encoding="utf-8")), path.stem, _is_pool)
    assert pools == ["pipeline._pooled"]
    pipeline = ast.parse((SOURCE_DIR / "pipeline.py").read_text(encoding="utf-8"))
    assert _sites(pipeline, "pipeline", _catches_autopatch_error) == ["pipeline._attempt"]


def _logs(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name) and node.func.value.id in ("logger", "logging"))


def test_stages_log_nothing_they_return():
    pipeline = ast.parse((SOURCE_DIR / "pipeline.py").read_text(encoding="utf-8"))
    found = [site for site in _sites(pipeline, "pipeline", _logs)
             if site.partition(".")[2].startswith("run_")]
    assert found == []


def _catches_all(node: ast.AST) -> bool:
    return isinstance(node, ast.ExceptHandler) and (node.type is None or any(
        isinstance(name, ast.Name) and name.id in ("Exception", "BaseException")
        for name in ast.walk(node.type)))


def test_no_catch_all_handler():
    found = []
    for path in sorted(SOURCE_DIR.glob("*.py")):
        found += _sites(ast.parse(path.read_text(encoding="utf-8")), path.stem, _catches_all)
    # `replacing` removes its temporary file and raises the error again.
    assert found == ["_io.replacing"]


def _starts_a_process(node: ast.AST) -> bool:
    if isinstance(node, ast.ImportFrom):
        return node.module == "subprocess"
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name) and node.func.value.id == "subprocess")


def test_processes_start_in_one_place():
    found = []
    for path in sorted(SOURCE_DIR.glob("*.py")):
        found += _sites(ast.parse(path.read_text(encoding="utf-8")), path.stem, _starts_a_process)
    assert found == ["_io.run_process"]


def _inherits_stdin(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call) and _starts_a_process(node)
            and not any(keyword.arg in ("stdin", "input") for keyword in node.keywords))


def test_every_process_is_given_its_stdin():
    found = []
    for path in sorted(SOURCE_DIR.glob("*.py")):
        found += _sites(ast.parse(path.read_text(encoding="utf-8")), path.stem, _inherits_stdin)
    assert found == []


def _pipes_stdin(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and any(
        keyword.arg == "stdin" and any(getattr(name, "attr", None) == "PIPE" for name in ast.walk(keyword.value))
        for keyword in node.keywords)


def test_no_process_reads_its_stdin_from_a_pipe():
    found = []
    for path in sorted(SOURCE_DIR.glob("*.py")):
        found += _sites(ast.parse(path.read_text(encoding="utf-8")), path.stem, _pipes_stdin)
    assert found == []


def _popen(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "Popen"


def _leads_a_group(node: ast.AST) -> bool:
    return _popen(node) and any(
        keyword.arg == "start_new_session" and isinstance(keyword.value, ast.Constant)
        and keyword.value.value is True for keyword in node.keywords)


def test_every_process_leads_a_group_of_its_own():
    popens, leaders = [], []
    for path in sorted(SOURCE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        popens += _sites(tree, path.stem, _popen)
        leaders += _sites(tree, path.stem, _leads_a_group)
    assert popens == leaders == ["_io.run_process"]


def _polls_for_an_exit(node: ast.AST) -> bool:
    # `subprocess.run(timeout=)`, `Popen.wait(timeout=)` and
    # `Popen.communicate(timeout=)` sleep between polls for the exit, so a
    # process is reaped, and a timed run ends, only at the next poll.
    return (isinstance(node, ast.Call)
            and (_starts_a_process(node) or getattr(node.func, "attr", None) in ("wait", "communicate"))
            and any(keyword.arg == "timeout" for keyword in node.keywords))


def test_no_process_exit_is_polled_for():
    found = []
    for path in sorted(SOURCE_DIR.glob("*.py")):
        found += _sites(ast.parse(path.read_text(encoding="utf-8")), path.stem, _polls_for_an_exit)
    assert found == []


def _scans(node: ast.AST) -> bool:
    return isinstance(node, (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp,
                             ast.DictComp, ast.GeneratorExp))


def test_graph_lookups_do_not_scan():
    tree = ast.parse((SOURCE_DIR / "cfg.py").read_text(encoding="utf-8"))
    graph, = (node for node in tree.body
              if isinstance(node, ast.ClassDef) and node.name == "ControlFlowGraph")
    lookups = [node for node in graph.body
               if isinstance(node, ast.FunctionDef) and node.name in ("block", "successors")]
    assert [node.name for node in lookups] == ["block", "successors"]
    assert [site for node in lookups for site in _sites(node, node.name, _scans)] == []


def _package_imports(tree: ast.Module) -> set[str]:
    """The package modules that `tree` imports by `from .x import` or
    `from . import x`, anywhere in it."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found |= {node.module} if node.module else {alias.name for alias in node.names}
    return found


def test_imports_go_one_way():
    graph, typing_guards = {}, []
    for path in sorted(SOURCE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        graph[path.stem] = _package_imports(tree)
        names = {getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
                 for node in ast.walk(tree)}  # a Name, an Attribute, or an imported alias
        typing_guards += [path.stem] if "TYPE_CHECKING" in names else []
    assert typing_guards == []

    done: set[str] = set()

    def visit(module: str, path: tuple[str, ...]) -> None:
        assert module not in path, " -> ".join((*path, module))
        if module not in done:
            for imported in sorted(graph.get(module, ())):
                visit(imported, (*path, module))
            done.add(module)

    for module in graph:
        visit(module, ())


_MANIFEST_KEYS = {"corpus_sha256", "database_ids", "test_ids", "spans"}


def test_split_manifest_lives_in_corpus():
    found = {}
    for path in sorted(SOURCE_DIR.glob("*.py")):
        keys = {node.value for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                if isinstance(node, ast.Constant) and node.value in _MANIFEST_KEYS}
        if keys:
            found[path.stem] = keys
    assert found == {"corpus": _MANIFEST_KEYS}


def _spells_a_heading(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.startswith("## ")


def test_prompt_layout_lives_in_one_function():
    found = []
    for path in sorted(SOURCE_DIR.glob("*.py")):
        found += _sites(ast.parse(path.read_text(encoding="utf-8")), path.stem, _spells_a_heading)
    assert sorted(set(found)) == ["prompting._document"]


def test_clang_gated_calls_bind_to_extract_cfg():
    # The tests of `test_cfg_extract.py` run only where clang is on PATH, so
    # a call there that no longer fits `extract_cfg`, as after it gained its
    # `llm` parameter, would fail only on such a host. Each call's arguments
    # must bind to the signature here too.
    gated = Path(__file__).with_name("test_cfg_extract.py")
    signature = inspect.signature(extract_cfg)
    calls = [node for node in ast.walk(ast.parse(gated.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "extract_cfg"]
    assert len(calls) >= 9
    for call in calls:
        assert not any(isinstance(arg, ast.Starred) for arg in call.args), ast.unparse(call)
        assert all(keyword.arg is not None for keyword in call.keywords), ast.unparse(call)
        signature.bind(*call.args, **{keyword.arg: keyword.value for keyword in call.keywords})
