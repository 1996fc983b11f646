from __future__ import annotations

import pytest

from autopatch.analyzer import AnalyzerConfig, extract_cfg
from autopatch.errors import AutopatchError
from autopatch.prompting import LlmClient, LlmConfig

from conftest import requires_clang

pytestmark = requires_clang

CONFIG = AnalyzerConfig.from_env()
LIVE = LlmClient(LlmConfig(), None, "live")  # runs the analyzer, records nothing


def test_trivial_main_spine():
    cfg = extract_cfg("int main(){return 0;}", CONFIG, LIVE)
    assert len(cfg.blocks) == 3
    assert len(cfg.edges) == 2
    body = next(b for b in cfg.blocks if b.id not in (cfg.entry_id, cfg.exit_id))
    assert body.statements  # the return statement lives here
    assert (cfg.entry_id, body.id) in cfg.edges
    assert (body.id, cfg.exit_id) in cfg.edges


def test_branch_produces_two_successors_and_join():
    code = (
        "int main(){int x=1; if(x>0){x=2;}else{x=3;} return x;}"
    )
    cfg = extract_cfg(code, CONFIG, LIVE)
    branch_blocks = [b.id for b in cfg.blocks if len(cfg.successors(b.id)) == 2]
    assert len(branch_blocks) == 1
    then_id, else_id = cfg.successors(branch_blocks[0])
    join_targets = {cfg.successors(then_id), cfg.successors(else_id)}
    assert len(join_targets) == 1  # both arms join before the exit
    (join_id,) = join_targets.pop()
    assert cfg.successors(join_id) == (cfg.exit_id,)


def test_empty_translation_unit_has_no_function():
    with pytest.raises(AutopatchError, match="analyzer produced no CFG dump"):
        extract_cfg("", CONFIG, LIVE)


def test_unit_without_main():
    with pytest.raises(AutopatchError, match=r"^function 'main' not in dump \(found: helper\)$"):
        extract_cfg("int helper(int a){ return a * 2; }", CONFIG, LIVE)


def test_main_extracted_among_other_functions():
    code = "int helper(int a){ return a * 2; }\nint main(){ return helper(3); }"
    main = extract_cfg(code, CONFIG, LIVE)
    assert any("helper" in s for b in main.blocks for s in b.statements)  # the call, not the body


def test_analyzer_binary_missing():
    config = AnalyzerConfig(binary="definitely-not-a-real-binary")
    with pytest.raises(AutopatchError, match="^analyzer 'definitely-not-a-real-binary' not on PATH$"):
        extract_cfg("int main(){return 0;}", config, LIVE)


def test_analyzer_failure_on_invalid_code():
    with pytest.raises(AutopatchError, match=r"^analyzer exited with -?[1-9]\d*: "):
        extract_cfg("int main(){ this is not C++ }", CONFIG, LIVE)


def test_extraction_deterministic():
    code = "int main(){int s=0; for(int i=0;i<4;i++){s+=i;} return s;}"
    assert extract_cfg(code, CONFIG, LIVE) == extract_cfg(code, CONFIG, LIVE)


def test_extraction_with_standard_headers():
    code = (
        "#include <cstdio>\n"
        "int main(){int n; if(scanf(\"%d\",&n)!=1) return 1; printf(\"%d\\n\", n+1); return 0;}\n"
    )
    cfg = extract_cfg(code, CONFIG, LIVE)
    assert len(cfg.blocks) >= 4
    statements = [s for b in cfg.blocks for s in b.statements]
    assert any("printf" in s for s in statements)
