from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autopatch.errors import AutopatchError
from autopatch.harness import ToolchainConfig, compile_program
from autopatch.preprocess import STANDARD_HEADERS, preprocess_source

from conftest import requires_gxx
from helpers import every_pattern_preprocess, outcome

CLEAN = """#include <cstdio>
int main() {
    printf("ok\\n");
    return 0;
}
"""


def test_clean_code_passes_through_unchanged():
    report = preprocess_source(CLEAN)
    assert report.output_code == CLEAN


def test_umbrella_include_expands_to_explicit_headers():
    code = "#include <bits/stdc++.h>\nint main() { return 0; }\n"
    report = preprocess_source(code)
    assert "bits/stdc++.h" not in report.output_code
    for header in ("vector", "iostream", "algorithm"):
        assert f"#include <{header}>" in report.output_code
    # the umbrella expands once: every emitted include is from the fixed set, in order
    includes = [l for l in report.output_code.splitlines() if l.startswith("#include")]
    assert includes == [f"#include <{h}>" for h in STANDARD_HEADERS]
    assert report.output_code.splitlines()[len(STANDARD_HEADERS):] == ["int main() { return 0; }"]


def test_attribute_stripped():
    code = (
        "__attribute__((always_inline)) inline int twice(int v) { return 2 * v; }\n"
        "int main() { return twice(21); }\n"
    )
    report = preprocess_source(code)
    assert report.output_code == (
        " inline int twice(int v) { return 2 * v; }\n"
        "int main() { return twice(21); }\n"
    )


def test_pragma_gcc_optimize_line_removed():
    code = '#pragma GCC optimize("O3")\nint main() { return 0; }\n'
    report = preprocess_source(code)
    assert report.output_code == "int main() { return 0; }\n"


def test_duplicate_includes_removed():
    code = "#include <cstdio>\n#include <cstdio>\nint main() { return 0; }\n"
    report = preprocess_source(code)
    assert report.output_code == "#include <cstdio>\nint main() { return 0; }\n"


def test_umbrella_then_explicit_include_deduplicated():
    code = "#include <bits/stdc++.h>\n#include <vector>\nint main() { return 0; }\n"
    report = preprocess_source(code)
    assert report.output_code.count("#include <vector>") == 1


def test_lone_surrogate_rejected():
    with pytest.raises(AutopatchError, match="^source is not valid Unicode: it holds a lone surrogate$"):
        preprocess_source("int main() { return '\udcff'; }")


def test_preprocess_is_idempotent():
    code = "#include <bits/stdc++.h>\n__attribute__((hot)) int main() { return 0; }\n"
    once = preprocess_source(code)
    twice = preprocess_source(once.output_code)
    assert twice.output_code == once.output_code


@requires_gxx
def test_attribute_stripped_fixture_still_compiles(tmp_path):
    code = (
        "#include <cstdio>\n"
        "__attribute__((noinline)) long triple(long v) { return 3 * v; }\n"
        "int main() { printf(\"%ld\\n\", triple(14)); return 0; }\n"
    )
    toolchain = ToolchainConfig()
    before = compile_program(code, toolchain, tmp_path / "before")
    report = preprocess_source(code)
    after = compile_program(report.output_code, toolchain, tmp_path / "after")
    assert before.exists() and after.exists()
    assert "__attribute__" not in report.output_code


@requires_gxx
def test_umbrella_rewrite_fixture_still_compiles(tmp_path):
    code = (
        "#include <bits/stdc++.h>\n"
        "int main() { std::vector<int> v{3, 1, 2}; std::sort(v.begin(), v.end());\n"
        "  printf(\"%d\\n\", v[0]); return 0; }\n"
    )
    report = preprocess_source(code)
    binary = compile_program(report.output_code, ToolchainConfig(), tmp_path)
    assert binary.exists()


# Pieces of a line: directives that hold `#` (some indented, some that no
# pattern strips), constructs that hold `__` (some that no pattern strips)
# and plain code. A line joins up to three of them, so a directive can follow
# code and a `__` construct can sit anywhere in a line.
_PIECES = [
    "#include <cstdio>", "# include <vector>", ' \t#include "a.h"', "#include <bits/stdc++.h>",
    "#  include<bits/stdc++.h> // all", '#pragma GCC optimize("O3")', '\t#pragma GCC target("avx2")',
    "#pragma once", "#define X 1", "x # y", "// #include <cstdio>",
    "__attribute__((always_inline)) ", "__attribute__ ((noinline, cold))", "__declspec(noinline) ",
    "__forceinline ", "__forceinlined", "a__b", "__", "_", "int main() { return 0; }", "int f();",
    " ", "\t", "\xa0", "\u3000", "\x1c", "\x85", "\r", "é",
]


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.lists(st.sampled_from(_PIECES), max_size=3).map("".join), max_size=8).map("\n".join),
       st.sampled_from([""] * 9 + ["\ud800"]))  # now and then a lone surrogate, which is refused
def test_preprocess_equals_the_every_pattern_reference(code, tail):
    code += tail
    assert outcome(lambda text: preprocess_source(text).output_code, code) == outcome(
        every_pattern_preprocess, code)
