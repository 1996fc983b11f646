"""Source normalization applied before handing code to the analyzer or the
compiler: umbrella includes are expanded to an explicit standard-header set,
compiler-specific attributes on the strip list are removed, and duplicate
includes are dropped. Clean input passes through byte-identical.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ._io import is_text
from .errors import AutopatchError

# Explicit replacement for the catch-all <bits/stdc++.h> include. Covers the
# standard library surface that competitive C++ actually touches.
STANDARD_HEADERS: tuple[str, ...] = (
    "algorithm",
    "array",
    "bitset",
    "cassert",
    "cctype",
    "cfloat",
    "climits",
    "cmath",
    "complex",
    "cstdio",
    "cstdint",
    "cstdlib",
    "cstring",
    "deque",
    "functional",
    "iomanip",
    "iostream",
    "iterator",
    "limits",
    "list",
    "map",
    "numeric",
    "queue",
    "random",
    "set",
    "sstream",
    "stack",
    "string",
    "tuple",
    "unordered_map",
    "unordered_set",
    "utility",
    "vector",
)

_UMBRELLA_INCLUDE = re.compile(r'^[ \t]*#[ \t]*include[ \t]*[<"]bits/stdc\+\+\.h[>"].*$')
_INCLUDE_LINE = re.compile(r'^[ \t]*#[ \t]*include[ \t]*[<"][^<>"]+[>"]')

# Attribute constructs the analyzer toolchain rejects or warns about. Each
# holds `__`, as each directive pattern holds `#`.
_INLINE_STRIPPERS = tuple(
    re.compile(pattern, re.DOTALL)
    for pattern in (
        r"__attribute__\s*\(\(.*?\)\)",
        r"__forceinline\b",
        r"__declspec\s*\([^)]*\)",
    )
)
# Directives removed as whole lines.
_PRAGMA_LINE = re.compile(r"^[ \t]*#[ \t]*pragma[ \t]+GCC[ \t]+(optimize|target)\b.*$")


@dataclass
class PreprocessReport:
    output_code: str


def preprocess_source(code: str) -> PreprocessReport:
    if not is_text(code):
        raise AutopatchError("source is not valid Unicode: it holds a lone surrogate")

    out_lines: list[str] = []
    seen_includes: set[str] = set()

    def include_key(text: str) -> str:
        return text.replace(" ", "").replace("\t", "")

    # A pattern runs only on a line holding the text that every match holds.
    for line in code.split("\n"):
        if "#" in line:
            if _UMBRELLA_INCLUDE.match(line):
                for header in STANDARD_HEADERS:
                    include = f"#include <{header}>"
                    if include_key(include) not in seen_includes:
                        seen_includes.add(include_key(include))
                        out_lines.append(include)
                continue

            if _PRAGMA_LINE.match(line):
                continue

            include_match = _INCLUDE_LINE.match(line)
            if include_match:
                key = include_key(include_match.group(0))
                if key in seen_includes:
                    continue
                seen_includes.add(key)

        if "__" in line:
            for pattern in _INLINE_STRIPPERS:
                line = pattern.sub("", line)
        out_lines.append(line)

    return PreprocessReport(output_code="\n".join(out_lines))
