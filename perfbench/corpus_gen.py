"""Seeded corpus of C++ code pairs for the benchmark.

Every program reads one integer `n` and prints one value per segment. A
segment is a loop, nested-loop, branch or while template with varied names
and constants; its original side does planted wasted work that the optimized
side removes, and its value has a closed form, so expected outputs are
computed here and never by running the code under test. Helper functions
pad programs to a target size; sizes are stratified over 0.5 to 4 k
characters so every seed gets the same size mix.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from stub_analyzer import FAIL_MARKER

MIN_CHARS = 500
MAX_CHARS = 4000
BUSY_ITERATIONS = 300_000  # planted busy work, on the original side only

_NAMES = ("acc", "total", "val", "cnt", "res", "sum", "agg", "part", "tmp", "out")


@dataclass(frozen=True)
class Segment:
    original: list[str]
    optimized: list[str]
    var: str
    labels: tuple[str, ...]
    value: Callable[[int], int]  # closed form of the printed value


def _segment(rng: random.Random, k: int) -> Segment:
    name = f"{rng.choice(_NAMES)}{k}"
    i, j = f"i{k}", f"j{k}"
    c = rng.randint(2, 97)
    kind = rng.randrange(4)
    if kind == 0:
        return Segment(
            [f"long {name} = 0;",
             f"for (long {i} = 1; {i} <= n; {i}++) {{",
             f"{name} += {i} * {c};",
             "}"],
            [f"long {name} = {c} * n * (n + 1) / 2;"],
            name, ("loop_optimization", "algorithmic_simplification"),
            lambda n, c=c: c * n * (n + 1) // 2,
        )
    if kind == 1:
        m = rng.randint(3, 40)
        return Segment(
            [f"long {name} = 0;",
             f"for (long {i} = 0; {i} < n; {i}++) {{",
             f"for (long {j} = 0; {j} < {m}; {j}++) {{",
             f"{name} += {c};",
             "}",
             "}"],
            [f"long {name} = n * {m} * {c};"],
            name, ("loop_optimization",),
            lambda n, c=c, m=m: n * m * c,
        )
    if kind == 2:
        d, e, w = rng.randint(2, 9), rng.randint(2, 9), rng.randint(20, 400)
        branch = [f"if (n % {d} == 0) {{",
                  f"{name} = n / {d} + {c};",
                  "} else {",
                  f"{name} = n * {e} + {c};",
                  "}"]
        return Segment(
            [f"long {name} = 0;",
             f"for (long {i} = 0; {i} < {w}; {i}++) {{",
             *branch,
             "}"],
            [f"long {name} = 0;", *branch],
            name, ("code_refactoring",),
            lambda n, c=c, d=d, e=e: n // d + c if n % d == 0 else n * e + c,
        )
    return Segment(
        [f"long {name} = 0;",
         f"long d{k} = n;",
         f"while (d{k} > 0) {{",
         f"d{k} = d{k} - 1;",
         f"{name} = {name} + {c};",
         "}"],
        [f"long {name} = n * {c};"],
        name, ("performance_enhancement",),
        lambda n, c=c: n * c,
    )


def _indent(lines: list[str]) -> list[str]:
    out, depth = [], 1
    for line in lines:
        if line.startswith("}"):
            depth -= 1
        out.append("    " * depth + line)
        if line.endswith("{"):
            depth += 1
    return out


def _render(helpers: list[str], body: list[str], busy: bool) -> str:
    head = ["long n = 0;", 'scanf("%ld", &n);']
    if busy:
        head += ["volatile long waste = 0;",
                 f"for (long k = 0; k < {BUSY_ITERATIONS}; k++) {{",
                 "waste = waste + k;",
                 "}"]
    lines = ["#include <cstdio>", ""] + helpers + ["int main() {"]
    lines += _indent(head + body + ["return 0;"]) + ["}"]
    return "\n".join(lines) + "\n"


def make_pair(rng: random.Random, record_id: str, size: int, rationale: bool = False) -> dict:
    """One corpus record (as its JSON object) whose original side is about
    `size` characters long."""
    segments: list[Segment] = []
    helpers: list[str] = []
    for k in range(max(1, size // 260)):
        segments.append(_segment(rng, k))

    def body(side: str) -> list[str]:
        out = []
        for seg in segments:
            out += getattr(seg, side) + [f'printf("%ld\\n", {seg.var});']
        return out

    # Each helper line adds its length and a newline to the rendered text.
    length = len(_render(helpers, body("original"), True))
    while length < size:
        h = len(helpers) // 4
        pad = [f"long pad_{record_id}_{h}(long a) {{",
               f"    return a * {rng.randint(2, 999)} + {rng.randint(0, 999)};",
               "}", ""]
        helpers += pad
        length += sum(len(line) + 1 for line in pad)
    cases = []
    for n in sorted(rng.sample(range(5, 400), 2)):
        expected = "".join(f"{seg.value(n)}\n" for seg in segments)
        cases.append({"input": f"{n}\n", "expected_output": expected})
    record = {
        "id": record_id,
        "problem_id": f"gen-{record_id}",
        "original_code": _render(helpers, body("original"), True),
        "optimized_code": _render(helpers, body("optimized"), False),
        "labels": sorted({label for seg in segments for label in seg.labels}),
        "testcases": cases,
    }
    if rationale:
        record["rationale"] = (
            f"The rewrite of {record_id} replaces {len(segments)} loop(s) by closed forms "
            "and drops the busy loop, so the work no longer grows with n."
        )
    return record


def stratified_sizes(rng: random.Random, count: int,
                     chars: tuple[int, int] = (MIN_CHARS, MAX_CHARS)) -> list[int]:
    low, high = chars
    sizes = [int(low + (high - low) * (i + 0.5) / count) for i in range(count)]
    rng.shuffle(sizes)
    return sizes


def plant_analyzer_fault(record: dict) -> None:
    """Make the stub analyzer reject the record's original side."""
    record["original_code"] = record["original_code"].replace(
        "int main() {", f"// {FAIL_MARKER}\nint main() {{", 1
    )


# --- eval faults: ways a generated patch can fail, applied to patch text ---


def compile_error(code: str) -> str:
    return code.replace("return 0;", "long broken = undeclared_symbol;\n    return 0;", 1)


def wrong_output(code: str) -> str:
    return code.replace('printf("%ld\\n", ', 'printf("%ld\\n", 1 + ', 1)


def crash(code: str) -> str:
    return code.replace("return 0;", "__builtin_trap();\n    return 0;", 1)


EVAL_FAULTS = {"compile_error": compile_error, "wrong_output": wrong_output, "crash": crash}
