"""Compile generated programs and time them against stdin/stdout testcases.

Timing discipline: per testcase one untimed warmup run, then `reps` timed
runs; the testcase's time is the median of the reps (suppressing scheduler
outliers) and the program's time is the mean across testcases. Output
comparison uses the corpus normalization rule. Timed runs are meant to have
the CPU to themselves: `pipeline.run_eval` first compiles each distinct
patch source once, on a thread pool, in `bin/<mode>/<id>` of the first patch
that holds it, and only then times every patch, one at a time.

The compiler runs with no stdin, through `_io.run_tool`; `_run_once` starts
the timed run, the package's only other process.
"""

from __future__ import annotations

import statistics
import subprocess
import time
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Sequence

from ._io import run_tool, tool_from_env
from .corpus import TestCase, normalize_output
from .errors import AutopatchError

CXX_ENV = "AUTOPATCH_CXX"
CXXFLAGS_ENV = "AUTOPATCH_CXXFLAGS"

DEFAULT_REPS = 5
DEFAULT_TIMEOUT_S = 10.0
COMPILE_TIMEOUT_S = 120.0


@dataclass
class ToolchainConfig:
    compiler: str = "g++"
    flags: tuple[str, ...] = ("-O2", "-std=c++17")

    @classmethod
    def from_env(cls) -> "ToolchainConfig":
        return cls(*tool_from_env(CXX_ENV, CXXFLAGS_ENV, cls.compiler, cls.flags))


class RunStatus(Enum):
    OK = "ok"
    COMPILE_ERROR = "compile_error"
    WRONG_OUTPUT = "wrong_output"
    TIMEOUT = "timeout"
    CRASH = "crash"


@dataclass(frozen=True)
class RunOutcome:
    status: RunStatus
    per_testcase_times_s: tuple[float, ...] | None = None
    mean_s: float | None = None
    median_s: float | None = None
    detail: str = ""

    @classmethod
    def failure(cls, status: RunStatus, detail: str) -> "RunOutcome":
        return cls(status=status, detail=detail)


def compile_program(code: str, toolchain: ToolchainConfig, out_dir: Path | str) -> Path:
    """Compile to `out_dir/program` (the directory is created if missing)
    through `_io.run_tool`, in the caller's working directory, and return
    its path; the source is written beside it as `program.cpp`."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    source = out_dir / "program.cpp"
    source.write_text(code, encoding="utf-8")
    binary = out_dir / "program"
    binary.unlink(missing_ok=True)  # an earlier run's program must never be timed
    returncode, stderr = run_tool("compiler", toolchain.compiler,
                                  [str(source), "-o", str(binary), *toolchain.flags],
                                  None, COMPILE_TIMEOUT_S)
    if returncode != 0:
        raise AutopatchError(f"compilation failed: {stderr.strip()[:500]}")
    if not binary.exists():
        raise AutopatchError("compilation failed: the compiler wrote no program")
    return binary


def _run_once(binary: Path, testcase: TestCase, timeout_s: float) -> tuple[RunStatus, float, str]:
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [str(binary)],
            input=testcase.input.encode("utf-8"),
            capture_output=True,
            timeout=timeout_s,
        )
    except subprocess.TimeoutExpired:
        return RunStatus.TIMEOUT, timeout_s, f"exceeded {timeout_s}s"
    except OSError as exc:  # e.g. a program built for another machine
        return RunStatus.CRASH, 0.0, f"could not start: {exc.strerror}"
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        return RunStatus.CRASH, elapsed, f"exit code {proc.returncode}"
    actual = normalize_output(proc.stdout.decode("utf-8", "replace"))
    expected = normalize_output(testcase.expected_output)
    if actual != expected:
        return RunStatus.WRONG_OUTPUT, elapsed, f"expected {expected!r}, got {actual!r}"
    return RunStatus.OK, elapsed, ""


def measure_execution(
    binary: Path | str,
    testcases: Sequence[TestCase],
    reps: int,
    timeout_s: float,
) -> RunOutcome:
    """Run every testcase with warmup and repetitions; any wrong output,
    timeout, or nonzero exit fails the whole program, and so does a program
    that cannot start, a missing one included: that is a CRASH."""
    binary = Path(binary)
    if reps < 1:
        raise ValueError("reps must be >= 1")
    if not testcases:
        raise ValueError("testcases must be nonempty")

    per_testcase: list[float] = []
    for case_no, testcase in enumerate(testcases):
        run_times = []
        for _ in range(1 + reps):  # the first run is the untimed warmup
            status, elapsed, detail = _run_once(binary, testcase, timeout_s)
            if status is not RunStatus.OK:
                return RunOutcome.failure(status, f"testcase {case_no}: {detail}")
            run_times.append(elapsed)
        per_testcase.append(statistics.median(run_times[1:]))

    return RunOutcome(
        status=RunStatus.OK,
        per_testcase_times_s=tuple(per_testcase),
        mean_s=statistics.fmean(per_testcase),
        median_s=statistics.median(per_testcase),
    )
