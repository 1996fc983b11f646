"""Compile generated programs and time them against stdin/stdout testcases.

Timing discipline: per testcase one untimed warmup run, then `reps` timed
runs; the testcase's time is the median of the reps (suppressing scheduler
outliers) and the program's time is the mean across testcases. Output
comparison uses the corpus normalization rule, read a line at a time
(`corpus.output_matches`) against the expected output, which is normalized
once per testcase, as its input is encoded once. Timed runs are meant to have
the CPU to themselves: `pipeline.run_eval` first compiles each distinct
patch source once, on a thread pool, in `bin/<mode>/<id>` of the first patch
that holds it, and only then times every patch, one at a time.

The compiler runs with an empty file for its stdin, through `_io.run_tool`,
which runs at most two tools a core at once, whatever the width of the
compile pool. The timed run starts through `_io.run_process` too, with its
stdin a file that holds the testcase's input, as `prog < input` gives, so
a program may `fstat` or `mmap` it; it reads back its stdout alone (its
stderr is discarded) and reaps it the moment it exits, so a timed run does
not last until a poll tick. The run ends when the program exits, and any
child left in its process group is killed: a child that holds stdout does
not turn a right answer into a TIMEOUT, and none spins on while later
patches are timed.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Sequence

from ._io import run_process, run_tool, tool_from_env
from .corpus import TestCase, normalize_output, normalized_head, output_matches
from .errors import AutopatchError

CXX_ENV = "AUTOPATCH_CXX"
CXXFLAGS_ENV = "AUTOPATCH_CXXFLAGS"

DEFAULT_REPS = 5
DEFAULT_TIMEOUT_S = 10.0
COMPILE_TIMEOUT_S = 120.0

# The most stdout a timed run may write. The benchmark's expected outputs
# are under 100 bytes, while a program that floods its stdout can write a
# gigabyte a second until its timeout; one that writes more than this is
# killed and fails as a wrong output, rather than read into memory until it
# exits or times out.
RUN_STDOUT_LIMIT = 64 << 20


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


def _run_once(binary: Path, data: bytes, expected: str, timeout_s: float) -> tuple[RunStatus, float, str]:
    """One run of `binary` with `data` for its stdin, its stdout checked
    against `expected`, a testcase's output as `normalize_output` returns it."""
    start = time.perf_counter()
    try:
        returncode, stdout = run_process([str(binary)], None, data, "stdout", timeout_s, RUN_STDOUT_LIMIT)
    except TimeoutError:  # an OSError too, so caught first
        return RunStatus.TIMEOUT, timeout_s, f"exceeded {timeout_s}s"
    except OSError as exc:  # e.g. a program built for another machine
        return RunStatus.CRASH, 0.0, f"could not start: {exc.strerror}"
    elapsed = time.perf_counter() - start
    if len(stdout) > RUN_STDOUT_LIMIT:  # killed there, so its exit code says nothing
        return RunStatus.WRONG_OUTPUT, elapsed, f"wrote more than {RUN_STDOUT_LIMIT} bytes of stdout"
    if returncode != 0:
        return RunStatus.CRASH, elapsed, f"exit code {returncode}"
    actual = stdout.decode("utf-8", "replace")
    if not output_matches(actual, expected):
        return RunStatus.WRONG_OUTPUT, elapsed, f"expected {expected[:500]!r}, got {normalized_head(actual, 500)!r}"
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
        data, expected = testcase.input.encode("utf-8"), normalize_output(testcase.expected_output)
        run_times = []
        for _ in range(1 + reps):  # the first run is the untimed warmup
            status, elapsed, detail = _run_once(binary, data, expected, timeout_s)
            if status is not RunStatus.OK:
                return RunOutcome(status, detail=f"testcase {case_no}: {detail}")
            run_times.append(elapsed)
        per_testcase.append(statistics.median(run_times[1:]))

    return RunOutcome(
        status=RunStatus.OK,
        per_testcase_times_s=tuple(per_testcase),
        mean_s=statistics.fmean(per_testcase),
        median_s=statistics.median(per_testcase),
    )
