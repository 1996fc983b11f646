from __future__ import annotations

import pytest

from autopatch.corpus import TestCase
from autopatch.errors import AutopatchError
from autopatch.harness import (
    RunOutcome,
    RunStatus,
    ToolchainConfig,
    compile_program,
    measure_execution,
)

from conftest import requires_gxx

pytestmark = requires_gxx

HELLO = '#include <cstdio>\nint main(){ printf("hello\\n"); return 0; }\n'
ECHO_SUM = (
    "#include <cstdio>\n"
    "int main(){ long a, b; scanf(\"%ld %ld\", &a, &b); printf(\"%ld\\n\", a + b); return 0; }\n"
)
SLEEP_50MS = (
    "#include <cstdio>\n#include <unistd.h>\n"
    "int main(){ usleep(50000); printf(\"done\\n\"); return 0; }\n"
)
INFINITE_LOOP = (
    "int main(){ volatile long x = 0; while (1) { x++; } return 0; }\n"
)
WRONG_OUTPUT = '#include <cstdio>\nint main(){ printf("not it\\n"); return 0; }\n'
CRASHER = "#include <cstdlib>\nint main(){ abort(); }\n"


def test_compile_produces_runnable_binary(tmp_path):
    binary = compile_program(HELLO, ToolchainConfig(), tmp_path)
    assert binary.exists()
    outcome = measure_execution(binary, [TestCase("", "hello\n")], reps=1, timeout_s=5)
    assert outcome.status is RunStatus.OK


def test_compile_error_carries_diagnostic(tmp_path):
    with pytest.raises(AutopatchError, match="(?s)^compilation failed: .*error:"):
        compile_program("int main(){ syntax error here }", ToolchainConfig(), tmp_path)


def test_compile_deterministic_gate(tmp_path):
    first = compile_program(HELLO, ToolchainConfig(), tmp_path / "a")
    second = compile_program(HELLO, ToolchainConfig(), tmp_path / "b")
    assert first.exists() and second.exists()


def test_compiler_not_found(tmp_path):
    config = ToolchainConfig(compiler="not-a-real-compiler")
    with pytest.raises(AutopatchError, match="^compiler 'not-a-real-compiler' not on PATH$"):
        compile_program(HELLO, config, tmp_path)


def test_binary_not_found(tmp_path):
    outcome = measure_execution(tmp_path / "missing", [TestCase("", "")], reps=1, timeout_s=5)
    assert outcome == RunOutcome.failure(
        RunStatus.CRASH, "testcase 0: could not start: No such file or directory")


def test_stdin_fed_and_output_compared(tmp_path):
    binary = compile_program(ECHO_SUM, ToolchainConfig(), tmp_path)
    outcome = measure_execution(
        binary,
        [TestCase("2 3\n", "5\n"), TestCase("10 -4\n", "6")],  # trailing newline optional
        reps=2,
        timeout_s=5,
    )
    assert outcome.status is RunStatus.OK
    assert len(outcome.per_testcase_times_s) == 2


def test_sleep_fixture_timing_window(tmp_path):
    binary = compile_program(SLEEP_50MS, ToolchainConfig(), tmp_path)
    outcome = measure_execution(binary, [TestCase("", "done\n")], reps=5, timeout_s=2)
    assert outcome.status is RunStatus.OK
    assert 0.045 <= outcome.median_s <= 0.5
    assert min(outcome.per_testcase_times_s) <= outcome.median_s <= max(outcome.per_testcase_times_s)


def test_wrong_output_detected(tmp_path):
    binary = compile_program(WRONG_OUTPUT, ToolchainConfig(), tmp_path)
    outcome = measure_execution(binary, [TestCase("", "right\n")], reps=2, timeout_s=5)
    assert outcome.status is RunStatus.WRONG_OUTPUT
    assert outcome.per_testcase_times_s is None
    assert outcome.mean_s is None


def test_infinite_loop_times_out(tmp_path):
    binary = compile_program(INFINITE_LOOP, ToolchainConfig(), tmp_path)
    outcome = measure_execution(binary, [TestCase("", "")], reps=5, timeout_s=2)
    assert outcome.status is RunStatus.TIMEOUT


def test_nonzero_exit_is_crash(tmp_path):
    binary = compile_program(CRASHER, ToolchainConfig(), tmp_path)
    outcome = measure_execution(binary, [TestCase("", "")], reps=1, timeout_s=5)
    assert outcome.status is RunStatus.CRASH


def test_trailing_whitespace_normalized(tmp_path):
    code = '#include <cstdio>\nint main(){ printf("7 \\n\\n"); return 0; }\n'
    binary = compile_program(code, ToolchainConfig(), tmp_path)
    outcome = measure_execution(binary, [TestCase("", "7")], reps=1, timeout_s=5)
    assert outcome.status is RunStatus.OK


def test_rep_and_testcase_validation(tmp_path):
    binary = compile_program(HELLO, ToolchainConfig(), tmp_path)
    with pytest.raises(ValueError):
        measure_execution(binary, [TestCase("", "hello\n")], reps=0, timeout_s=5)
    with pytest.raises(ValueError):
        measure_execution(binary, [], reps=1, timeout_s=5)
