from __future__ import annotations

import time

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
from helpers import ended

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
# Fast-input code of the kind PIE's submissions hold: stdin mapped whole,
# which a file allows and a pipe does not.
MMAP_SUM = (
    "#include <cstdio>\n#include <sys/mman.h>\n#include <sys/stat.h>\n"
    "int main(){ struct stat st; if (fstat(0, &st) != 0 || !S_ISREG(st.st_mode)) return 3;\n"
    "  char *in = (char *)mmap(nullptr, st.st_size, PROT_READ, MAP_PRIVATE, 0, 0);\n"
    "  if (in == MAP_FAILED) return 3;\n"
    "  long a, b; sscanf(in, \"%ld %ld\", &a, &b); printf(\"%ld\\n\", a + b); return 0; }\n"
)

# Right answers, then a child that outlives the program: one holds stdout
# for 6 s, the other closes it and spins for 5 s, after the program has
# written its pid to the file that stdin names.
HELLO_THEN_A_CHILD_HOLDS_STDOUT = (
    "#include <cstdio>\n#include <unistd.h>\n"
    "int main(){ printf(\"hello\\n\"); fflush(stdout); if (fork() == 0) sleep(6); return 0; }\n"
)
OK_THEN_A_CHILD_SPINS = (
    "#include <cstdio>\n#include <ctime>\n#include <unistd.h>\n"
    "int main(){ char path[4096]; if (scanf(\"%4095s\", path) != 1) return 3;\n"
    "  pid_t child = fork();\n"
    "  if (child == 0) { close(1); time_t end = time(nullptr) + 5; while (time(nullptr) < end) {} _exit(0); }\n"
    "  FILE *out = fopen(path, \"a\"); fprintf(out, \"%d\\n\", (int)child); fclose(out);\n"
    "  printf(\"ok\\n\"); return 0; }\n"
)


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
    assert outcome == RunOutcome(
        RunStatus.CRASH, detail="testcase 0: could not start: No such file or directory")


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


def test_stdin_is_a_file_as_prog_lt_input_gives(tmp_path):
    binary = compile_program(MMAP_SUM, ToolchainConfig(), tmp_path)
    outcome = measure_execution(binary, [TestCase("2 3\n", "5\n")], reps=2, timeout_s=5)
    assert outcome.status is RunStatus.OK, outcome.detail


def test_stdin_the_program_never_reads(tmp_path):
    binary = compile_program(HELLO, ToolchainConfig(), tmp_path)
    outcome = measure_execution(binary, [TestCase("7 " * (1 << 19), "hello\n")], reps=2, timeout_s=5)
    assert outcome.status is RunStatus.OK, outcome.detail


def test_a_child_that_holds_stdout_ends_with_the_program(tmp_path):
    # The run ends when the program exits; its child is killed, so a right
    # answer is not a timeout.
    binary = compile_program(HELLO_THEN_A_CHILD_HOLDS_STDOUT, ToolchainConfig(), tmp_path)
    start = time.monotonic()
    outcome = measure_execution(binary, [TestCase("", "hello\n")], reps=1, timeout_s=3)
    assert outcome.status is RunStatus.OK, outcome.detail
    assert time.monotonic() - start < 1.5


def test_a_child_that_closes_stdout_does_not_outlive_the_program(tmp_path):
    binary = compile_program(OK_THEN_A_CHILD_SPINS, ToolchainConfig(), tmp_path)
    pids = tmp_path / "pids"
    outcome = measure_execution(binary, [TestCase(f"{pids}\n", "ok\n")], reps=1, timeout_s=3)
    assert outcome.status is RunStatus.OK, outcome.detail
    children = [int(line) for line in pids.read_text().split()]
    assert len(children) == 2  # the warmup's and the rep's
    assert all(ended(pid) for pid in children)


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
