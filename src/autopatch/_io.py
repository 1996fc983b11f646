"""The package's byte boundary: how bytes from outside become Python objects,
how every JSON Lines line and content key is encoded, split and decoded,
how the lines of a file are kept as its bytes and decoded when read, how a
file is replaced whole (a JSON document with `write_json`), how a
JSON-over-HTTP service call fails, how an outside tool is configured
(`tool_from_env`), run with an empty stdin, two a core at most, and fails
(`run_tool`), and how every process, a tool or a timed run, is started with
a file for its stdin, as the leader of a process group of its own, read on
one stream and reaped, with whatever is left in its group killed, the moment
it exits (`run_process`)."""

from __future__ import annotations

import contextlib
import hashlib
import http.client
import json
import os
import selectors
import shlex
import shutil
import signal
import subprocess
import threading
import time
import urllib.error
import urllib.request
from array import array
from collections.abc import Sequence
from pathlib import Path

from .errors import AutopatchError


def loads(raw: bytes):
    """The JSON document that `raw` holds as UTF-8. Raises ValueError when
    the bytes are not UTF-8, not JSON, or escape a lone surrogate."""
    text = raw.decode("utf-8")  # strict: a UnicodeDecodeError names the byte
    obj = json.loads(text)
    # Strictly decoded UTF-8 holds no surrogate, so only a \u escape can spell one.
    if "\\u" in text and not is_text(obj):
        raise ValueError("a \\u escape spells a lone surrogate, which is not valid Unicode")
    return obj


def is_text(obj) -> bool:
    """Whether a JSON value can be written as UTF-8: a Python string can hold
    a lone surrogate, which no UTF-8 text can."""
    try:
        json.dumps(obj, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def canonical(obj) -> str:
    """`obj` as one line of canonical JSON, the form of every JSON Lines
    line the package writes: keys sorted, non-ASCII text kept as it is."""
    return json.dumps(obj, sort_keys=True, ensure_ascii=False)


def content_key(obj) -> str:
    """The SHA-256 (hex) of `obj` as canonical JSON."""
    return hashlib.sha256(canonical(obj).encode("utf-8")).hexdigest()


def line_spans(data: bytes, start: int) -> array:
    """The start and end of each line of `data` from byte `start` on, in
    turn: line i, its newline included, is `data[spans[2i]:spans[2i + 1]]`."""
    spans = array("q")
    while start < len(data):
        end = data.find(b"\n", start) + 1 or len(data)
        spans.extend((start, end))
        start = end
    return spans


def object_line(line: bytes, field: str) -> dict | None:
    """The JSON object that `line` holds when it has a string `field`, or
    None, as for a line that `loads` rejects."""
    try:
        obj = loads(line)
    except ValueError:  # not UTF-8, not JSON, or not valid Unicode
        return None
    return obj if isinstance(obj, dict) and isinstance(obj.get(field), str) else None


class Rows(Sequence):
    """Rows kept as the bytes of the file that holds them: row i is
    `decode(data, spans[2i], spans[2i + 1])`, decoded each time it is read,
    so a reader holds the file's bytes rather than every decoded row. The
    corpus records a split lists and the metadata of a loaded index are both
    read this way. A read-only sequence: `len`, indexing, slicing (to a list)
    and iteration."""

    def __init__(self, data: bytes, spans: array, decode):
        self._data = data
        self._spans = spans
        self._decode = decode

    def __len__(self) -> int:
        return len(self._spans) // 2

    def __getitem__(self, i):
        row = range(len(self))[i]  # an IndexError past either end, like a list's
        if isinstance(row, range):
            return [self[j] for j in row]
        return self._decode(self._data, self._spans[2 * row], self._spans[2 * row + 1])


@contextlib.contextmanager
def replacing(path: Path, mode: str):
    """Write `path` whole, in its directory made if missing, through a handle
    on `<path>.tmp` opened in `mode` ("w" for UTF-8 text, "wb" for bytes):
    success renames it over `path`, any failure removes it."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open(mode, encoding=None if "b" in mode else "utf-8") as handle:
            yield handle
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path: Path, payload) -> None:
    """Replace `path` whole with `payload` as indented JSON, keys sorted,
    non-ASCII text kept as UTF-8, and a final newline."""
    with replacing(path, "w") as handle:
        handle.write(json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n")


def service_error(status: int, body: str) -> AutopatchError:
    """The error for a failed service call: `status` is the HTTP status, or 0
    where there is none."""
    return AutopatchError(f"service returned {status}: {body[:500]}")


def http_post_json(url: str, payload: dict, api_key: str, timeout_s: float) -> dict:
    """POST `payload` as JSON, with a bearer `Authorization` header when
    `api_key` is non-empty, and decode the JSON response.

    Every failure raises `service_error`: an error status with its body, a
    body that `loads` rejects with the reply's status, and a transport
    failure (a URL without a scheme, no connection, a timeout, a reply cut
    short) with status 0.
    """
    body = json.dumps(payload).encode("utf-8")
    headers = {"Content-Type": "application/json"}
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    try:
        try:
            request = urllib.request.Request(url, data=body, headers=headers, method="POST")
            with urllib.request.urlopen(request, timeout=timeout_s) as response:
                status, raw = response.status, response.read()
        except urllib.error.HTTPError as exc:  # whose body may be cut short too
            raise service_error(exc.code, exc.read().decode("utf-8", "replace")) from None
    except (OSError, ValueError, http.client.HTTPException) as exc:  # ValueError: unknown url type
        raise service_error(0, f"service unreachable: {exc}") from exc
    try:
        return loads(raw)
    except ValueError as exc:
        raise service_error(status, f"response is not JSON: {exc}") from None


def tool_from_env(binary_env: str, flags_env: str, binary: str,
                  flags: tuple[str, ...]) -> tuple[str, tuple[str, ...]]:
    """An outside tool's binary and flags: the values of the environment
    variables `binary_env` and `flags_env` (split as a shell would), or, for
    a variable that is unset or empty, the default `binary` or `flags`."""
    env_flags = os.environ.get(flags_env)
    return os.environ.get(binary_env) or binary, tuple(shlex.split(env_flags)) if env_flags else flags


# The outside tools (the analyzer and the compiler) that run at once,
# however many stage threads wait on them: two a core, since a compile
# leaves its core idle while it execs, writes temporary files and links.
# The cores are those this process may run on, not the host's.
TOOL_SLOTS = 2 * len(os.sched_getaffinity(0))
_free_slots = threading.BoundedSemaphore(TOOL_SLOTS)

# The most stderr a tool may write. The analyzer's stderr is its answer,
# and the largest stub dump of the benchmark's corpora is about 15 KB; a
# tool that writes more is killed, rather than read into memory until it
# exits or times out.
TOOL_STDERR_LIMIT = 4 << 20


def run_tool(tool: str, binary: str, args: Sequence[str], cwd: Path | str | None,
             timeout_s: float) -> tuple[int, str]:
    """Run `binary`, found on PATH, with `args` in `cwd` (None: the caller's)
    and an empty file for stdin; return its exit status and stderr text,
    and discard its stdout. At most two tools a core run at once: a call
    waits for a slot, and its timeout starts once it has one. A binary that
    is not on PATH, cannot start, times out or writes more than
    TOOL_STDERR_LIMIT bytes of stderr raises AutopatchError naming `tool`."""
    found = shutil.which(binary)
    if found is None:
        raise AutopatchError(f"{tool} {binary!r} not on PATH")
    with _free_slots:
        try:
            returncode, stderr = run_process([os.path.abspath(found), *args], cwd, b"", "stderr",
                                             timeout_s, TOOL_STDERR_LIMIT)
        except TimeoutError:  # an OSError too, so caught first
            raise AutopatchError(f"{tool} timed out after {timeout_s}s") from None
        except OSError as exc:  # e.g. a missing script interpreter
            # Named without its directory, which may be temporary.
            raise AutopatchError(f"{tool} could not start: {exc.strerror}: {Path(found).name}") from None
    if len(stderr) > TOOL_STDERR_LIMIT:
        raise AutopatchError(f"{tool} wrote more than {TOOL_STDERR_LIMIT} bytes of stderr")
    # Decoded leniently: bytes that are not UTF-8 must not escape as a
    # UnicodeDecodeError, which no stage contains per record.
    return returncode, stderr.decode("utf-8", "replace")


def run_process(argv: Sequence[str], cwd: Path | str | None, data: bytes, stream: str,
                timeout_s: float, limit: int) -> tuple[int, bytearray]:
    """Start `argv` in `cwd` (None: the caller's) with its stdin a file that
    holds `data`, as `prog < input` gives, read back its `stream`, "stdout"
    or "stderr", discard the other, and reap it the moment it exits. Returns
    its exit status and what `stream` held. The one place a process starts.

    The file is an anonymous in-memory one (`memfd_create`, Linux 3.17), so
    a process may `fstat`, `mmap` or seek its stdin, read it in any order or
    not at all, and the caller writes it whole before the process starts.

    The process leads a process group of its own (a new session), and one
    rule ends a run: a run ends when its first process exits, and whatever
    is left in its group is killed, so a child that holds `stream` open
    neither keeps the run going nor outlives it. A process that leaves the
    group, by `setsid` or `setpgid`, escapes the rule.

    A process that cannot start raises the OSError of its launch. A process
    still running after `timeout_s` seconds is killed with its group, and
    TimeoutError (an OSError) raised. A stream that holds more than `limit`
    bytes has the group killed at once and is returned as it is, longer
    than `limit`.
    Unlike `subprocess.run(timeout=)`, which polls for the exit with sleeps
    that start at 1 ms and double, the exit is awaited on a pidfd, so neither
    a tool's slot nor a timed run lasts until the next poll tick.
    """
    deadline = time.monotonic() + timeout_s
    pipes = {"stdout": subprocess.DEVNULL, "stderr": subprocess.DEVNULL, stream: subprocess.PIPE}
    with open(os.memfd_create("stdin"), "w+b") as stdin:  # closed once the process holds it
        stdin.write(data)
        stdin.seek(0)
        proc = subprocess.Popen(argv, cwd=cwd, stdin=stdin, start_new_session=True, **pipes)
    out = proc.stdout if stream == "stdout" else proc.stderr
    read = bytearray()
    pidfd = None
    try:
        pidfd = os.pidfd_open(proc.pid)
        with selectors.DefaultSelector() as selector:
            selector.register(pidfd, selectors.EVENT_READ)  # readable once the process exits
            selector.register(out, selectors.EVENT_READ)
            while selector.get_map() and len(read) <= limit:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError
                for key, _ in selector.select(remaining):
                    if key.fileobj is out:
                        chunk = os.read(key.fd, 65536)
                        if not chunk:
                            selector.unregister(out)
                        read += chunk
                    else:  # so no child that holds the stream keeps the run going
                        selector.unregister(pidfd)
                        with contextlib.suppress(ProcessLookupError):
                            os.killpg(proc.pid, signal.SIGKILL)
    finally:
        if pidfd is not None:
            os.close(pidfd)
        # The process itself at the deadline, past the limit or interrupted,
        # and any child left in its group; unreaped, it still names the group.
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        out.close()
    return proc.returncode, read
