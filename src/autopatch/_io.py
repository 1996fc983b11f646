"""The package's byte boundary: how bytes from outside become Python objects,
how every JSON Lines line and content key is encoded, split and decoded,
how the lines of a file are kept as its bytes and decoded when read, how a
file is replaced whole (a JSON document with `write_json`), how a
JSON-over-HTTP service call fails, and how an outside tool is configured
(`tool_from_env`), run with no stdin and fails to start (`run_tool`)."""

from __future__ import annotations

import contextlib
import hashlib
import http.client
import json
import os
import shlex
import shutil
import subprocess
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


def run_tool(tool: str, binary: str, args: Sequence[str], cwd: Path | str | None,
             timeout_s: float) -> tuple[int, str]:
    """Run `binary`, found on PATH, with `args` in `cwd` (None: the caller's)
    and no stdin, and return its exit status and its stderr text; its stdout
    is discarded. A binary that is not on PATH, cannot start or times out
    raises AutopatchError naming `tool`."""
    found = shutil.which(binary)
    if found is None:
        raise AutopatchError(f"{tool} {binary!r} not on PATH")
    try:
        proc = subprocess.run([os.path.abspath(found), *args], cwd=cwd, stdin=subprocess.DEVNULL,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=timeout_s)
    except subprocess.TimeoutExpired:
        raise AutopatchError(f"{tool} timed out after {timeout_s}s") from None
    except OSError as exc:  # e.g. a missing script interpreter
        # Named without its directory, which may be temporary.
        raise AutopatchError(f"{tool} could not start: {exc.strerror}: {Path(found).name}") from None
    # Decoded leniently: bytes that are not UTF-8 must not escape as a
    # UnicodeDecodeError, which no stage contains per record.
    return proc.returncode, proc.stderr.decode("utf-8", "replace")
