"""The package's byte boundary: how bytes from outside become Python objects,
how a file is replaced whole, and how a JSON-over-HTTP service call fails."""

from __future__ import annotations

import contextlib
import http.client
import json
import urllib.error
import urllib.request
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


def service_error(status: int, body: str) -> AutopatchError:
    """The error for a failed service call: `status` is the HTTP status, or 0
    where there is none."""
    return AutopatchError(f"service returned {status}: {body[:500]}")


def http_post_json(url: str, payload: dict, api_key: str, timeout_s: float) -> dict:
    """POST `payload` as JSON, with a bearer `Authorization` header when
    `api_key` is non-empty, and decode the JSON response.

    Every failure raises `service_error`: an error status with its body, a
    body that `loads` rejects with the reply's status, and a transport
    failure (no connection, a timeout, a reply cut short) with status 0.
    """
    body = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(url, data=body, method="POST")
    request.add_header("Content-Type", "application/json")
    if api_key:
        request.add_header("Authorization", f"Bearer {api_key}")
    try:
        try:
            with urllib.request.urlopen(request, timeout=timeout_s) as response:
                status, raw = response.status, response.read()
        except urllib.error.HTTPError as exc:  # whose body may be cut short too
            raise service_error(exc.code, exc.read().decode("utf-8", "replace")) from None
    except (OSError, http.client.HTTPException) as exc:
        raise service_error(0, f"service unreachable: {exc}") from exc
    try:
        return loads(raw)
    except ValueError as exc:
        raise service_error(status, f"response is not JSON: {exc}") from None
