"""Minimal JSON-over-HTTP POST helper shared by the service clients."""

from __future__ import annotations

import json
import urllib.error
import urllib.request

from .errors import AutopatchError


def service_error(status: int, body: str) -> AutopatchError:
    """The error for a failed service call: `status` is the HTTP status, or 0
    where there is none."""
    return AutopatchError(f"service returned {status}: {body[:500]}")


def http_post_json(url: str, payload: dict, api_key: str, timeout_s: float) -> dict:
    """POST `payload` as JSON, with a bearer `Authorization` header when
    `api_key` is non-empty, and decode the JSON response.

    HTTP error statuses and a body that is not UTF-8 JSON raise
    `service_error`; transport failures surface as the underlying OSError
    for the caller to classify.
    """
    body = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(url, data=body, method="POST")
    request.add_header("Content-Type", "application/json")
    if api_key:
        request.add_header("Authorization", f"Bearer {api_key}")
    try:
        with urllib.request.urlopen(request, timeout=timeout_s) as response:
            status, raw = response.status, response.read()
    except urllib.error.HTTPError as exc:
        raise service_error(exc.code, exc.read().decode("utf-8", "replace")) from None
    try:
        return json.loads(raw.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError alike
        raise service_error(status, f"response is not JSON: {exc}") from None
