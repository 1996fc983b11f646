"""Minimal JSON-over-HTTP POST helper shared by the service clients."""

from __future__ import annotations

import json
import urllib.error
import urllib.request

from .errors import ServiceError


def http_post_json(url: str, payload: dict, headers: dict, timeout_s: float) -> dict:
    """POST `payload` as JSON and decode the JSON response.

    HTTP error statuses and a body that is not UTF-8 JSON raise
    ServiceError; transport failures surface as the underlying OSError for
    the caller to classify.
    """
    body = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(url, data=body, method="POST")
    request.add_header("Content-Type", "application/json")
    for key, value in headers.items():
        request.add_header(key, value)
    try:
        with urllib.request.urlopen(request, timeout=timeout_s) as response:
            status, raw = response.status, response.read()
    except urllib.error.HTTPError as exc:
        raise ServiceError(exc.code, exc.read().decode("utf-8", "replace")) from None
    try:
        return json.loads(raw.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError alike
        raise ServiceError(status, f"response is not JSON: {exc}") from None
