"""Prompt assembly and the chat-completion client.

Every prompt is laid out by one function, `_document`, from its `(heading,
body)` sections. All three generation modes share `build_prompt` and differ
only in the sections the optimize stage gives it: the zero-shot prompt
carries the target program alone, the naive prompt adds exactly one retrieved
example pair, and the context prompt additionally includes that example's
structural change summary and its stored optimization rationale. The index
stage's rationale requests (`generate_rationale`) share the layout too.

The client runs in one of three modes: `live` (straight HTTP), `record` (HTTP
plus cassette capture), and `replay` (cassette only, zero network activity).
Cassette keys are the `_io.content_key` of (model, system_text, user_text),
so recordings are portable across runs and machines, and each cassette line
is written by `_io.canonical`. `LlmClient.answer` is that record/replay rule
for any request a caller keys by `content_key`: `complete` sends a chat
exchange through it, and `analyzer.extract_cfg` a run of the static analyzer.
"""

from __future__ import annotations

import json
import logging
import os
import re
import threading
import time
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable

from ._io import canonical, content_key, http_post_json, is_text, object_line, replacing, service_error
from .cfg_diff import CfgDiff, render_diff
from .corpus import CodePair
from .errors import AutopatchError

logger = logging.getLogger(__name__)

LLM_BASE_ENV = "AUTOPATCH_LLM_BASE"
LLM_KEY_ENV = "AUTOPATCH_LLM_KEY"
LLM_MODEL_ENV = "AUTOPATCH_LLM_MODEL"
LLM_TIMEOUT_S = 120.0

EMPTY_DIFF_RATIONALE = "no structural changes detected"


class PromptMode(Enum):
    ZERO_SHOT = "zero_shot"
    NAIVE = "naive"
    CONTEXT = "context"


OPTIMIZER_SYSTEM_TEXT = (
    "You are an expert C++ performance engineer. Rewrite the target program so it "
    "runs faster while preserving its exact input/output behavior. Reply with the "
    "complete rewritten program in a single fenced code block."
)

RATIONALE_SYSTEM_TEXT = (
    "You are an expert C++ performance engineer. Explain concisely why the optimized "
    "version of the program below is faster than the original, grounding the "
    "explanation in the listed control-flow changes."
)


def _fence(code: str) -> str:
    return f"```cpp\n{code.rstrip()}\n```"


def _document(sections: list[tuple[str, str]]) -> str:
    """The one prompt layout: each `(heading, body)` section as a `## `
    heading, a blank line and its body, sections a blank line apart."""
    return "\n\n".join(f"## {heading}\n\n{body}" for heading, body in sections)


def build_prompt(target: CodePair, example: CodePair | None = None,
                 context: tuple[str, str] | None = None) -> str:
    """The user text of a patch request: the target program, then the
    example pair when one is given, then the example's `(diff_text,
    rationale)` pair when one is given, then the task."""
    sections = [("Target program", _fence(target.original_code))]
    if example is not None:
        sections += [("Reference example: original", _fence(example.original_code)),
                     ("Reference example: optimized", _fence(example.optimized_code))]
    if context is not None:
        diff_text, rationale = context
        sections += [("Control-flow changes in the reference example", diff_text.rstrip()),
                     ("Why the reference optimization works", rationale.rstrip())]
    sections.append(("Task", "Produce an optimized version of the target program."))
    return _document(sections)


def request_hash(model: str, system_text: str, user_text: str) -> str:
    return content_key({"model": model, "system": system_text, "user": user_text})


class Cassette:
    """Persisted request -> response map for offline replay.

    The file is JSON Lines, one `{"key", "request", "response", "timestamp"}`
    object per line, for a chat exchange or an analyzer run; `store` appends
    one line under a lock, and on load the last line for a key wins. Two
    files are read as they are and rewritten as lines, under `<path>.tmp`
    and renamed into place, on the first store: one in the older layout (one
    JSON map from key to entry), and one whose final line lacks its newline,
    which is what a crash mid-append leaves (that line is dropped with a
    warning). Any other line that is not an entry, one whose text is not
    valid Unicode included, raises AutopatchError naming the file and line;
    so does a map entry that is not one. A rewrite that fails leaves the
    file as it was.
    """

    def __init__(self, path: Path | str):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._data: dict[str, dict] = {}
        self._rewrite = False  # the first store rewrites the file as lines
        if self.path.exists():
            with self.path.open("rb") as handle:
                self._load(handle)

    def _load(self, handle) -> None:
        # A first line that is an entry means JSON Lines, which are read a
        # line at a time; only a file that starts otherwise is decoded whole,
        # as the older map layout, since that holds all of its text at once.
        if object_line(handle.readline(), "key") is None:
            try:  # not `loads`, so that a map entry that is not text is named below
                whole = json.loads(self.path.read_bytes())
            except ValueError:  # not one document, so JSON Lines after all
                whole = None
            if isinstance(whole, dict) and not isinstance(whole.get("key"), str):
                for number, (key, entry) in enumerate(whole.items(), start=1):
                    if not (isinstance(entry, dict) and is_text({key: entry})):
                        raise AutopatchError(f"{self.path}: map entry {number} is not a cassette entry")
                self._data = whole
                self._rewrite = True
                return
        handle.seek(0)
        for line_no, line in enumerate(handle, start=1):
            if not line.endswith(b"\n"):
                logger.warning("%s: dropping a torn final line of %d bytes", self.path, len(line))
                self._rewrite = True
            elif line.strip():
                entry = object_line(line, "key")
                if entry is None:
                    raise AutopatchError(f"{self.path}: line {line_no} is not a cassette entry")
                self._data[entry.pop("key")] = entry

    def lookup(self, key: str) -> dict | None:
        return self._data.get(key)

    def store(self, key: str, request: dict, response: dict) -> None:
        entry = {
            "request": request,
            "response": response,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        }
        if not is_text({key: entry}):
            raise AutopatchError(f"cassette entry for request {key} is not valid Unicode")
        with self._lock:
            if self._rewrite:
                data = {**self._data, key: entry}
                with replacing(self.path, "w") as handle:
                    for each_key, each in data.items():
                        handle.write(canonical({"key": each_key, **each}) + "\n")
                self._data = data
                self._rewrite = False
                return
            with self.path.open("a", encoding="utf-8") as handle:
                handle.write(canonical({"key": key, **entry}) + "\n")
            self._data[key] = entry


@dataclass
class LlmConfig:
    base_url: str = ""
    api_key: str = ""
    model: str = "default-model"
    temperature = 0.0  # a class constant, not a field: every request is greedy

    @classmethod
    def from_env(cls) -> "LlmConfig":
        return cls(
            base_url=os.environ.get(LLM_BASE_ENV, ""),
            api_key=os.environ.get(LLM_KEY_ENV, ""),
            model=os.environ.get(LLM_MODEL_ENV, "default-model"),
        )


Transport = Callable[[dict], dict]


class LlmClient:
    """Chat-completion client with record/replay support (`answer`), which
    the static analyzer's answers go through too.

    `transport` maps a request body to a decoded response body; the default
    posts to the configured HTTP service. Replay mode never touches the
    transport, so a replayed pipeline performs zero network operations.
    """

    def __init__(
        self,
        config: LlmConfig,
        cassette: Cassette | None,
        mode: str,
        transport: Transport | None = None,
    ):
        if mode not in ("live", "record", "replay"):
            raise ValueError(f"unknown client mode {mode!r}")
        if mode in ("record", "replay") and cassette is None:
            raise ValueError(f"{mode} mode requires a cassette")
        self.config = config
        self.cassette = cassette
        self.mode = mode
        self._transport = transport  # None: the HTTP service

    def _http_transport(self, request: dict) -> dict:
        if not self.config.base_url:
            raise service_error(0, "no chat service URL configured")
        return http_post_json(self.config.base_url, request, self.config.api_key, LLM_TIMEOUT_S)

    def answer(self, key: str, request: dict, send, decode, replay_miss_sends: bool):
        """The record/replay rule, for a chat exchange and an analyzer run
        alike: `decode` of the response that `send(request)` returns, which
        record mode then stores under `key`; in replay mode, `decode` of the
        response stored under `key`. A replay miss raises AutopatchError,
        or, with `replay_miss_sends`, is sent with a warning and stored
        nowhere. Record mode never looks a key up, and replay mode never
        stores."""
        if self.mode == "replay":
            hit = self.cassette.lookup(key)
            if hit is not None:
                return decode(hit.get("response"))
            if not replay_miss_sends:
                raise AutopatchError(f"no cassette entry for request {key}")
            logger.warning("%s: no entry for request %s; running it live, unrecorded",
                           self.cassette.path, key)
        response = send(request)
        answer = decode(response)
        if self.mode == "record":
            self.cassette.store(key, request, response)
        return answer

    def complete(self, system_text: str, user_text: str) -> str:
        """Send one system+user exchange at temperature 0, return the text."""
        request = {
            "model": self.config.model,
            "messages": [
                {"role": "system", "content": system_text},
                {"role": "user", "content": user_text},
            ],
            "temperature": self.config.temperature,
        }
        return self.answer(request_hash(self.config.model, system_text, user_text), request,
                           self._transport or self._http_transport, _answer_text, False)


def _answer_text(response: dict) -> str:
    """`choices[0].message.content` of a chat response; any other shape, a
    null, non-string or not valid Unicode content included (JSON can escape a
    lone surrogate), raises `service_error`."""
    try:
        content = response["choices"][0]["message"]["content"]
    except (KeyError, IndexError, TypeError):
        content = None
    if not (isinstance(content, str) and is_text(content)):
        raise service_error(0, f"malformed chat response: {json.dumps(response)[:300]}")
    return content


_FENCED_BLOCK = re.compile(r"```[^\n`]*\n(.*?)```", re.DOTALL)


def extract_code_block(text: str) -> str:
    """First fenced code block of the response; extra blocks are ignored."""
    matches = _FENCED_BLOCK.findall(text)
    if not matches:
        raise AutopatchError("response contains no fenced code block")
    if len(matches) > 1:
        logger.info("response contained %d fenced blocks; using the first", len(matches))
    code = matches[0]
    if not code.strip():
        raise AutopatchError("first fenced code block is empty")
    return code


def generate_patch(prompt_text: str, llm: LlmClient) -> str:
    """The code of the first fenced block of the service's answer to
    `prompt_text` under OPTIMIZER_SYSTEM_TEXT."""
    return extract_code_block(llm.complete(OPTIMIZER_SYSTEM_TEXT, prompt_text))


def generate_rationale(diff: CfgDiff, pair: CodePair, llm: LlmClient) -> str:
    """Explain why the pair's optimized side improves on the original, in
    terms of the structural diff. An empty diff short-circuits to a fixed
    string without any service call."""
    if diff.is_empty():
        return EMPTY_DIFF_RATIONALE
    user_text = _document([
        ("Original program", _fence(pair.original_code)),
        ("Optimized program", _fence(pair.optimized_code)),
        ("Control-flow changes", render_diff(diff).rstrip()),
        ("Task", "Explain briefly why the optimized program is faster, referencing the blocks above."),
    ])
    return llm.complete(RATIONALE_SYSTEM_TEXT, user_text).strip()
