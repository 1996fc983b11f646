"""Prompt assembly and the chat-completion client.

All three generation modes share one template skeleton so that their only
differences are content: the zero-shot prompt carries the target program
alone, the naive prompt adds exactly one retrieved example pair, and the
context prompt additionally includes that example's structural change summary
and its stored optimization rationale.

The client runs in one of three modes: `live` (straight HTTP), `record` (HTTP
plus cassette capture), and `replay` (cassette only, zero network activity).
Cassette keys hash (model, system_text, user_text), so recordings are portable
across runs and machines.
"""

from __future__ import annotations

import hashlib
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

from ._http import http_post_json, service_error
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


@dataclass(frozen=True)
class Prompt:
    mode: PromptMode
    system_text: str
    user_text: str
    target_id: str


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


def build_prompt(
    mode: PromptMode,
    target: CodePair,
    diff: str | None = None,
    rationale: str | None = None,
    example: CodePair | None = None,
) -> Prompt:
    """Assemble the prompt for one target. Optional arguments must agree with
    the mode: zero-shot takes none of them, naive exactly one example, context
    exactly one example plus diff text and rationale."""
    if mode is PromptMode.ZERO_SHOT and not (diff is None and rationale is None and example is None):
        raise AutopatchError("zero-shot prompts take no context arguments")
    if mode is PromptMode.NAIVE and (diff is not None or rationale is not None):
        raise AutopatchError("naive prompts take only an example pair")
    if mode is PromptMode.NAIVE and example is None:
        raise AutopatchError("naive prompts require exactly one example pair")
    if mode is PromptMode.CONTEXT and (diff is None or rationale is None or example is None):
        raise AutopatchError("context prompts require diff, rationale, and example")

    sections = ["## Target program", "", _fence(target.original_code)]
    if example is not None:
        sections += [
            "",
            "## Reference example: original",
            "",
            _fence(example.original_code),
            "",
            "## Reference example: optimized",
            "",
            _fence(example.optimized_code),
        ]
    if diff is not None:
        sections += ["", "## Control-flow changes in the reference example", "", diff.rstrip()]
    if rationale is not None:
        sections += ["", "## Why the reference optimization works", "", rationale.rstrip()]
    sections += [
        "",
        "## Task",
        "",
        "Produce an optimized version of the target program.",
    ]

    return Prompt(
        mode=mode,
        system_text=OPTIMIZER_SYSTEM_TEXT,
        user_text="\n".join(sections),
        target_id=target.id,
    )


def request_hash(model: str, system_text: str, user_text: str) -> str:
    canonical = json.dumps(
        {"model": model, "system": system_text, "user": user_text},
        sort_keys=True,
        ensure_ascii=False,
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class Cassette:
    """Persisted request -> response map for offline replay.

    The file is JSON Lines, one `{"key", "request", "response", "timestamp"}`
    object per line; `store` appends one line under a lock, and on load the
    last line for a key wins. Two files are read as they are and rewritten
    as lines, under `<path>.tmp` and renamed into place, on the first store:
    one in the older layout (one JSON map from key to entry), and one whose
    final line lacks its newline, which is what a crash mid-append leaves
    (that line is dropped with a warning). Any other line that is not an
    entry, one whose text is not valid Unicode included, raises
    AutopatchError naming the file and line; so does a map entry that is
    not one. A rewrite that fails leaves the file as it was.
    """

    def __init__(self, path: Path | str):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._data: dict[str, dict] = {}
        self._rewrite = False  # the first store rewrites the file as lines
        if self.path.exists():
            self._load(self.path.read_bytes())

    def _load(self, raw: bytes) -> None:
        try:
            whole = json.loads(raw)
        except ValueError:  # JSON Lines hold more than one document
            whole = None
        if isinstance(whole, dict) and not isinstance(whole.get("key"), str):
            for number, (key, entry) in enumerate(whole.items(), start=1):
                if not (isinstance(entry, dict) and _is_text({key: entry})):
                    raise AutopatchError(f"{self.path}: map entry {number} is not a cassette entry")
            self._data = whole
            self._rewrite = True
            return
        *lines, torn = raw.split(b"\n")
        for line_no, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
            except ValueError:
                entry = None
            if not (isinstance(entry, dict) and isinstance(entry.get("key"), str) and _is_text(entry)):
                raise AutopatchError(f"{self.path}: line {line_no} is not a cassette entry")
            self._data[entry.pop("key")] = entry
        if torn:
            logger.warning("%s: dropping a torn final line of %d bytes", self.path, len(torn))
            self._rewrite = True

    def lookup(self, key: str) -> dict | None:
        return self._data.get(key)

    def store(self, key: str, request: dict, response: dict) -> None:
        entry = {
            "request": request,
            "response": response,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        }
        if not _is_text({key: entry}):
            raise AutopatchError(f"cassette entry for request {key} is not valid Unicode")
        with self._lock:
            if self._rewrite:
                data = {**self._data, key: entry}
                tmp = self.path.with_suffix(self.path.suffix + ".tmp")
                try:
                    with tmp.open("w", encoding="utf-8") as handle:
                        for each_key, each in data.items():
                            handle.write(_cassette_line(each_key, each))
                    tmp.replace(self.path)
                except BaseException:
                    tmp.unlink(missing_ok=True)
                    raise
                self._data = data
                self._rewrite = False
                return
            with self.path.open("a", encoding="utf-8") as handle:
                handle.write(_cassette_line(key, entry))
            self._data[key] = entry


def _cassette_line(key: str, entry: dict) -> str:
    return json.dumps({"key": key, **entry}, sort_keys=True, ensure_ascii=False) + "\n"


def _is_text(obj) -> bool:
    """Whether a decoded JSON value can be written as UTF-8: JSON can escape
    a lone surrogate, which no text file can hold."""
    try:
        json.dumps(obj, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


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
    """Chat-completion client with record/replay support.

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
        try:
            return http_post_json(self.config.base_url, request, self.config.api_key, LLM_TIMEOUT_S)
        except OSError as exc:  # e.g. connection refused; fails one record
            raise service_error(0, f"chat service unreachable: {exc}") from exc

    def complete(self, system_text: str, user_text: str) -> str:
        """Send one system+user exchange at temperature 0, return the text."""
        key = request_hash(self.config.model, system_text, user_text)

        if self.mode == "replay":
            hit = self.cassette.lookup(key)
            if hit is None:
                raise AutopatchError(f"no cassette entry for request {key}")
            return _answer_text(hit["response"])

        request = {
            "model": self.config.model,
            "messages": [
                {"role": "system", "content": system_text},
                {"role": "user", "content": user_text},
            ],
            "temperature": self.config.temperature,
        }
        response = (self._transport or self._http_transport)(request)
        content = _answer_text(response)
        if self.mode == "record":
            self.cassette.store(key, request, response)
        return content


def _answer_text(response: dict) -> str:
    """`choices[0].message.content` of a chat response; any other shape, a
    null, non-string or not valid Unicode content included (JSON can escape a
    lone surrogate), raises `service_error`."""
    try:
        content = response["choices"][0]["message"]["content"]
        if isinstance(content, str):
            content.encode("utf-8")
    except (KeyError, IndexError, TypeError, UnicodeEncodeError):
        content = None
    if not isinstance(content, str):
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


def generate_patch(prompt: Prompt, llm: LlmClient) -> str:
    """The code of the first fenced block of the service's answer."""
    return extract_code_block(llm.complete(prompt.system_text, prompt.user_text))


def generate_rationale(diff: CfgDiff, pair: CodePair, llm: LlmClient) -> str:
    """Explain why the pair's optimized side improves on the original, in
    terms of the structural diff. An empty diff short-circuits to a fixed
    string without any service call."""
    if diff.is_empty():
        return EMPTY_DIFF_RATIONALE
    user_text = "\n".join(
        [
            "## Original program",
            "",
            _fence(pair.original_code),
            "",
            "## Optimized program",
            "",
            _fence(pair.optimized_code),
            "",
            "## Control-flow changes",
            "",
            render_diff(diff).rstrip(),
            "",
            "## Task",
            "",
            "Explain briefly why the optimized program is faster, referencing the blocks above.",
        ]
    )
    return llm.complete(RATIONALE_SYSTEM_TEXT, user_text).strip()
