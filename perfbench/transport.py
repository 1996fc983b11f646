"""In-process scripted chat transport standing in for the chat service.

Answers depend only on the request, so recordings are deterministic. A
patch request answers with the target's optimized side when the prompt
carries a reference example (naive and context modes) and with the target
unchanged otherwise (zero-shot); a rationale request answers with a sentence
naming the changed blocks. A fixed per-call delay stands for the service
round trip.
"""

from __future__ import annotations

import re
import time

from autopatch.prompting import RATIONALE_SYSTEM_TEXT

_TARGET = re.compile(r"## Target program\n\n```cpp\n(.*?)```", re.DOTALL)
_BLOCK_REF = re.compile(r"\bB\d+\b")


def expected_patch(record: dict, with_example: bool) -> str:
    """The patch file the pipeline writes for this answer."""
    body = record["optimized_code"] if with_example else record["original_code"]
    return body.rstrip() + "\n"


class ScriptedTransport:
    def __init__(self, records: list[dict], delay_s: float):
        self._by_original = {r["original_code"].rstrip(): r for r in records}
        self.delay_s = delay_s

    def __call__(self, request: dict) -> dict:
        if self.delay_s:
            time.sleep(self.delay_s)
        system = request["messages"][0]["content"]
        user = request["messages"][1]["content"]
        if system == RATIONALE_SYSTEM_TEXT:
            blocks = sorted(set(_BLOCK_REF.findall(user)))[:6]
            content = (
                "The optimized program drops the work of "
                + (", ".join(blocks) or "the hot path")
                + ": the removed loop blocks become closed-form statements, so the "
                "instructions executed no longer grow with the input."
            )
        else:
            match = _TARGET.search(user)
            record = self._by_original[match.group(1).rstrip()]
            patch = expected_patch(record, "## Reference example" in user)
            content = f"Here is the rewritten program:\n\n```cpp\n{patch}```\n"
        return {"choices": [{"message": {"content": content}}]}
