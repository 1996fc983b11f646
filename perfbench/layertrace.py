"""Outside-in layer tracing for the benchmark's traced run.

`Tracer.install` rebinds the public functions and `Cassette` methods named
in LAYERS to timing wrappers, in every `autopatch` module that holds them
(so `from .x import f` aliases are caught too); `uninstall` restores them.
Spans stay in memory: name, start, end, parent span, thread id, and the
record id and mode where known. A layer whose target no longer exists is
reported as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import threading
import time
from pathlib import Path

# target -> the per-layer statistics reported for it
LAYERS: dict[str, tuple[str, ...]] = {
    "analyzer.run_analyzer": ("calls", "s", "p50_ms", "tail_ms"),
    "analyzer.parse_cfg_dump": ("s",),
    "analyzer.extract_cfg": ("failed",),
    "preprocess.preprocess_source": ("s",),
    "cfg_diff.compute_diff": ("calls", "s", "p50_ms", "tail_ms"),
    "cfg_diff.render_diff": ("s",),
    "cfg.serialize_cfg": ("s",),
    "prompting.Cassette.store": ("calls", "s", "p50_ms", "tail_ms"),
    "prompting.Cassette.__init__": ("s",),
    "prompting.Cassette.lookup": ("calls", "s"),
    "prompting.LlmClient.complete": ("calls", "s", "failed"),
    "prompting.generate_rationale": ("calls", "s"),
    "prompting.build_prompt": ("s",),
    "retrieval.retrieve_top1": ("calls", "s", "p50_ms", "tail_ms"),
    "retrieval.load_index": ("s",),
    "retrieval.embed_text": ("calls", "s"),
    "retrieval.build_index": ("s",),
    "corpus.ingest_pairs": ("s",),
    "metrics.levenshtein": ("calls", "s", "p50_ms", "tail_ms"),
    "metrics.compute_lexical": ("s",),
    "metrics.tokenize": ("s",),
    "harness.compile_program": ("calls", "s", "p50_ms", "tail_ms", "failed"),
    "harness.measure_execution": ("calls", "s", "p50_ms", "tail_ms", "failed"),
    "report.aggregate_report": ("s",),
    "pipeline.run_index": ("self_s",),
    "pipeline.run_optimize": ("self_s",),
    "pipeline.run_eval": ("self_s",),
}

# Private per-record entry points: wrapped only to learn the record id and
# mode of the spans beneath them. They make no span and report nothing.
CONTEXTS = ("pipeline._prepare_record", "pipeline._build_mode_prompt", "prompting.generate_patch")

# Gauges that the workloads measure themselves, beside the span statistics.
GAUGES: dict[str, str] = {
    "prompting.cassette_bytes": "bytes",
    "prompting.replay_hit_ratio": "ratio",
    "retrieval.index_entries": "count",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}

UNITS = {"calls": "count", "failed": "count", "s": "s", "self_s": "s", "p50_ms": "ms", "tail_ms": "ms"}
_TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit)."""
    names = [(f"{target}.{stat}", UNITS[stat]) for target, stats in LAYERS.items() for stat in stats]
    return names + list(GAUGES.items())


def _failed(target: str, result) -> bool:
    """Failure read off a returned value: a cassette miss, or a run outcome
    whose status is not OK."""
    if target == "prompting.Cassette.lookup":
        return result is None
    status = getattr(result, "status", None)
    return status is not None and getattr(status, "value", "ok") != "ok"


def _ids(args, kwargs) -> tuple[str | None, str | None]:
    """Record id and mode visible in a call's arguments: a code pair, a
    prompt, a prompt mode, or a `bin/<mode>/<id>` harness path."""
    record_id = mode = None
    for arg in (*args, *kwargs.values()):
        if hasattr(arg, "original_code") and hasattr(arg, "id"):
            record_id = arg.id
        elif hasattr(arg, "target_id") and hasattr(arg, "mode"):
            record_id, mode = arg.target_id, arg.mode.value
        elif type(arg).__name__ == "PromptMode":
            mode = arg.value
        elif isinstance(arg, Path) and "bin" in arg.parts:
            parts = arg.parts[arg.parts.index("bin") + 1 :]
            if len(parts) >= 2:
                mode, record_id = parts[0], parts[1]
    return record_id, mode


def _resolve(target: str):
    """(owner object, attribute, original) for `module.func` or
    `module.Class.method`; None when the target no longer exists."""
    module_name, *path = target.split(".")
    owner = sys.modules.get(f"autopatch.{module_name}")
    if owner is None:
        return None
    for name in path[:-1]:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    original = vars(owner).get(path[-1])
    if original is None or not callable(original):
        return None
    return owner, path[-1], original


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, thread, record_id, mode, failed]
        self.absent: list[str] = []
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _inherited(self, parent) -> list[tuple]:
        """(record id, mode) pairs a new span falls back on, nearest first:
        the enclosing per-record call's, then the parent span's."""
        inherited = getattr(self._local, "context", [])[-1:]
        if parent is not None:
            inherited.append((self.spans[parent][5], self.spans[parent][6]))
        return inherited

    def _span_wrapper(self, target: str, fn):
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            record_id, mode = _ids(args, kwargs)
            for known_id, known_mode in self._inherited(parent):
                record_id, mode = record_id or known_id, mode or known_mode
            span = [target, 0.0, 0.0, parent, threading.get_ident(), record_id, mode, False]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[7] = True
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            span[7] = _failed(target, result)
            return result

        return wrapper

    def _context_wrapper(self, fn):
        local = self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not hasattr(local, "context"):
                local.context = []
            local.context.append(_ids(args, kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                local.context.pop()

        return wrapper

    def _rebind(self, owner, attr: str, original, replacement) -> None:
        if isinstance(owner, type):
            holders = [owner]
        else:  # every autopatch module holding the function under this name
            holders = [
                module for name, module in list(sys.modules.items())
                if name.split(".")[0] == "autopatch" and getattr(module, attr, None) is original
            ]
        for holder in holders:
            self._restore.append((holder, attr, original))
            setattr(holder, attr, replacement)

    def install(self) -> None:
        self.absent = []
        for target in LAYERS:
            found = _resolve(target)
            if found is None:
                self.absent.append(target)
                continue
            owner, attr, original = found
            self._rebind(owner, attr, original, self._span_wrapper(target, original))
        for target in CONTEXTS:
            found = _resolve(target)
            if found is not None:
                owner, attr, original = found
                self._rebind(owner, attr, original, self._context_wrapper(original))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "start", "end", "parent", "thread", "record_id", "mode", "failed")
        with path.open("w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")

    def layer_metrics(self, batches: int) -> dict[str, float]:
        """Per-layer statistics over all spans; counts and times are per
        batch, percentiles pooled over every sample."""
        durations: dict[str, list[float]] = {target: [] for target in LAYERS}
        child_time = [0.0] * len(self.spans)
        failed = dict.fromkeys(LAYERS, 0)
        for name, start, end, parent, *_rest, is_failed in self.spans:
            durations[name].append(end - start)
            failed[name] += is_failed
            if parent is not None:
                child_time[parent] += end - start
        self_time = dict.fromkeys(LAYERS, 0.0)
        for index, (name, start, end, *_rest) in enumerate(self.spans):
            self_time[name] += end - start - child_time[index]

        metrics: dict[str, float] = {}
        for target, stats in LAYERS.items():
            if target in self.absent:
                continue
            samples = sorted(durations[target])
            values = {
                "calls": len(samples) / batches,
                "s": sum(samples) / batches,
                "self_s": self_time[target] / batches,
                "failed": failed[target] / batches,
                "p50_ms": statistics.median(samples) * 1e3 if samples else 0.0,
                "tail_ms": tail(samples) * 1e3,
            }
            for stat in stats:
                metrics[f"{target}.{stat}"] = values[stat]
        metrics["trace.spans"] = len(self.spans) / batches
        return metrics


def tail(samples: list[float]) -> float:
    """The highest percentile of the ladder with at least ten samples beyond
    it; the median when there are too few samples for any (0 when none)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    for pct in _TAIL_LADDER:
        if len(ordered) * (1 - pct / 100) >= 10:
            return ordered[min(len(ordered) - 1, int(len(ordered) * pct / 100))]
    return statistics.median(ordered)
