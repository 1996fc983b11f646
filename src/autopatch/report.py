"""Aggregate per-program results into the per-mode evaluation report.

Runtime comparisons are only meaningful where every compared mode produced a
correct, in-time executable, so averages and improvement percentages are
computed over that common executable set. Lexical scores and outcome counts
cover everything evaluated. Averaging is per program first, then across
programs (recorded in the report metadata).
"""

from __future__ import annotations

import statistics
from dataclasses import asdict, dataclass, field
from typing import Iterable, Mapping, Sequence

from .corpus import OptimizationType
from .errors import AutopatchError
from .harness import RunOutcome, RunStatus
from .metrics import LexicalScores

BASELINE_MODE = "zero_shot"


def improvement(baseline_avg_s: float, candidate_avg_s: float) -> float:
    """Relative speedup of candidate over baseline as a percentage, rounded
    to one decimal for reporting. Positive means faster."""
    if baseline_avg_s <= 0:
        raise AutopatchError(f"baseline average {baseline_avg_s}")
    return round((baseline_avg_s - candidate_avg_s) / baseline_avg_s * 100.0, 1)


@dataclass(frozen=True)
class EvalResult:
    target_id: str
    mode: str
    lexical: LexicalScores
    outcome: RunOutcome
    labels: frozenset[OptimizationType] = frozenset()


@dataclass
class ModeReport:
    avg_time_s: float | None
    improvement_pct: float | None
    lexical_mean: LexicalScores
    lexical_count: int
    outcome_counts: dict[str, int]
    per_type_avg_time_s: dict[str, float]


@dataclass
class EvaluationReport:
    modes: dict[str, ModeReport]
    common_executable_ids: tuple[str, ...]
    evaluated_count: int
    parameters: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "averaging": "per program, then across programs",
            "evaluated_count": self.evaluated_count,
            "common_executable_ids": list(self.common_executable_ids),
            "parameters": self.parameters,
            "modes": {mode: asdict(report) for mode, report in sorted(self.modes.items())},
        }

    def render_text(self) -> str:
        lines = []
        lines.append(f"{'mode':<12} {'avg time (s)':>12} {'improvement':>12}")
        for mode, report in sorted(self.modes.items()):
            avg = f"{report.avg_time_s:.4f}" if report.avg_time_s is not None else "-"
            imp = (
                f"{report.improvement_pct:+.1f}%"
                if report.improvement_pct is not None
                else "-"
            )
            lines.append(f"{mode:<12} {avg:>12} {imp:>12}")
        lines.append("")
        lines.append(f"common executable set: {len(self.common_executable_ids)} program(s)")
        lines.append("")

        lines.append("per-type average time (s):")
        types = sorted(
            {t for report in self.modes.values() for t in report.per_type_avg_time_s}
        )
        for type_name in types:
            cells = []
            for mode, report in sorted(self.modes.items()):
                value = report.per_type_avg_time_s.get(type_name)
                cells.append(f"{mode}={value:.4f}" if value is not None else f"{mode}=-")
            lines.append(f"  {type_name:<28} " + "  ".join(cells))
        lines.append("")

        lines.append("lexical means:")
        for mode, report in sorted(self.modes.items()):
            m = report.lexical_mean
            lines.append(
                f"  {mode:<12} LO={m.line_overlap_pct:.2f}%  "
                f"EDS={m.eds:.4f}  TO={m.token_overlap_pct:.2f}%"
            )
        lines.append("")

        lines.append("outcome counts:")
        for mode, report in sorted(self.modes.items()):
            counts = "  ".join(f"{k}={v}" for k, v in sorted(report.outcome_counts.items()))
            lines.append(f"  {mode:<12} {counts}")
        return "\n".join(lines) + "\n"


def _mean_lexical(scores: Sequence[LexicalScores]) -> LexicalScores:
    return LexicalScores(
        line_overlap_pct=statistics.fmean(s.line_overlap_pct for s in scores),
        eds=statistics.fmean(s.eds for s in scores),
        token_overlap_pct=statistics.fmean(s.token_overlap_pct for s in scores),
    )


def aggregate_report(
    results: Iterable[EvalResult],
    parameters: Mapping,
) -> EvaluationReport:
    """Aggregate the results per mode. When no program is executable under
    every mode (or there are no results), the common executable set is
    empty and every average and improvement is None."""
    results = list(results)
    modes = sorted({r.mode for r in results})
    by_mode: dict[str, dict[str, EvalResult]] = {mode: {} for mode in modes}
    for result in results:
        by_mode[result.mode][result.target_id] = result

    all_ids = sorted({r.target_id for r in results})
    common_ids = tuple(
        target_id
        for target_id in all_ids
        if all(
            target_id in by_mode[mode]
            and by_mode[mode][target_id].outcome.status is RunStatus.OK
            for mode in modes
        )
    )

    avg_by_mode: dict[str, float | None] = {}
    for mode in modes:
        if common_ids:
            avg_by_mode[mode] = statistics.fmean(
                by_mode[mode][target_id].outcome.mean_s for target_id in common_ids
            )
        else:
            avg_by_mode[mode] = None

    baseline_avg = avg_by_mode.get(BASELINE_MODE)

    mode_reports: dict[str, ModeReport] = {}
    for mode in modes:
        entries = by_mode[mode]

        per_type: dict[str, list[float]] = {}
        for target_id in common_ids:
            result = entries[target_id]
            for label in result.labels:
                per_type.setdefault(label.value, []).append(result.outcome.mean_s)

        improvement_pct = None
        if baseline_avg is not None and avg_by_mode[mode] is not None:
            improvement_pct = improvement(baseline_avg, avg_by_mode[mode])

        lexical_scores = [r.lexical for r in entries.values()]
        counts = {status.value: 0 for status in RunStatus}
        for result in entries.values():
            counts[result.outcome.status.value] += 1

        mode_reports[mode] = ModeReport(
            avg_time_s=avg_by_mode[mode],
            improvement_pct=improvement_pct,
            lexical_mean=_mean_lexical(lexical_scores),
            lexical_count=len(lexical_scores),
            outcome_counts=counts,
            per_type_avg_time_s={k: statistics.fmean(v) for k, v in per_type.items()},
        )

    return EvaluationReport(
        modes=mode_reports,
        common_executable_ids=common_ids,
        evaluated_count=len(all_ids),
        parameters=dict(parameters),
    )
