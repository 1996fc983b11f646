from __future__ import annotations

import pytest

from autopatch.corpus import OptimizationType
from autopatch.errors import AutopatchError
from autopatch.harness import RunOutcome, RunStatus
from autopatch.metrics import LexicalScores
from autopatch.report import EvalResult, aggregate_report, improvement


def _ok(seconds: float) -> RunOutcome:
    return RunOutcome(
        status=RunStatus.OK,
        per_testcase_times_s=(seconds,),
        mean_s=seconds,
        median_s=seconds,
    )


def _scores(value: float = 50.0) -> LexicalScores:
    return LexicalScores(value, value / 100.0, value)


def _result(target, mode, seconds=None, status=RunStatus.OK, labels=(), lexical=True):
    outcome = _ok(seconds) if status is RunStatus.OK else RunOutcome(status, detail="")
    return EvalResult(
        target_id=target,
        mode=mode,
        lexical=_scores() if lexical else None,
        outcome=outcome,
        labels=frozenset(labels),
    )


def test_improvement_reference_values():
    assert improvement(0.4115, 0.3815) == pytest.approx(7.3, abs=0.05)
    assert improvement(0.4115, 0.5238) == pytest.approx(-27.3, abs=0.05)


def test_improvement_identity_is_zero():
    assert improvement(0.5, 0.5) == 0.0


def test_improvement_nonpositive_baseline():
    with pytest.raises(AutopatchError, match="^baseline average 0.0$"):
        improvement(0.0, 0.1)
    with pytest.raises(AutopatchError, match="^baseline average -1.0$"):
        improvement(-1.0, 0.1)


def test_aggregate_reproduces_reference_improvements():
    results = [
        _result("t1", "zero_shot", 0.4115),
        _result("t1", "naive", 0.5238),
        _result("t1", "context", 0.3815),
    ]
    report = aggregate_report(results, parameters={})
    assert report.modes["zero_shot"].improvement_pct == 0.0
    assert report.modes["naive"].improvement_pct == pytest.approx(-27.3, abs=0.05)
    assert report.modes["context"].improvement_pct == pytest.approx(7.3, abs=0.05)


def test_common_set_excludes_programs_failing_anywhere():
    results = [
        _result("t1", "zero_shot", 0.2),
        _result("t2", "zero_shot", 0.4),
        _result("t1", "context", 0.1),
        _result("t2", "context", status=RunStatus.COMPILE_ERROR),
    ]
    report = aggregate_report(results, parameters={})
    assert report.common_executable_ids == ("t1",)
    assert report.modes["zero_shot"].avg_time_s == pytest.approx(0.2)
    assert report.modes["context"].avg_time_s == pytest.approx(0.1)


def test_empty_common_set_is_a_report_state():
    results = [
        _result("t1", "zero_shot", status=RunStatus.TIMEOUT),
        _result("t1", "context", 0.1),
    ]
    report = aggregate_report(results, parameters={})
    assert report.common_executable_ids == ()
    assert report.evaluated_count == 1
    for mode in ("zero_shot", "context"):
        assert report.modes[mode].avg_time_s is None
        assert report.modes[mode].improvement_pct is None
    assert report.modes["context"].outcome_counts["ok"] == 1


def test_no_results_give_an_empty_report():
    report = aggregate_report([], parameters={"reps": 1})
    assert report.modes == {}
    assert report.common_executable_ids == ()
    assert report.evaluated_count == 0
    assert report.parameters == {"reps": 1}


def test_empty_common_set_allowed_for_degraded_report():
    results = [
        _result("t1", "zero_shot", status=RunStatus.COMPILE_ERROR),
        _result("t1", "context", status=RunStatus.COMPILE_ERROR),
    ]
    report = aggregate_report(results, parameters={})
    assert report.common_executable_ids == ()
    assert report.modes["zero_shot"].avg_time_s is None
    assert report.modes["zero_shot"].improvement_pct is None
    assert report.modes["zero_shot"].outcome_counts["compile_error"] == 1
    assert report.modes["zero_shot"].outcome_counts["ok"] == 0


def test_multilabel_program_contributes_to_every_type_row():
    labels = (OptimizationType.LOOP_OPTIMIZATION, OptimizationType.MEMORY_OPTIMIZATION)
    results = [
        _result("t1", "zero_shot", 0.30, labels=labels),
        _result("t2", "zero_shot", 0.10, labels=(OptimizationType.LOOP_OPTIMIZATION,)),
        _result("t3", "zero_shot", 0.50),
    ]
    report = aggregate_report(results, parameters={})
    per_type = report.modes["zero_shot"].per_type_avg_time_s
    assert per_type["loop_optimization"] == pytest.approx((0.30 + 0.10) / 2)
    assert per_type["memory_optimization"] == pytest.approx(0.30)
    assert "code_refactoring" not in per_type


def test_hand_aggregation_three_records():
    # two modes, three programs, t3 broken under context
    results = [
        _result("t1", "zero_shot", 0.2),
        _result("t2", "zero_shot", 0.4),
        _result("t3", "zero_shot", 0.9),
        _result("t1", "context", 0.1),
        _result("t2", "context", 0.3),
        _result("t3", "context", status=RunStatus.WRONG_OUTPUT),
    ]
    report = aggregate_report(results, parameters={})
    assert report.common_executable_ids == ("t1", "t2")
    assert report.modes["zero_shot"].avg_time_s == pytest.approx(0.3)
    assert report.modes["context"].avg_time_s == pytest.approx(0.2)
    # (0.3 - 0.2) / 0.3 = 33.3%
    assert report.modes["context"].improvement_pct == pytest.approx(33.3, abs=0.05)
    assert report.evaluated_count == 3


def test_outcome_counts_conserve_evaluated_programs():
    results = [
        _result("t1", "zero_shot", 0.2),
        _result("t2", "zero_shot", status=RunStatus.CRASH),
        _result("t3", "zero_shot", status=RunStatus.TIMEOUT),
        _result("t1", "context", 0.2),
        _result("t2", "context", 0.2),
        _result("t3", "context", 0.2),
    ]
    report = aggregate_report(results, parameters={})
    for mode_report in report.modes.values():
        assert sum(mode_report.outcome_counts.values()) == 3


def test_lexical_means_average_all_scored_entries():
    results = [
        _result("t1", "zero_shot", 0.2),
        _result("t2", "zero_shot", status=RunStatus.COMPILE_ERROR),
        _result("t1", "context", 0.2),
        _result("t2", "context", 0.2),
    ]
    report = aggregate_report(results, parameters={})
    assert report.modes["zero_shot"].lexical_count == 2
    assert report.modes["zero_shot"].lexical_mean.line_overlap_pct == pytest.approx(50.0)


def test_report_json_and_text_render():
    results = [
        _result("t1", "zero_shot", 0.4115, labels=(OptimizationType.CODE_REFACTORING,)),
        _result("t1", "context", 0.3815, labels=(OptimizationType.CODE_REFACTORING,)),
    ]
    report = aggregate_report(results, parameters={"reps": 5})
    payload = report.to_json_dict()
    assert payload["schema_version"] == 1
    assert payload["averaging"] == "per program, then across programs"
    assert set(payload["modes"]) == {"zero_shot", "context"}
    assert payload["modes"]["context"]["improvement_pct"] == pytest.approx(7.3, abs=0.05)
    assert payload["parameters"]["reps"] == 5
    text = report.render_text()
    assert "zero_shot" in text and "context" in text
    assert "+7.3%" in text
    assert "code_refactoring" in text
