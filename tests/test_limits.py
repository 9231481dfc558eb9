import json

import pytest

from hornlearn import (
    Action,
    HornProgram,
    StageRecord,
    System,
    Verdict,
    atom,
    config_for_stream,
    convergence_report,
    fact,
    parse_program,
    render_program,
    run_stream,
)
from hornlearn.cases import even_ascending_stream, even_atom, even_reordered_stream
from hornlearn.limits import default_window
from hornlearn.syntax import render_clause

A = fact(atom("a"))
B = fact(atom("b"))


def prog(*clauses):
    return HornProgram(clauses)


def record(stage, program, example=None):
    return StageRecord(
        stage=stage,
        example=example if example is not None else even_atom(0),
        action=Action.EXTENDED,
        restarted_from=None,
        program=program,
    )


# --- window limits -------------------------------------------------------------


def window_limits(snapshots, w):
    """Oracle: liminf and limsup over the last w snapshots, one clause per
    canonical text, as convergence_report reads its window."""
    if not 1 <= w <= len(snapshots):
        raise ValueError(f"window {w} does not fit {len(snapshots)} snapshots")
    windows = [{render_clause(c): c for c in p} for p in snapshots[-w:]]
    limsup = {}
    for window in windows:
        for text, c in window.items():
            limsup.setdefault(text, c)
    liminf = set.intersection(*(set(window) for window in windows))
    return frozenset(limsup[text] for text in liminf), frozenset(limsup.values())


def test_constant_sequence_liminf_equals_limsup():
    snaps = [prog(A), prog(A), prog(A)]
    liminf, limsup = window_limits(snaps, 2)
    assert {render_clause(c) for c in liminf} == {render_clause(A)}
    assert liminf == limsup


def test_alternating_sequence_splits():
    snaps = [prog(A), prog(B), prog(A), prog(B)]
    liminf, limsup = window_limits(snaps, 4)
    assert liminf == frozenset()
    assert {render_clause(c) for c in limsup} == {render_clause(A), render_clause(B)}


def test_window_must_fit_prefix():
    with pytest.raises(ValueError):
        window_limits([prog(A)], 2)
    with pytest.raises(ValueError, match="window 2 does not fit a prefix of 1"):
        convergence_report([record(0, prog(A))], set(), 2, 5)


def test_liminf_subset_of_limsup_and_window_monotonicity():
    snaps = [prog(A), prog(A, B), prog(A), prog(A, B), prog(A)]
    for w in (2, 3, 4, 5):
        liminf, limsup = window_limits(snaps, w)
        assert liminf <= limsup
    # Shrinking the window can only grow liminf and shrink limsup.
    li5, ls5 = window_limits(snaps, 5)
    li2, ls2 = window_limits(snaps, 2)
    assert {render_clause(c) for c in li5} <= {render_clause(c) for c in li2}
    assert {render_clause(c) for c in ls2} <= {render_clause(c) for c in ls5}


def test_reordered_trace_window_limits():
    stream = even_reordered_stream(12)
    cfg = config_for_stream(stream, System.GOLEM)
    records = run_stream(stream, cfg)
    liminf, limsup = window_limits([r.program for r in records], 4)
    rule = parse_program("p(X) :- p(s(s(X))).")
    assert {render_clause(c) for c in liminf} == {render_clause(next(iter(rule)))}
    assert len(limsup) == 5  # the rule plus four rotating unit facts
    # The report reads the same window: liminf is its candidate limit and
    # the limsup texts are its occurrence keys.
    report = convergence_report(records, frozenset(stream), 4, cfg.depth_bound)
    assert {render_clause(c) for c in report.candidate_limit} == {render_clause(c) for c in liminf}
    assert set(report.per_clause_occurrences) == {render_clause(c) for c in limsup}


# --- verdicts ------------------------------------------------------------------


def test_stable_verdict_on_constant_suffix():
    snaps = [prog(A, B), prog(A), prog(A), prog(A), prog(A)]
    trace = [record(i, p) for i, p in enumerate(snaps)]
    report = convergence_report(trace, set(), 4, 4)
    assert report.verdict is Verdict.STABLE
    assert render_program(report.candidate_limit) == render_program(snaps[-1])


def test_transient_verdict_when_each_clause_enters_once():
    snaps = [prog(A, fact(even_atom(0))), prog(A, fact(even_atom(2))), prog(A, fact(even_atom(4)))]
    trace = [record(i, p) for i, p in enumerate(snaps)]
    report = convergence_report(trace, set(), 3, 4)
    assert report.verdict is Verdict.CONVERGENT_MODULO_TRANSIENTS
    assert render_program(report.candidate_limit) == "a."


def test_divergent_verdict_on_oscillation():
    snaps = [prog(A), prog(B), prog(A), prog(B)]
    trace = [record(i, p) for i, p in enumerate(snaps)]
    report = convergence_report(trace, set(), 4, 4)
    assert report.verdict is Verdict.DIVERGENT


def test_occurrence_intervals_are_reported():
    snaps = [prog(A, B), prog(A), prog(A, B), prog(A, B)]
    trace = [record(i, p) for i, p in enumerate(snaps)]
    report = convergence_report(trace, set(), 4, 4)
    assert report.per_clause_occurrences[render_clause(B)] == [(0, 0), (2, 3)]
    assert report.verdict is Verdict.DIVERGENT


def test_default_window():
    assert default_window(11) == 4
    assert default_window(12) == 4
    assert default_window(30) == 10


def test_default_window_fits_short_traces():
    for n in (1, 2, 3):
        assert default_window(n) == n
        trace = [record(i, prog(A)) for i in range(n)]
        report = convergence_report(trace, set(), default_window(n), 4)
        assert report.verdict is Verdict.STABLE


def test_eventually_constant_sequence_stable_for_every_fitting_window():
    snaps = [prog(B), prog(A, B), prog(A), prog(A), prog(A), prog(A)]
    trace = [record(i, p) for i, p in enumerate(snaps)]
    for w in (1, 2, 3, 4):  # windows inside the constant suffix
        assert convergence_report(trace, set(), w, 4).verdict is Verdict.STABLE
    assert convergence_report(trace, set(), 5, 4).verdict is not Verdict.STABLE


# --- full reports on the reference traces ---------------------------------------


def test_report_ascending_golem_stable_and_limit_correct():
    stream = even_ascending_stream(11)
    cfg = config_for_stream(stream, System.GOLEM)
    records = run_stream(stream, cfg)
    report = convergence_report(records, frozenset(stream), 4, cfg.depth_bound)
    assert report.verdict is Verdict.STABLE
    assert render_program(report.candidate_limit) == "p(0).\np(s(s(X0))) :- p(X0)."
    assert report.limit_correct


def test_report_reordered_golem_limit_incorrect():
    stream = even_reordered_stream(12)
    cfg = config_for_stream(stream, System.GOLEM)
    records = run_stream(stream, cfg)
    report = convergence_report(records, frozenset(stream), 4, 14)
    assert report.verdict is Verdict.CONVERGENT_MODULO_TRANSIENTS
    assert render_program(report.candidate_limit) == "p(X0) :- p(s(s(X0)))."
    assert report.candidate_model.atoms == frozenset()
    assert not any(report.correctness.values())
    assert not report.limit_correct


def test_report_reordered_pgolem_stable_and_correct():
    stream = even_reordered_stream(12)
    cfg = config_for_stream(stream, System.PRIORITIZED_GOLEM)
    records = run_stream(stream, cfg)
    report = convergence_report(records, frozenset(stream), 4, cfg.depth_bound)
    assert report.verdict is Verdict.STABLE
    assert report.limit_correct


def test_stable_trace_model_limit_exchange():
    # For all-simple stable traces, the candidate limit's bounded model equals
    # the window intersection of the per-stage bounded models.
    from hornlearn import least_model_bounded

    for stream, system in (
        (even_ascending_stream(11), System.GOLEM),
        (even_reordered_stream(12), System.PRIORITIZED_GOLEM),
    ):
        cfg = config_for_stream(stream, system)
        records = run_stream(stream, cfg)
        w = 4
        report = convergence_report(records, frozenset(stream), w, cfg.depth_bound)
        if report.verdict is not Verdict.STABLE:
            continue
        assert all(rec.simple for rec in records[-w:])
        stage_models = [
            least_model_bounded(rec.program, cfg.depth_bound).atoms for rec in records[-w:]
        ]
        window_liminf_model = frozenset.intersection(*stage_models)
        assert least_model_bounded(report.candidate_limit, cfg.depth_bound).atoms == (
            window_liminf_model
        )


def test_report_json_shape():
    stream = even_ascending_stream(5)
    cfg = config_for_stream(stream, System.GOLEM)
    records = run_stream(stream, cfg)
    report = convergence_report(records, frozenset(stream), 3, cfg.depth_bound)
    obj = json.loads(report.to_json())
    assert obj["schemaVersion"] == 1
    assert obj["verdict"] == "stable"
    assert obj["windowSize"] == 3
    assert isinstance(obj["liminfWindow"], list)
    assert isinstance(obj["perClauseOccurrences"], dict)
    assert obj["limitCorrect"] is True
    # p(s^14(0)) is one step past the bound of 13.
    assert obj["candidateModel"]["truncated"] == 1
