import json
import random
from itertools import permutations

import pytest

from hornlearn import (
    Action,
    Clause,
    ExampleStream,
    HornProgram,
    LearnerConfig,
    Literal,
    SaturationPolicy,
    System,
    config_for_stream,
    parse_atom,
    parse_program,
    render_program,
    run_stream,
    trace_text,
)
from hornlearn.cases import even_ascending_stream, even_atom, even_reordered_stream
import hornlearn.syntax as syntax
from hornlearn.learner import _below, _keep_learned, _Run
from hornlearn.logic import Fn, Term
from hornlearn.metric import priority_precedes
from hornlearn.semantics import covers
from hornlearn.subsumption import program_variant_equal

from conftest import (
    SIG_BINARY,
    SIG_UNARY,
    cumulative,
    random_atom,
    random_clause,
    random_definite_clause,
    random_stream,
)

RULE_UP = "p(s(s(X0))) :- p(X0)."
RULE_DOWN = "p(X0) :- p(s(s(X0)))."


def fact_text(n: int) -> str:
    return "p(" + "s(" * n + "0" + ")" * n + ")."


def ground_rule_text(head_n: int, body_n: int) -> str:
    return (
        "p(" + "s(" * head_n + "0" + ")" * head_n + ") :- "
        "p(" + "s(" * body_n + "0" + ")" * body_n + ")."
    )


# --- ascending even stream (reference trace) ----------------------------------


def test_golem_ascending_trace_stage_by_stage():
    stream = even_ascending_stream(11)
    records = run_stream(stream, config_for_stream(stream, System.GOLEM))
    assert len(records) == 11

    assert render_program(records[0].program) == fact_text(0)
    assert records[0].action is Action.EXTENDED

    assert render_program(records[1].program) == fact_text(0) + "\n" + ground_rule_text(2, 0)
    assert records[1].action is Action.EXTENDED

    stable = fact_text(0) + "\n" + RULE_UP
    for stage in range(2, 11):
        assert render_program(records[stage].program) == stable, f"stage {stage}"
        assert records[stage].action is (Action.EXTENDED if stage == 2 else Action.COVERED)


def test_golem_ascending_all_stages_correct():
    stream = even_ascending_stream(11)
    cfg = config_for_stream(stream, System.GOLEM)
    records = run_stream(stream, cfg)
    for rec in records:
        seen = cumulative(stream, rec.stage)
        assert all(covers(rec.program, seen, cfg.depth_bound).values())


# --- reordered even stream (reference trace) -----------------------------------


def expected_reordered_program(stage: int) -> str:
    k, i = divmod(stage, 3)
    n = 6 * k + 4 - 2 * i
    if stage == 0:
        return fact_text(4)
    if stage == 1:
        return ground_rule_text(2, 4) + "\n" + fact_text(4)
    if stage == 2:
        return RULE_DOWN + "\n" + fact_text(4)
    return RULE_DOWN + "\n" + fact_text(n)


def test_golem_reordered_trace_stage_by_stage():
    stream = even_reordered_stream(12)
    records = run_stream(stream, config_for_stream(stream, System.GOLEM))
    assert len(records) == 12
    for rec in records:
        assert render_program(rec.program) == expected_reordered_program(rec.stage), (
            f"stage {rec.stage}"
        )
    actions = [rec.action for rec in records]
    assert [a is Action.EXTENDED for a in actions] == [
        True, True, True, True, False, False, True, False, False, True, False, False,
    ]


def test_golem_reordered_rotates_retained_fact_on_covered_arrivals():
    # The covered arrivals at stages 3k+1, 3k+2 swap the fact downward; the
    # snapshot sequence therefore never repeats within a block of three.
    stream = even_reordered_stream(12)
    records = run_stream(stream, config_for_stream(stream, System.GOLEM))
    rendered = [render_program(r.program) for r in records]
    assert len(set(rendered[3:])) == 9


# --- prioritized learner -------------------------------------------------------


def test_pgolem_ascending_matches_plain_trace():
    stream = even_ascending_stream(11)
    records = run_stream(stream, config_for_stream(stream, System.PRIORITIZED_GOLEM))
    stable = fact_text(0) + "\n" + RULE_UP
    assert render_program(records[1].program) == fact_text(0) + "\n" + ground_rule_text(2, 0)
    for stage in range(2, 11):
        assert render_program(records[stage].program) == stable
    assert all(rec.simple for rec in records)


def test_pgolem_reordered_restarts_and_stabilizes():
    stream = even_reordered_stream(12)
    records = run_stream(stream, config_for_stream(stream, System.PRIORITIZED_GOLEM))

    assert records[0].action is Action.EXTENDED
    assert records[1].action is Action.RESTARTED
    assert records[1].restarted_from == 0
    assert records[2].action is Action.RESTARTED
    assert records[2].restarted_from == 0

    assert render_program(records[1].program) == fact_text(2) + "\n" + ground_rule_text(4, 2)
    stable = fact_text(0) + "\n" + RULE_UP
    for stage in range(2, 12):
        assert render_program(records[stage].program) == stable
        if stage > 2:
            assert records[stage].action is Action.COVERED
    assert all(rec.simple for rec in records)


def test_pgolem_single_example_stream():
    stream = ExampleStream((even_atom(4),))
    records = run_stream(stream, config_for_stream(stream, System.PRIORITIZED_GOLEM))
    assert render_program(records[0].program) == fact_text(4)
    assert records[0].simple


def test_pgolem_every_stage_correct_on_both_orders():
    for stream in (even_ascending_stream(11), even_reordered_stream(12)):
        cfg = config_for_stream(stream, System.PRIORITIZED_GOLEM)
        records = run_stream(stream, cfg)
        for rec in records:
            seen = cumulative(stream, rec.stage)
            assert all(covers(rec.program, seen, cfg.depth_bound).values())


def test_pgolem_order_insensitive_over_prefix_permutations():
    tail = [even_atom(8), even_atom(10)]
    finals = []
    for perm in permutations([even_atom(0), even_atom(2), even_atom(4), even_atom(6)]):
        stream = ExampleStream(list(perm) + tail)
        records = run_stream(stream, config_for_stream(stream, System.PRIORITIZED_GOLEM))
        finals.append(records[-1].program)
    first = finals[0]
    assert all(program_variant_equal(first, other) for other in finals[1:])


# --- step-level details --------------------------------------------------------


# golem_step reads the program before its stage from the run, so these
# tests step a run whose config holds that program as its background.


def test_golem_step_stage_zero_yields_unit_fact():
    cfg = LearnerConfig(depth_bound=8)
    record = _Run(cfg).step(even_atom(0))
    assert render_program(record.program) == fact_text(0)
    assert record.action is Action.EXTENDED


def test_golem_step_covered_leaves_program_unchanged_without_swap_target():
    current = parse_program(fact_text(0) + "\n" + RULE_UP)
    cfg = LearnerConfig(depth_bound=12, background=current)
    record = _Run(cfg).step(even_atom(4))
    assert record.program == current
    assert record.action is Action.COVERED


def test_golem_step_covered_swaps_priority_lower_fact():
    current = parse_program(RULE_DOWN + "\n" + fact_text(10))
    cfg = LearnerConfig(depth_bound=15, background=current)
    record = _Run(cfg).step(even_atom(8))
    assert record.action is Action.COVERED
    assert render_program(record.program) == RULE_DOWN + "\n" + fact_text(8)


def test_golem_rotates_a_fact_of_equal_priority():
    # p(a, b) and p(b, a) precede each other, so each covered arrival swaps
    # out the retained fact for itself.
    background = parse_program("p(b, a).\np(X, Y) :- p(Y, X).")
    stream = ExampleStream(parse_atom(a) for a in ("p(a, b)", "p(b, a)", "p(a, b)"))
    cfg = config_for_stream(stream, System.GOLEM, background=background)
    records = run_stream(stream, cfg)
    assert [r.action for r in records] == [Action.COVERED] * 3
    assert [render_program(r.program) for r in records] == [
        "p(X0, X1) :- p(X1, X0).\np(a, b).",
        "p(X0, X1) :- p(X1, X0).\np(b, a).",
        "p(X0, X1) :- p(X1, X0).\np(a, b).",
    ]


def pgolem_run_after(arrivals, cfg: LearnerConfig) -> _Run:
    """A run stepped by hand through the arrivals, from the empty program."""
    run = _Run(cfg)
    for e in arrivals:
        run.step(e)
    return run


def test_pgolem_step_no_restart_without_priority_inversion():
    cfg = LearnerConfig(system=System.PRIORITIZED_GOLEM, depth_bound=12)
    run = pgolem_run_after((even_atom(0), even_atom(2)), cfg)
    record = run.step(even_atom(4))
    assert record.action is Action.EXTENDED
    assert record.restarted_from is None


def test_pgolem_step_restart_picks_least_stage():
    cfg = LearnerConfig(system=System.PRIORITIZED_GOLEM, depth_bound=12)
    run = pgolem_run_after((even_atom(6), even_atom(8)), cfg)
    record = run.step(even_atom(2))
    assert record.action is Action.RESTARTED
    assert record.restarted_from == 0


def test_run_stream_respects_background():
    background = parse_program(fact_text(0) + "\n" + RULE_UP)
    stream = ExampleStream((even_atom(4), even_atom(6)))
    cfg = LearnerConfig(depth_bound=12, background=background)
    records = run_stream(stream, cfg)
    assert [r.action for r in records] == [Action.COVERED, Action.COVERED]
    assert records[-1].program == background


def test_the_config_alone_fixes_the_bound_and_the_program_a_run_starts_from():
    # The background's rule and fact are deeper than the stream, so the
    # default bound reads them (7 + 5); at that bound the rule covers p(0).
    s7 = "s(" * 7
    background = parse_program(f"p(X) :- q({s7}X{')' * 7}).\nq({s7}0{')' * 7}).")
    stream = ExampleStream((even_atom(0), even_atom(2)))
    cfg = config_for_stream(stream, System.GOLEM, background=background)
    assert (cfg.depth_bound, cfg.background) == (12, background)
    records = run_stream(stream, cfg)
    assert [r.action for r in records] == [Action.COVERED, Action.EXTENDED]
    # A config built without a background starts from the empty program.
    bare = LearnerConfig(depth_bound=cfg.depth_bound)
    assert bare.background == HornProgram()
    assert run_stream(stream, bare)[0].action is Action.EXTENDED


def test_run_stream_rejects_shallow_depth_bound():
    stream = even_ascending_stream(4)
    with pytest.raises(ValueError, match="below the deepest"):
        run_stream(stream, LearnerConfig(depth_bound=3))


def test_run_stream_folds_every_arrival_past_the_cli_budget():
    # The stage budget is the command line's; the library folds it all.
    stream = even_ascending_stream(250)
    records = run_stream(stream, config_for_stream(stream, System.GOLEM))
    assert [r.stage for r in records] == list(range(250))


def test_traces_are_deterministic():
    stream = even_reordered_stream(9)
    cfg = config_for_stream(stream, System.PRIORITIZED_GOLEM)
    one = [render_program(r.program) for r in run_stream(stream, cfg)]
    two = [render_program(r.program) for r in run_stream(stream, cfg)]
    assert one == two


def test_ground_atoms_policy_learns_chain_too():
    stream = even_ascending_stream(5)
    cfg = config_for_stream(stream, System.GOLEM, policy=SaturationPolicy.GROUND_ATOMS)
    records = run_stream(stream, cfg)
    final = records[-1].program
    assert all(covers(final, cumulative(stream, 4), cfg.depth_bound).values())


def test_random_streams_stay_correct_under_pgolem(rng):
    for _ in range(25):
        stream = random_stream(rng, SIG_UNARY, max_depth=4, max_arrivals=6)
        cfg = config_for_stream(stream, System.PRIORITIZED_GOLEM)
        records = run_stream(stream, cfg)
        for rec in records:
            seen = cumulative(stream, rec.stage)
            assert all(covers(rec.program, seen, cfg.depth_bound).values())
            assert rec.simple


def oracle_subterms(t: Term) -> set[Term]:
    """t and every term under it, by a plain recursive walk."""
    out = {t}
    for a in t.args if isinstance(t, Fn) else ():
        out |= oracle_subterms(a)
    return out


def oracle_simple(program: HornProgram) -> bool:
    """Every body atom's argument subterms occur among its head's."""
    for c in program:
        head = set().union(*map(oracle_subterms, c.head.args))
        if any(not oracle_subterms(a) <= head for l in c.negatives for a in l.args):
            return False
    return True


@pytest.mark.parametrize("system", list(System), ids=lambda s: s.value)
def test_every_record_reads_the_simplicity_of_its_own_program(system):
    # Each line's `simple` is its own program's, whether the stage kept the
    # previous program node or built a new one.
    rng = random.Random(2026)
    reused = changed = 0
    for k in range(80):
        sig = SIG_UNARY if k % 2 else SIG_BINARY
        stream = random_stream(rng, sig, max_depth=4, max_arrivals=8)
        records = run_stream(stream, config_for_stream(stream, system))
        lines = [json.loads(line) for line in trace_text(records).splitlines()]
        assert len(lines) == len(records)
        for i, (rec, line) in enumerate(zip(records, lines)):
            assert line["simple"] is oracle_simple(rec.program), (stream, i)
            if i and rec.program is records[i - 1].program:
                reused += 1
            elif i and line["simple"] != lines[i - 1]["simple"]:
                changed += 1
    # pgolem's snapshots are simple by construction, so only golem's change.
    assert reused > 50 and (changed > 10 or system is System.PRIORITIZED_GOLEM), (reused, changed)


def test_pgolem_eventually_constant_once_closure_enumerated(rng):
    # A stream enumerating a priority-downward-closed set in any order makes
    # the prioritized snapshot sequence constant from the last repair onward.
    base = [even_atom(2 * k) for k in range(5)]
    for _ in range(20):
        shuffled = base[:]
        rng.shuffle(shuffled)
        stream = ExampleStream(shuffled + [even_atom(10), even_atom(12)])
        cfg = config_for_stream(stream, System.PRIORITIZED_GOLEM)
        records = run_stream(stream, cfg)
        tail = [render_program(r.program) for r in records[-3:]]
        assert len(set(tail)) == 1
        assert records[-1].action is Action.COVERED


def test_learned_clause_filters_render_no_canonical_text(monkeypatch):
    # Neither filter prints anything, so neither computes canonical text.
    computed = []
    original = syntax._canonical_text
    monkeypatch.setattr(syntax, "_canonical_text", lambda c: computed.append(c) or original(c))
    unrestricted, non_simple = syntax.parse_clauses("p(X, Y) :- q(X).\np(s(X)) :- p(X), q(Y).")
    assert _keep_learned(frozenset([unrestricted])) == set()
    assert _below(non_simple, non_simple.head).literals == syntax.parse_clauses("p(s(X)) :- p(X).")[0].literals
    assert computed == []


def oracle_restrict_clause(c: Clause, e: Literal) -> Clause:
    """Keep e itself plus literals whose atoms have priority over e."""
    return Clause(
        l for l in c.literals if (l.positive and l == e) or priority_precedes(l.atom(), e)
    )


def oracle_enforce_simplicity(c: Clause) -> Clause:
    """Drop body literals that do not precede the head (metric.is_simple)."""
    if not c.is_definite:
        return c
    dropped = [l for l in c.negatives if not priority_precedes(l, c.head)]
    return Clause(c.literals - set(dropped)) if dropped else c


@pytest.mark.parametrize("sig", [SIG_UNARY, SIG_BINARY], ids=["unary", "binary"])
def test_below_equals_the_two_filters_it_replaced(sig):
    # The saturation filter compared atoms and the lgg filter compared
    # negative literals; _below compares literals of either sign, so the
    # floors ask for negative literals both dropped and kept.
    rng = random.Random(1729)
    dropped = kept = 0
    for k in range(400):
        if k % 2:
            c = random_definite_clause(rng, sig, 3, max_body=3)
        else:
            c = random_clause(rng, sig, 3, max_literals=4)
        # The saturation case: h a ground arrival, often in the clause.
        e = random_atom(rng, sig, 2)
        if rng.random() < 0.5:
            c = Clause(c.literals | {e})
        cases = [(_below(c, e), oracle_restrict_clause(c, e))]
        # The lgg case: h the clause's own head; other clauses pass through.
        cases.append(
            (_below(c, c.head) if c.is_definite else c, oracle_enforce_simplicity(c))
        )
        for got, want in cases:
            assert got == want, (c, e)
            dropped += any(l not in got.literals for l in c.negatives)
            kept += any(not l.positive for l in got.literals)
    assert dropped > 200 and kept > 200, (dropped, kept)


@pytest.mark.parametrize("text", ["p(a, b).\np(b, a).\n", "p(a).\nq(a).\n"])
def test_pgolem_does_not_restart_on_an_arrival_of_equal_priority(text):
    stream = syntax.parse_example_stream(text)
    records = run_stream(stream, config_for_stream(stream, System.PRIORITIZED_GOLEM))
    assert [rec.action_text() for rec in records] == ["extended", "extended"]


def test_strict_priority_changes_no_program_sequence(rng, monkeypatch):
    # The pre-order read as strict (a != b and S(a) <= S(b)) by the restart
    # scan, with the selection sort it needed: equal-priority arrivals then
    # restarted, and the replay rebuilt the same programs.
    from hornlearn import learner
    from hornlearn.logic import literal_subterms

    def old_priority_sorted(pending):
        remaining = list(dict.fromkeys(pending))
        ordered = []
        while remaining:
            minimal = next(
                a
                for a in remaining
                if not any(literal_subterms(b) < literal_subterms(a) for b in remaining)
            )
            remaining.remove(minimal)
            ordered.append(minimal)
        return ordered

    def old_strictly_precedes(a, b):
        return a != b and priority_precedes(a, b)

    def old_restart_stage(run):
        *arrivals, e = run.arrivals
        j = None
        pending = [e]
        for i in range(len(arrivals) - 1, -1, -1):
            if any(old_strictly_precedes(q, arrivals[i]) for q in pending):
                j = i
                pending = arrivals[i:] + [e]
        return j

    def programs(stream):
        records = run_stream(stream, config_for_stream(stream, System.PRIORITIZED_GOLEM))
        texts = [render_program(rec.program) for rec in records]
        return texts, [rec.action_text() for rec in records]

    relabelled = 0
    for sig, depth in ((SIG_UNARY, 5), (SIG_BINARY, 3)):
        for _ in range(60):
            stream = random_stream(rng, sig, depth)
            new, new_actions = programs(stream)
            with monkeypatch.context() as m:
                m.setattr(learner._Run, "restart_stage", old_restart_stage)
                m.setattr(
                    learner._Run,
                    "priority_sorted",
                    lambda run, j: old_priority_sorted(run.arrivals[j:]),
                )
                old, old_actions = programs(stream)
            assert new == old, list(stream)
            relabelled += new_actions != old_actions
    assert relabelled > 0
