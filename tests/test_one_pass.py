"""Differential tests: the one-pass reductions, the backward restart scan,
the one-read priority sort and the rejection tests of theta-subsumption
against the slow versions they replaced, kept here as oracles only. The
oracles share neither the rejection tests, the support filter nor the
model slot of `reduce_program`."""

from __future__ import annotations

import json
import random

import pytest

from hornlearn import (
    Clause,
    ExampleStream,
    Fn,
    HornProgram,
    Literal,
    System,
    apply_to_clause,
    config_for_stream,
    generalize,
    learner,
    parse_program,
    reduce_program,
    run_stream,
    semantics,
    theta_subsumes,
)
from hornlearn.cases import even_atom, numeral
from hornlearn.learner import _priority_sorted, _restart_stage, _strictly_precedes
from hornlearn.logic import literal_variables
from hornlearn.metric import priority_precedes
from hornlearn.semantics import _universe_for, least_model_bounded
from hornlearn.subsumption import reduce_clause, substitutions
from hornlearn.syntax import literal_order, render_clause

from conftest import (
    SIG_BINARY,
    SIG_UNARY,
    count_model_builds,
    random_atom,
    random_clause,
    random_definite_clause,
    random_horn_program,
    random_literal,
    random_simple_program,
    random_term,
)
from test_semantics import oracle_least_model

# (signature, term depth of the random inputs, depth bound of the models).
# SIG_BINARY stays shallow: its bounded universe grows doubly exponentially.
SIGNATURES = [(SIG_UNARY, 3, 5), (SIG_BINARY, 2, 3)]


def oracle_theta_subsumes(c: Clause, d: Clause):
    """The bare search, with theta_subsumes' literal orders and no rejection."""
    c_lits = sorted(c.literals, key=lambda l: (len(literal_variables(l)), literal_order(l)))
    d_lits = sorted(d.literals, key=literal_order)
    witness = next(substitutions(c_lits, [d_lits] * len(c_lits), {}), None)
    return witness is not None, witness


def oracle_reduce_program(p: HornProgram, depth_bound: int) -> HornProgram:
    """Fixpoint removal, rescanning from the top after every removal, with a
    from-scratch model of the remaining program for every fact test."""
    clauses = set(p.clauses)
    signature = p.signature()
    while True:
        ordered = sorted(clauses, key=lambda c: (-len(c.literals), render_clause(c)))
        removed = None
        for c in ordered:
            rest = clauses - {c}
            if any(oracle_theta_subsumes(d, c)[0] for d in rest):
                removed = c
                break
            if c.is_fact and rest:
                kept = HornProgram(rest)
                universe = _universe_for(kept, depth_bound, signature)
                if c.head in oracle_least_model(kept, depth_bound, universe).atoms:
                    removed = c
                    break
        if removed is None:
            return HornProgram(clauses)
        clauses.discard(removed)


def oracle_reduce_clause(c: Clause) -> Clause:
    """Literal reduction, rescanning from the first literal after every drop."""
    current = c
    changed = True
    while changed:
        changed = False
        for lit in sorted(current.literals, key=literal_order):
            smaller = Clause(current.literals - {lit})
            if not smaller.literals:
                continue
            if oracle_theta_subsumes(current, smaller)[0]:
                current = smaller
                changed = True
                break
    return current


def oracle_restart_stage(arrivals: list[Literal], e: Literal) -> int | None:
    """Least trigger stage, then the transitive closure by repeated rescans."""
    triggers = [i for i, a in enumerate(arrivals) if _strictly_precedes(e, a)]
    if not triggers:
        return None
    j = min(triggers)
    while True:
        pending = arrivals[j:] + [e]
        earlier = [
            i
            for i in range(j)
            if any(_strictly_precedes(q, arrivals[i]) for q in pending)
        ]
        if not earlier:
            return j
        j = min(earlier)


def oracle_priority_sorted(pending: list[Literal]) -> list[Literal]:
    """Repeatedly take the first remaining arrival that nothing remaining is
    strictly below, asking the pre-order for every pair."""
    remaining = list(dict.fromkeys(pending))
    ordered = []
    while remaining:
        minimal = next(
            a
            for a in remaining
            if not any(
                b is not a and priority_precedes(b, a) and not priority_precedes(a, b)
                for b in remaining
            )
        )
        remaining.remove(minimal)
        ordered.append(minimal)
    return ordered


def outcome(fn, *args):
    """The result, or the exception type and message, for comparing paths
    that must also fail alike (a variable-only signature has no universe)."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


# A rule that derives one of its own facts, and a unit clause that is not
# range-restricted: both reach reduce_program's exact fact test.
CHAIN = parse_program("p(s(X)) :- p(X).\np(0).\np(s(0)).")
UNBOUND = parse_program("r(Y).")


def random_program(rng: random.Random, sig, max_depth: int) -> HornProgram:
    """A random definite or simple program plus ground facts, so that both
    removal tests (subsumption and derivability) fire, sometimes with CHAIN
    or UNBOUND added."""
    make = rng.choice((random_horn_program, random_simple_program))
    program = make(rng, sig, max_depth, max_clauses=4)
    facts = [Clause((random_atom(rng, sig, max_depth),)) for _ in range(rng.randint(0, 3))]
    for extra in (CHAIN, UNBOUND):
        if rng.random() < 0.25:
            facts += extra.clauses
    return program.with_clauses(facts)


@pytest.mark.parametrize("sig,max_depth,depth_bound", SIGNATURES)
def test_reduce_program_one_pass_equals_rescanning_oracle(
    monkeypatch, rng, sig, max_depth, depth_bound
):
    # The support set comes with M(kept) from the model slot, so every model
    # a call asks least_model_bounded for is the exact test of a fact inside
    # that set.
    models = []

    def counted(*args):
        models.append(args)
        return least_model_bounded(*args)

    monkeypatch.setattr(generalize, "least_model_bounded", counted)
    removed = fallbacks = 0
    for _ in range(150):
        p = random_program(rng, sig, max_depth)
        models.clear()
        got = outcome(reduce_program, p, depth_bound)
        assert got == outcome(oracle_reduce_program, p, depth_bound), p
        if isinstance(got, HornProgram):
            removed += len(p) - len(got)
            fallbacks += len(models)
    assert removed > 0 and fallbacks > 0, (removed, fallbacks)


def test_reduce_program_grounds_only_the_clauses_still_kept():
    # q(X) removes q(f(Y, Z)) before the fact test. Grounding q(f(Y, Z))
    # would need 677^2 heads at depth 5, over the cap, so a support set
    # built from the whole input would raise where the oracle does not.
    p = parse_program("q(X).\nq(f(Y, Z)).\nr(0).")
    got = outcome(reduce_program, p, 5)
    assert got == outcome(oracle_reduce_program, p, 5) == parse_program("q(X).\nr(0).")


@pytest.mark.parametrize("sig,max_depth,depth_bound", SIGNATURES)
def test_theta_subsumes_equals_bare_search_oracle(rng, sig, max_depth, depth_bound):
    functors = sig[0]
    pairs = []
    for _ in range(150):
        c = random_clause(rng, sig, max_depth, max_literals=4)
        pairs += [(c, random_clause(rng, sig, max_depth, max_literals=4)), (c, c)]
        # An instance of c plus one literal: a hit that binds c's variables.
        theta = {v: random_term(rng, functors, max_depth) for v in c.variables()}
        extra = random_literal(rng, sig, max_depth, ground=False)
        pairs.append((c, Clause(apply_to_clause(c, theta).literals | {extra})))
        # c minus one literal, both ways, as reduce_clause asks.
        if len(c) > 1:
            lit = rng.choice(sorted(c.literals, key=literal_order))
            smaller = Clause(c.literals - {lit})
            pairs += [(c, smaller), (smaller, c)]
    hits = 0
    for c, d in pairs:
        got = theta_subsumes(c, d)
        assert got == oracle_theta_subsumes(c, d), (c, d)
        hits += got[0]
    assert len(pairs) >= 500 and 100 < hits < len(pairs) - 100, (len(pairs), hits)


def test_golem_descending_builds_at_most_one_model_per_reduction(monkeypatch):
    # Each reduction reads the model its input already has in the slot, or
    # extends the slot's model: it never builds one from empty.
    stream = ExampleStream(even_atom(2 * k) for k in reversed(range(16)))
    cfg = config_for_stream(stream, System.GOLEM)
    counts = count_model_builds(monkeypatch)
    builds = []

    def counted(p, depth_bound):
        before = counts.copy()
        out = reduce_program(p, depth_bound)
        builds.append((counts["cold"] - before["cold"], counts["warm"] - before["warm"]))
        return out

    def trace_bytes() -> bytes:
        semantics._slot = None
        lines = [json.dumps(r.to_json_dict()) for r in run_stream(stream, cfg)]
        return ("\n".join(lines) + "\n").encode("utf-8")

    monkeypatch.setattr(learner, "reduce_program", counted)
    got = trace_bytes()
    assert len(builds) >= 15 and all(cold == 0 and warm <= 1 for cold, warm in builds), builds
    monkeypatch.setattr(learner, "reduce_program", oracle_reduce_program)
    assert got == trace_bytes()


@pytest.mark.parametrize("sig,max_depth,depth_bound", SIGNATURES)
def test_reduce_clause_one_pass_equals_rescanning_oracle(rng, sig, max_depth, depth_bound):
    dropped = 0
    for _ in range(300):
        c = random_definite_clause(rng, sig, max_depth, max_body=4)
        got = reduce_clause(c)
        assert got == oracle_reduce_clause(c), c
        dropped += len(c.literals) - len(got.literals)
    assert dropped > 0


@pytest.mark.parametrize("sig,max_depth,depth_bound", SIGNATURES)
def test_restart_stage_backward_scan_equals_closure_oracle(rng, sig, max_depth, depth_bound):
    closed_below_trigger = 0
    for _ in range(400):
        pool = [random_atom(rng, sig, max_depth) for _ in range(6)]
        arrivals = [rng.choice(pool) for _ in range(rng.randint(0, 10))]
        e = rng.choice(pool)
        got = _restart_stage(arrivals, e)
        assert got == oracle_restart_stage(arrivals, e), (arrivals, e)
        triggers = [i for i, a in enumerate(arrivals) if _strictly_precedes(e, a)]
        if got is not None and got < min(triggers):
            closed_below_trigger += 1
    assert closed_below_trigger > 0


@pytest.mark.parametrize("sig,max_depth,depth_bound", SIGNATURES)
def test_priority_sorted_equals_selection_oracle(rng, sig, max_depth, depth_bound):
    reordered = equivalents = 0
    for _ in range(400):
        pool = [random_atom(rng, sig, max_depth) for _ in range(5)]
        # Same subterms under another predicate: equivalent, not equal.
        pool += [Literal(True, "r", a.args) for a in pool[:2]]
        pending = [rng.choice(pool) for _ in range(rng.randint(0, 12))]
        got = _priority_sorted(pending)
        assert got == oracle_priority_sorted(pending), pending
        distinct = list(dict.fromkeys(pending))
        reordered += got != distinct
        equivalents += any(
            a != b and priority_precedes(a, b) and priority_precedes(b, a)
            for a in distinct
            for b in distinct
        )
    assert reordered > 50 and equivalents > 50


@pytest.mark.slow
def test_priority_sorted_equals_selection_oracle_on_96_descending_arrivals():
    # Two interleaved descending chains, over 0 and over a: each chain's
    # least arrival comes last, and taking one frees an earlier arrival
    # than the other chain's ready one.
    pending = [
        Literal(True, "p", (numeral(k, base),))
        for k in reversed(range(48))
        for base in (Fn("0"), Fn("a"))
    ]
    # Equal-priority twins under another predicate keep their arrival order.
    pending += [Literal(True, "q", x.args) for x in pending[::5]]
    got = _priority_sorted(pending)
    assert got == oracle_priority_sorted(pending)
    assert got[:3] == [Literal(True, "p", (numeral(k),)) for k in range(3)]
