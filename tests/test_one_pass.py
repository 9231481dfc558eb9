"""Differential tests: the one-pass reductions, the backward restart scan and
the one-read priority sort against the rescanning versions they
replaced, kept here as oracles only."""

from __future__ import annotations

import random

import pytest

from hornlearn import Clause, HornProgram, Literal, reduce_program, theta_subsumes
from hornlearn.learner import _priority_sorted, _restart_stage, _strictly_precedes
from hornlearn.metric import priority_precedes
from hornlearn.semantics import least_model_bounded
from hornlearn.subsumption import reduce_clause
from hornlearn.syntax import literal_order, render_clause

from conftest import (
    SIG_BINARY,
    SIG_UNARY,
    random_atom,
    random_definite_clause,
    random_horn_program,
    random_simple_program,
)

# (signature, term depth of the random inputs, depth bound of the models).
# SIG_BINARY stays shallow: its bounded universe grows doubly exponentially.
SIGNATURES = [(SIG_UNARY, 3, 5), (SIG_BINARY, 2, 3)]


def oracle_reduce_program(p: HornProgram, depth_bound: int) -> HornProgram:
    """Fixpoint removal, rescanning from the top after every removal."""
    clauses = set(p.clauses)
    signature = p.signature()
    while True:
        ordered = sorted(clauses, key=lambda c: (-len(c.literals), render_clause(c)))
        removed = None
        for c in ordered:
            rest = clauses - {c}
            if any(theta_subsumes(d, c)[0] for d in rest):
                removed = c
                break
            if c.is_fact and rest:
                model = least_model_bounded(HornProgram(rest), depth_bound, signature)
                if c.head in model.atoms:
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
            if theta_subsumes(current, smaller)[0]:
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


def random_program(rng: random.Random, sig, max_depth: int) -> HornProgram:
    """A random definite or simple program plus ground facts, so that both
    removal tests (subsumption and derivability) fire."""
    make = rng.choice((random_horn_program, random_simple_program))
    program = make(rng, sig, max_depth, max_clauses=4)
    facts = [Clause((random_atom(rng, sig, max_depth),)) for _ in range(rng.randint(0, 3))]
    return program.with_clauses(facts)


@pytest.mark.parametrize("sig,max_depth,depth_bound", SIGNATURES)
def test_reduce_program_one_pass_equals_rescanning_oracle(rng, sig, max_depth, depth_bound):
    removed = 0
    for _ in range(150):
        p = random_program(rng, sig, max_depth)
        got = outcome(reduce_program, p, depth_bound)
        assert got == outcome(oracle_reduce_program, p, depth_bound), p
        if isinstance(got, HornProgram):
            removed += len(p) - len(got)
    assert removed > 0


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
