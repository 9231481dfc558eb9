"""Seeded random generators shared by the property and acceptance suites."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from hornlearn import Clause, ExampleStream, Fn, HornProgram, Literal, Var, semantics
from hornlearn.logic import literal_subterms

# (functors, predicates) for the two signatures the suites draw from.
SIG_UNARY = ((("0", 0), ("s", 1)), (("p", 1),))
SIG_BINARY = ((("0", 0), ("s", 1), ("f", 2)), (("p", 1), ("q", 2)))

VAR_POOL = tuple(Var(n) for n in ("X", "Y", "Z"))


def random_term(rng: random.Random, functors, max_depth: int, ground: bool = True):
    """Random term of depth <= max_depth over the functor signature."""
    if not ground and max_depth >= 1 and rng.random() < 0.2:
        return rng.choice(VAR_POOL)
    if max_depth <= 1:
        constants = [f for f, a in functors if a == 0]
        return Fn(rng.choice(constants))
    name, arity = rng.choice(functors)
    if arity == 0:
        return Fn(name)
    return Fn(
        name,
        tuple(random_term(rng, functors, max_depth - 1, ground) for _ in range(arity)),
    )


def random_atom(rng: random.Random, sig, max_depth: int, ground: bool = True) -> Literal:
    functors, predicates = sig
    name, arity = rng.choice(predicates)
    return Literal(
        True,
        name,
        tuple(random_term(rng, functors, max_depth, ground) for _ in range(arity)),
    )


def random_literal(rng: random.Random, sig, max_depth: int, ground: bool = True) -> Literal:
    a = random_atom(rng, sig, max_depth, ground)
    return a if rng.random() < 0.5 else a.negated()


def random_clause(rng: random.Random, sig, max_depth: int, max_literals: int = 3) -> Clause:
    n = rng.randint(1, max_literals)
    return Clause(random_literal(rng, sig, max_depth, ground=False) for _ in range(n))


def random_definite_clause(
    rng: random.Random, sig, max_depth: int, max_body: int = 2
) -> Clause:
    head = random_atom(rng, sig, max_depth, ground=False)
    body = [
        random_atom(rng, sig, max_depth, ground=False).negated()
        for _ in range(rng.randint(0, max_body))
    ]
    return Clause([head] + body)


def random_simple_clause(rng: random.Random, sig, max_depth: int, max_body: int = 2) -> Clause:
    """Definite clause whose body arguments are drawn from the head's
    subterms, so it is simple by construction."""
    functors, predicates = sig
    head = random_atom(rng, sig, max_depth, ground=False)
    pool = sorted(literal_subterms(head), key=str) or [Fn("0")]
    body = []
    for _ in range(rng.randint(0, max_body)):
        name, arity = rng.choice(predicates)
        args = tuple(rng.choice(pool) for _ in range(arity))
        body.append(Literal(False, name, args))
    return Clause([head] + body)


def random_simple_program(
    rng: random.Random, sig, max_depth: int, max_clauses: int = 3
) -> HornProgram:
    n = rng.randint(1, max_clauses)
    return HornProgram(random_simple_clause(rng, sig, max_depth) for _ in range(n))


def random_horn_program(
    rng: random.Random, sig, max_depth: int, max_clauses: int = 3
) -> HornProgram:
    n = rng.randint(1, max_clauses)
    return HornProgram(random_definite_clause(rng, sig, max_depth) for _ in range(n))


def random_stream(rng: random.Random, sig, max_depth: int, max_arrivals: int = 8) -> ExampleStream:
    n = rng.randint(1, max_arrivals)
    return ExampleStream(random_atom(rng, sig, max_depth, ground=True) for _ in range(n))


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260810)


def count_model_builds(monkeypatch) -> Counter:
    """Count how the model slot answers each query from now on: "hit" (no
    fixpoint ran), "warm" (the fixpoint started from the slot) or "cold"
    (it started from empty)."""
    counts: Counter = Counter()
    least_model, fixpoint = semantics._least_model, semantics._fixpoint

    def answered(p, depth_bound, universe):
        before = sum(counts.values())
        entry = least_model(p, depth_bound, universe)
        if sum(counts.values()) == before:
            counts["hit"] += 1
        return entry

    def built(p, depth_bound, universe, base):
        counts["cold" if base is None else "warm"] += 1
        return fixpoint(p, depth_bound, universe, base)

    monkeypatch.setattr(semantics, "_least_model", answered)
    monkeypatch.setattr(semantics, "_fixpoint", built)
    return counts
