"""Differential tests: theta-subsumption and T_P grounding, which share
`subsumption.substitutions`, against the two searches it replaced (the
recursive first-witness search and the breadth-first binding lists), kept
here as oracles only. `oracle_tp_step` is also the plain
immediate-consequence step that the semantics suites state their laws on."""

from __future__ import annotations

import random
from itertools import product

import pytest

from hornlearn import Clause, Fn, HornProgram, Literal, Var, bounded_universe, subsumption, theta_subsumes
from hornlearn.logic import apply_to_clause, apply_to_literal, literal_depth, term_variables
from hornlearn.semantics import _ground_clause_instances
from hornlearn.subsumption import substitutions
from hornlearn.syntax import literal_order

from conftest import (
    SIG_BINARY,
    SIG_UNARY,
    VAR_POOL,
    random_atom,
    random_clause,
    random_definite_clause,
    random_literal,
    random_term,
    universe_for,
)
from test_term_oracle import oracle_match_literals

# (signature, term depth of the random inputs, depth bound of the steps).
# SIG_BINARY stays shallow: its bounded universe grows doubly exponentially.
SIGNATURES = [(SIG_UNARY, 3, 5), (SIG_BINARY, 2, 3)]


def oracle_theta_subsumes(c: Clause, d: Clause):
    """Recursive search that returns the first witness it completes."""
    c_lits = sorted(c.literals, key=lambda l: (len(term_variables(l.term)), literal_order(l)))
    d_lits = sorted(d.literals, key=literal_order)

    def search(i, theta):
        if i == len(c_lits):
            return theta
        for target in d_lits:
            extended = oracle_match_literals(c_lits[i], target, theta)
            if extended is not None:
                found = search(i + 1, extended)
                if found is not None:
                    return found
        return None

    witness = search(0, {})
    if witness is None:
        return False, None
    return True, witness


def oracle_ground_clause_instances(clause: Clause, atoms, universe) -> list[Literal]:
    """Breadth-first: every binding of the body, one literal at a time, then
    the free variables of each instantiated head over the universe."""
    bindings = [{}]
    for b in clause.body:
        next_bindings = []
        for theta in bindings:
            for a in atoms:
                extended = oracle_match_literals(b, a, theta)
                if extended is not None:
                    next_bindings.append(dict(extended))
        bindings = next_bindings
        if not bindings:
            return []

    head = clause.head
    heads = []
    for theta in bindings:
        instantiated = apply_to_literal(head, theta)
        free = term_variables(instantiated.term)
        if not free:
            heads.append(instantiated)
            continue
        free_vars = tuple(free)
        for values in product(universe, repeat=len(free_vars)):
            full = dict(theta)
            full.update(zip(free_vars, values))
            heads.append(apply_to_literal(head, full))
    return heads


def oracle_tp_step(p: HornProgram, atoms, depth_bound: int, universe=None) -> frozenset[Literal]:
    """One immediate-consequence round: atoms plus every head instance whose
    body holds in atoms, truncated at the bound. The universe defaults to
    the one the least model grounds unbound head variables over."""
    if universe is None:
        universe = universe_for(p, depth_bound)
    out = set(atoms)
    for clause in p:
        for h in oracle_ground_clause_instances(clause, atoms, universe):
            if literal_depth(h) <= depth_bound:
                out.add(h)
    return frozenset(out)


def _instance(rng: random.Random, c: Clause, functors, max_depth: int) -> Clause:
    """c under a random substitution of its variables (not always ground)."""
    theta = {
        v: random_term(rng, functors, max_depth, ground=rng.random() < 0.7)
        for v in c.variables()
    }
    return apply_to_clause(c, theta)


@pytest.mark.parametrize("sig,depth,_bound", SIGNATURES, ids=["unary", "binary"])
def test_theta_subsumes_returns_the_oracle_witness(sig, depth, _bound):
    rng = random.Random(5150 + len(sig[1]))
    functors = sig[0]
    hits = misses = several = 0
    for _ in range(400):
        c = random_clause(rng, sig, depth)
        # Two instances of c plus noise give d several candidate witnesses;
        # an unrelated clause mostly gives none.
        if rng.random() < 0.6:
            d = Clause(
                _instance(rng, c, functors, depth).literals
                | _instance(rng, c, functors, depth).literals
                | {random_literal(rng, sig, depth, ground=False) for _ in range(rng.randint(0, 2))}
            )
        else:
            d = random_clause(rng, sig, depth, max_literals=4)
        want = oracle_theta_subsumes(c, d)
        assert theta_subsumes(c, d) == want, (c, d)
        if want[0]:
            hits += 1
            several += len(list(substitutions(list(c), [d.literals] * len(c), {}))) > 1
        else:
            misses += 1
    assert hits > 100 and misses > 100 and several > 50, (hits, misses, several)


def _variable_headed_unit(rng: random.Random, sig, depth: int) -> Clause:
    head = random_atom(rng, sig, depth, ground=False)
    if not term_variables(head.term):
        head = Literal(True, Fn(head.predicate, (rng.choice(VAR_POOL),) + head.args[1:]))
    return Clause([head])


@pytest.mark.parametrize("sig,depth,bound", SIGNATURES, ids=["unary", "binary"])
def test_tp_step_equals_the_oracle_step(sig, depth, bound):
    rng = random.Random(8086 + len(sig[1]))
    universe = bounded_universe(set(sig[0]), bound)
    grew = joined = enumerated = 0
    for _ in range(150):
        clauses = [random_definite_clause(rng, sig, depth, max_body=3) for _ in range(3)]
        clauses.append(_variable_headed_unit(rng, sig, depth))
        p = HornProgram(clauses)
        atoms = frozenset(random_atom(rng, sig, bound) for _ in range(rng.randint(0, 12)))
        want = oracle_tp_step(p, atoms, bound, universe)
        # The library's semi-naive round with nothing old is the plain step.
        got = atoms.union(
            h
            for c in p
            for h in _ground_clause_instances(c, frozenset(), atoms, atoms, universe)
            if literal_depth(h) <= bound
        )
        assert got == want, (p, atoms)
        grew += want != atoms
        # Per clause too: a variable-headed unit clause can fill the whole
        # bounded base and hide the other clauses' heads in the step.
        for c in p:
            heads = oracle_ground_clause_instances(c, atoms, universe)
            got = _ground_clause_instances(c, frozenset(), atoms, atoms, universe)
            assert set(got) == set(heads), (c, atoms)
            if heads:
                joined += len(c.body) >= 2
                enumerated += bool(c.body) and not c.range_restricted
    assert grew > 100 and joined > 10 and enumerated > 10, (grew, joined, enumerated)


def test_ground_pattern_literals_are_tested_by_membership(monkeypatch):
    # T_P over golem's ground-policy saturation of p(a) against 60 facts,
    # p(a) :- q(c0), ..., q(c59): a ground body literal matches only
    # itself, so grounding it asks no term match at all.
    calls = []
    original = subsumption.match_terms
    monkeypatch.setattr(subsumption, "match_terms", lambda *a: calls.append(a) or original(*a))
    facts = [Literal(True, Fn("q", (Fn(f"c{i}"),))) for i in range(60)]
    head = Literal(True, Fn("p", (Fn("a"),)))
    rule = Clause([head] + [f.negated() for f in facts])
    known = frozenset(facts)
    assert list(_ground_clause_instances(rule, frozenset(), known, known, frozenset())) == [head]
    # Old half and new half: the one instance, at its first position in new.
    old, new = frozenset(facts[:30]), frozenset(facts[30:])
    assert list(_ground_clause_instances(rule, old, new, known, frozenset())) == [head]
    assert calls == []
    # A non-ground literal still matches term by term, after the ground ones.
    x = Var("X")
    mixed = Clause([Literal(True, Fn("p", (x,))), facts[0].negated(), Literal(False, Fn("q", (x,)))])
    heads = set(_ground_clause_instances(mixed, frozenset(), known, known, frozenset()))
    assert heads == {Literal(True, Fn("p", (Fn(f"c{i}"),))) for i in range(60)}
    assert len(calls) == 60 * 2  # q(X) against each fact, once per split


def test_a_run_of_ground_patterns_is_tested_in_a_loop():
    # 3,000 ground patterns around one non-ground one, past the recursion
    # limit: only the non-ground pattern recurses, and it still tries its
    # targets in their iteration order.
    facts = [Literal(True, Fn("q", (Fn(f"c{i}"),))) for i in range(3000)]
    x = Var("X")
    patterns = facts[:1500] + [Literal(True, Fn("q", (x,)))] + facts[1500:]
    known = frozenset(facts)
    got = list(substitutions(patterns, [known] * len(patterns), {}))
    assert got == [{x: f.args[0]} for f in known]
    assert list(substitutions(patterns[::-1] + [facts[0].negated()], [known] * 3002, {})) == []
