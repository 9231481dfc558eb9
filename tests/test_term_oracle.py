"""Differential tests: the hash-consed term core against the frozen
dataclasses and recursive walks it replaced (structural hash and equality,
depth, groundness, subterm and variable sets, substitution, matching), the
literal, clause and program nodes against the frozen dataclasses they were
(hash, repr, structural equality), and
literal matching and lgg, which walk the atom as one term, against the loops
over the arguments they replaced; all kept here as oracles only."""

from __future__ import annotations

import gc
import random
from collections import Counter
from dataclasses import dataclass

import pytest

from hornlearn import Clause, Fn, HornProgram, Literal, PairTable, Var, lgg_literals, lgg_terms
from hornlearn.logic import (
    _interned,
    apply_to_literal,
    apply_to_term,
    subterms,
    term_variables,
)
from hornlearn.subsumption import match_terms, substitutions

from conftest import (
    SIG_BINARY,
    SIG_UNARY,
    VAR_POOL,
    random_clause,
    random_horn_program,
    random_literal,
    random_term,
)

SIGNATURES = [(SIG_UNARY, 6), (SIG_BINARY, 4)]


@dataclass(frozen=True)
class OracleVar:
    name: str


@dataclass(frozen=True)
class OracleFn:
    functor: str
    args: tuple = ()


@dataclass(frozen=True)
class OracleLiteral:
    positive: bool
    term: OracleFn


@dataclass(frozen=True)
class OracleClause:
    literals: frozenset


@dataclass(frozen=True)
class OracleProgram:
    clauses: frozenset


def to_oracle(t):
    if isinstance(t, Var):
        return OracleVar(t.name)
    return OracleFn(t.functor, tuple(to_oracle(a) for a in t.args))


def from_oracle(t):
    """Builds the term again, node by node, through the constructors."""
    if isinstance(t, OracleVar):
        return Var(t.name)
    return Fn(t.functor, tuple(from_oracle(a) for a in t.args))


def literal_to_oracle(l) -> OracleLiteral:
    return OracleLiteral(l.positive, to_oracle(l.term))


def clause_to_oracle(c) -> OracleClause:
    return OracleClause(frozenset(map(literal_to_oracle, c.literals)))


def program_to_oracle(p) -> OracleProgram:
    return OracleProgram(frozenset(map(clause_to_oracle, p.clauses)))


def oracle_repr(x) -> str:
    """The dataclass repr under the name of the node class."""
    return repr(x).replace("Oracle", "").replace("Program(", "HornProgram(")


def oracle_depth(t) -> int:
    if isinstance(t, OracleVar) or not t.args:
        return 1
    return 1 + max(oracle_depth(a) for a in t.args)


def oracle_subterms(t) -> frozenset:
    out = {t}
    if isinstance(t, OracleFn):
        for a in t.args:
            out |= oracle_subterms(a)
    return frozenset(out)


def oracle_variables(t) -> frozenset:
    if isinstance(t, OracleVar):
        return frozenset((t,))
    out: set = set()
    for a in t.args:
        out |= oracle_variables(a)
    return frozenset(out)


def oracle_is_ground(t) -> bool:
    return not oracle_variables(t)


def oracle_apply(t, theta):
    if isinstance(t, OracleVar):
        return theta.get(t, t)
    if not t.args:
        return t
    return OracleFn(t.functor, tuple(oracle_apply(a, theta) for a in t.args))


def oracle_match_terms(pattern, target, theta):
    """The structural matcher, without the identity test for ground
    patterns."""
    if isinstance(pattern, Var):
        bound = theta.get(pattern)
        if bound is None:
            out = dict(theta)
            out[pattern] = target
            return out
        return theta if bound == target else None
    if isinstance(target, Var):
        return None
    if pattern.functor != target.functor or len(pattern.args) != len(target.args):
        return None
    for pa, ta in zip(pattern.args, target.args):
        next_theta = oracle_match_terms(pa, ta, theta)
        if next_theta is None:
            return None
        theta = next_theta
    return theta


def oracle_match_literals(pattern, target, theta):
    """Literal matching as a loop over the arguments."""
    if pattern.positive != target.positive or pattern.pred_key != target.pred_key:
        return None
    for pa, ta in zip(pattern.args, target.args):
        next_theta = match_terms(pa, ta, theta)
        if next_theta is None:
            return None
        theta = next_theta
    return theta


def oracle_lgg_literals(l, m, table):
    """Literal lgg as a loop over the arguments."""
    if l.positive != m.positive or l.pred_key != m.pred_key:
        return None
    return Literal(
        l.positive, Fn(l.predicate, tuple(lgg_terms(a, b, table) for a, b in zip(l.args, m.args)))
    )


def random_terms(rng: random.Random, functors, max_depth: int, n: int) -> list:
    return [random_term(rng, functors, rng.randint(1, max_depth), ground=rng.random() < 0.5) for _ in range(n)]


def random_theta(rng: random.Random, functors, max_depth: int) -> dict:
    return {
        v: random_term(rng, functors, max_depth, ground=rng.random() < 0.5)
        for v in VAR_POOL
        if rng.random() < 0.7
    }


@pytest.mark.parametrize("sig,max_depth", SIGNATURES)
def test_term_attributes_equal_the_recursive_oracle(sig, max_depth):
    rng = random.Random(20261018)
    functors = sig[0]
    terms = random_terms(rng, functors, max_depth, 400)
    grounds = 0
    for t in terms:
        o = to_oracle(t)
        assert repr(t) == repr(o).replace("OracleFn", "Fn").replace("OracleVar", "Var")
        assert t.depth == oracle_depth(o)
        assert t.ground == oracle_is_ground(o)
        assert {to_oracle(u) for u in subterms(t)} == oracle_subterms(o)
        assert {to_oracle(v) for v in term_variables(t)} == oracle_variables(o)
        if isinstance(t, Fn):
            # Asked again: the set stored on the node.
            assert subterms(t) is subterms(t)
        grounds += t.ground
    assert 0 < grounds < len(terms)


@pytest.mark.parametrize("sig,max_depth", SIGNATURES)
def test_equality_is_identity_and_agrees_with_structure(sig, max_depth):
    rng = random.Random(7)
    terms = random_terms(rng, sig[0], max_depth, 200)
    # Duplicates drawn from the pool, so equal pairs occur often.
    pairs = [(rng.choice(terms), rng.choice(terms)) for _ in range(2000)]
    equal = 0
    for t, u in pairs:
        assert (t == u) == (to_oracle(t) == to_oracle(u)) == (t is u)
        equal += t == u
    assert 0 < equal < len(pairs)
    for t in terms:
        # Rebuilt node by node from its structure: the interned node itself.
        assert from_oracle(to_oracle(t)) is t
        with pytest.raises(AttributeError):
            t.depth = 0


@pytest.mark.parametrize("sig,max_depth", SIGNATURES)
def test_substitution_equals_the_recursive_oracle(sig, max_depth):
    rng = random.Random(11)
    functors = sig[0]
    changed = 0
    for t in random_terms(rng, functors, max_depth, 400):
        theta = random_theta(rng, functors, 3)
        got = apply_to_term(t, theta)
        want = oracle_apply(to_oracle(t), {to_oracle(v): to_oracle(s) for v, s in theta.items()})
        assert to_oracle(got) == want
        if t.ground:
            assert got is t
        changed += got is not t
    assert changed > 0


@pytest.mark.parametrize("sig,max_depth", SIGNATURES)
def test_match_terms_equals_the_structural_oracle(sig, max_depth):
    rng = random.Random(13)
    functors = sig[0]
    outcomes = {"hit": 0, "miss": 0, "ground hit": 0}
    for _ in range(600):
        pattern = random_term(rng, functors, rng.randint(1, max_depth), ground=rng.random() < 0.3)
        if rng.random() < 0.5:
            target = apply_to_term(pattern, random_theta(rng, functors, 3))
        else:
            target = random_term(rng, functors, max_depth, ground=rng.random() < 0.7)
        theta = random_theta(rng, functors, 2) if rng.random() < 0.3 else {}
        got = match_terms(pattern, target, theta)
        assert got == oracle_match_terms(pattern, target, theta)
        if got is None:
            outcomes["miss"] += 1
        else:
            outcomes["ground hit" if pattern.ground else "hit"] += 1
    assert all(outcomes.values()), outcomes


@pytest.mark.parametrize("sig,max_depth", SIGNATURES)
def test_match_literals_equals_the_argument_loop(sig, max_depth):
    rng = random.Random(17)
    functors = sig[0]
    outcomes: Counter = Counter()
    for _ in range(600):
        pattern = random_literal(rng, sig, rng.randint(1, max_depth), ground=rng.random() < 0.3)
        if rng.random() < 0.5:
            target = apply_to_literal(pattern, random_theta(rng, functors, 3))
        else:
            target = random_literal(rng, sig, max_depth, ground=rng.random() < 0.7)
        theta = random_theta(rng, functors, 2) if rng.random() < 0.3 else {}
        got = next(substitutions([pattern], [[target]], theta), None)
        assert got == oracle_match_literals(pattern, target, theta), (pattern, target, theta)
        if got is None:
            outcomes["sign miss" if pattern.positive != target.positive else "miss"] += 1
        else:
            outcomes["ground hit" if pattern.term.ground else "hit"] += 1
    assert len(outcomes) == 4 and min(outcomes.values()) > 10, outcomes


@pytest.mark.parametrize("sig,max_depth", SIGNATURES)
def test_lgg_literals_equals_the_argument_loop(sig, max_depth):
    rng = random.Random(19)
    # One table per side across every pair, so a pair met again must get
    # the variable it got the first time.
    table, oracle_table = PairTable(), PairTable()
    outcomes: Counter = Counter()
    for _ in range(600):
        l = random_literal(rng, sig, max_depth, ground=rng.random() < 0.7)
        m = random_literal(rng, sig, max_depth, ground=rng.random() < 0.7)
        if m.positive != l.positive and rng.random() < 0.7:
            m = m.negated()
        got = lgg_literals(l, m, table)
        assert got == oracle_lgg_literals(l, m, oracle_table), (l, m)
        outcomes["undefined" if got is None else "equal" if l == m else "generalized"] += 1
    assert list(table.pairs.items()) == list(oracle_table.pairs.items())
    assert len(outcomes) == 3 and min(outcomes.values()) > 10, outcomes
    assert len(table.pairs) > 20


def test_intern_table_drops_unreferenced_terms():
    leaf = Fn("probe_leaf")
    t = Fn("probe", (leaf, Var("ProbeVar")))
    subterms(t)  # the stored set refers back to t: a reference cycle
    assert _interned[("probe", (leaf, Var("ProbeVar")))]() is t
    del t, leaf
    gc.collect()
    assert ("probe_leaf", ()) not in _interned
    assert ("ProbeVar",) not in _interned
    assert not any(key[0] == "probe" for key in list(_interned.keys()))


@pytest.mark.parametrize("sig,max_depth", SIGNATURES)
def test_literal_clause_and_program_nodes_print_as_the_dataclasses(sig, max_depth):
    rng = random.Random(2006)
    programs = [random_horn_program(rng, sig, max_depth) for _ in range(150)]
    clauses = [random_clause(rng, sig, max_depth) for _ in range(300)]
    clauses += [c for p in programs for c in p]
    for c in clauses:
        # The oracle wraps the node's own set, whose order repr shows.
        assert repr(c) == oracle_repr(OracleClause(c.literals))
        for l in c:
            assert repr(l) == oracle_repr(literal_to_oracle(l))
    for p in programs:
        assert repr(p) == oracle_repr(OracleProgram(p.clauses))
    assert not all(c.is_definite for c in clauses)


@pytest.mark.parametrize("sig,max_depth", SIGNATURES)
def test_equal_literals_clauses_and_programs_are_one_node(sig, max_depth):
    rng = random.Random(1970)
    clauses = [random_clause(rng, sig, max_depth, max_literals=2) for _ in range(150)]
    programs = [random_horn_program(rng, sig, 2, max_clauses=2) for _ in range(150)]
    equal = 0
    for pool, oracle in ((clauses, clause_to_oracle), (programs, program_to_oracle)):
        for _ in range(1500):
            x, y = rng.choice(pool), rng.choice(pool)
            assert (x == y) == (oracle(x) == oracle(y)) == (x is y)
            equal += x == y
    assert 0 < equal < 3000
    for c in clauses:
        # Rebuilt from its structure, in another order: the node itself.
        rebuilt = [Literal(l.positive, from_oracle(to_oracle(l.term))) for l in c.literals]
        assert all(m is l for m, l in zip(rebuilt, c.literals))
        assert Clause(reversed(rebuilt)) is c
        with pytest.raises(AttributeError):
            c.literals = frozenset()
        with pytest.raises(AttributeError):
            rebuilt[0].positive = not rebuilt[0].positive
    for p in programs:
        assert HornProgram(list(p)[::-1]) is p and p.with_clauses(()) is p
        with pytest.raises(AttributeError):
            p.clauses = frozenset()
