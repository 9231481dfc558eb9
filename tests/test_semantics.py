import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hornlearn import (
    Fn,
    HornProgram,
    atom,
    bounded_universe,
    covers,
    fact,
    least_model_bounded,
    parse_program,
    tp_step,
)
from hornlearn.cases import even_atom, numeral
from hornlearn.logic import apply_to_literal, literal_depth
from hornlearn.semantics import default_depth_bound

from conftest import SIG_UNARY, random_simple_program, random_stream

ZERO = Fn("0")

CHAIN_UP = parse_program("p(0).\np(s(s(X))) :- p(X).")
CHAIN_DOWN = parse_program("p(X) :- p(s(s(X))).")


# --- bounded universe --------------------------------------------------------


def test_universe_unary_signature():
    assert bounded_universe({("0", 0), ("s", 1)}, 3) == {
        ZERO,
        numeral(1),
        numeral(2),
    }


def test_universe_constants_only_at_bound_one():
    assert bounded_universe({("0", 0), ("a", 0), ("s", 1)}, 1) == {ZERO, Fn("a")}


def test_universe_no_function_symbols():
    assert bounded_universe({("0", 0)}, 5) == {ZERO}


def test_universe_rejects_missing_constant():
    with pytest.raises(ValueError, match="no constant"):
        bounded_universe({("s", 1)}, 3)


def test_universe_binary_counts():
    # |T(<=d)| for {0, s/1, f/2}: 1, 3, 13, ...
    assert len(bounded_universe({("0", 0), ("s", 1), ("f", 2)}, 3)) == 13


def test_universe_refuses_a_level_over_the_cap():
    # |U_d| for {0, f/2}: 1, 2, 5, 26, 677, 458330.
    assert len(bounded_universe({("0", 0), ("f", 2)}, 5)) == 677
    with pytest.raises(ValueError, match="458330 terms at depth 6"):
        bounded_universe({("0", 0), ("f", 2)}, 6)


# --- immediate consequence step ----------------------------------------------


def test_tp_step_fires_facts_first():
    assert tp_step(CHAIN_UP, frozenset(), 7) == {even_atom(0)}


def test_tp_step_descending_rule_derives_nothing_from_empty():
    assert tp_step(CHAIN_DOWN, frozenset(), 8) == frozenset()


def test_tp_step_empty_program_is_identity():
    atoms = frozenset((even_atom(0), even_atom(2)))
    assert tp_step(HornProgram(), atoms, 7) == atoms


def test_tp_step_truncates_heads_beyond_bound():
    atoms = frozenset((even_atom(2),))
    got = tp_step(CHAIN_UP, atoms, 4)
    # head depth would be 5 > 4, so only the fact joins.
    assert got == {even_atom(0), even_atom(2)}


# --- least model -------------------------------------------------------------


def test_least_model_ascending_chain_at_bound_7():
    model = least_model_bounded(CHAIN_UP, 7)
    assert model.atoms == {even_atom(0), even_atom(2), even_atom(4), even_atom(6)}
    assert model.saturated


def test_least_model_descending_chain_is_empty():
    for bound in (4, 8, 12):
        assert least_model_bounded(CHAIN_DOWN, bound).atoms == frozenset()


def test_least_model_empty_program():
    assert least_model_bounded(HornProgram(), 5).atoms == frozenset()


def test_least_model_var_headed_unit_enumerates_universe():
    p = parse_program("p(X) :- q(X).\nq(0).\nr(Y).")
    model = least_model_bounded(p, 2)
    assert atom("r", ZERO) in model.atoms
    assert atom("p", ZERO) in model.atoms


# --- covers ------------------------------------------------------------------


def test_covers_ascending_examples():
    examples = {even_atom(0), even_atom(2), even_atom(4), even_atom(6)}
    assert all(covers(CHAIN_UP, examples, 7).values())


def test_covers_descending_limit_covers_nothing():
    examples = {even_atom(0), even_atom(2), even_atom(4), even_atom(6)}
    assert not any(covers(CHAIN_DOWN, examples, 7).values())


def test_covers_vacuous_on_empty_examples():
    assert covers(CHAIN_UP, frozenset(), 7) == {}


def test_covers_rejects_too_deep_example_with_hint():
    with pytest.raises(ValueError, match="at least 9"):
        covers(CHAIN_UP, {even_atom(8)}, 7)


def test_covers_widens_signature_with_example_symbols():
    # r(Y). names no constant, so only the example's a grounds its universe.
    r_a = atom("r", Fn("a"))
    assert covers(parse_program("r(Y)."), {r_a}, 2) == {r_a: True}


def test_default_depth_bound():
    assert default_depth_bound(21) == 25


# --- properties --------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 100_000))
def test_tp_step_inflationary_and_monotone(seed):
    rng = random.Random(seed)
    p = random_simple_program(rng, SIG_UNARY, max_depth=3, max_clauses=3).with_clauses(
        (fact(atom("p", ZERO)),)
    )
    small = frozenset(random_stream(rng, SIG_UNARY, 3, 3))
    big = small | frozenset(random_stream(rng, SIG_UNARY, 3, 3))
    bound = 6
    assert small <= tp_step(p, small, bound)
    assert tp_step(p, small, bound) <= tp_step(p, big, bound)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 100_000))
def test_fixpoint_within_bounded_base_size(seed):
    rng = random.Random(seed)
    p = random_simple_program(rng, SIG_UNARY, max_depth=3, max_clauses=3).with_clauses(
        (fact(atom("p", ZERO)),)
    )
    bound = 5
    base_size = len(bounded_universe(p.signature(), bound)) * 2  # p/1 and q/2 worst case
    atoms = frozenset()
    rounds = 0
    while True:
        nxt = tp_step(p, atoms, bound)
        rounds += 1
        if nxt == atoms:
            break
        atoms = nxt
    assert rounds <= base_size + 1


def naive_model_oracle(p: HornProgram, depth_bound: int) -> frozenset:
    """Independent oracle: enumerate every substitution of each clause's
    variables over the bounded universe and chase to a fixpoint."""
    sig = p.signature()
    universe = sorted(bounded_universe(sig, depth_bound), key=str) if sig else []
    atoms = set()
    while True:
        added = False
        for clause in p:
            variables = sorted(clause.variables(), key=lambda v: v.name)
            for values in product(universe, repeat=len(variables)):
                theta = dict(zip(variables, values))
                head = apply_to_literal(clause.head, theta)
                if literal_depth(head) > depth_bound or head in atoms:
                    continue
                if all(apply_to_literal(b, theta) in atoms for b in clause.body):
                    atoms.add(head)
                    added = True
        if not added:
            return frozenset(atoms)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 100_000))
def test_bounded_model_matches_naive_oracle_on_simple_programs(seed):
    rng = random.Random(seed)
    p = random_simple_program(rng, SIG_UNARY, max_depth=3, max_clauses=3).with_clauses(
        (fact(atom("p", ZERO)),)
    )
    bound = 5
    assert least_model_bounded(p, bound).atoms == naive_model_oracle(p, bound)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 100_000))
def test_bound_monotonicity_for_simple_programs(seed):
    rng = random.Random(seed)
    p = random_simple_program(rng, SIG_UNARY, max_depth=3, max_clauses=3).with_clauses(
        (fact(atom("p", ZERO)),)
    )
    for bound in (3, 4, 5):
        smaller = least_model_bounded(p, bound).atoms
        larger = least_model_bounded(p, bound + 1).atoms
        assert smaller <= larger
