import random
import sys
import threading
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
    reduce_program,
    tp_step,
)
from hornlearn import semantics
from hornlearn.cases import even_atom, numeral
from hornlearn.logic import apply_to_literal, literal_depth, literal_variables
from hornlearn.semantics import (
    BoundedModel,
    _ground_clause_instances,
    _universe_for,
    default_depth_bound,
    examples_model,
)

from conftest import (
    SIG_BINARY,
    SIG_UNARY,
    VAR_POOL,
    count_model_builds,
    random_atom,
    random_definite_clause,
    random_term,
    random_simple_program,
    random_stream,
)

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
    # p(s^8(0)) has depth 9 > 7.
    assert model.truncated == 1


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


# --- semi-naive fixpoint and its model slot, against the slow paths -----------


def oracle_least_model(p: HornProgram, depth_bound: int, universe: frozenset) -> BoundedModel:
    """The from-scratch semi-naive loop that the model slot's warm starts
    replaced: round 0 fires every clause on nothing, every later round the
    rules on the atoms the previous round added."""
    old = new = frozenset()
    dropped = set()
    clauses = p
    while True:
        known = old | new
        fresh = set()
        for clause in clauses:
            for h in _ground_clause_instances(clause, old, new, known, universe):
                if h in known or h in fresh or h in dropped:
                    continue
                if literal_depth(h) <= depth_bound:
                    fresh.add(h)
                else:
                    dropped.add(h)
        if not fresh:
            return BoundedModel(depth_bound, known, truncated=len(dropped))
        old, new, clauses = known, frozenset(fresh), p.rules


def oracle_support(p: HornProgram, universe: frozenset, atoms: frozenset) -> frozenset:
    """The T_P step that the recorded support set replaced: heads of one
    step of p's clauses other than ground facts over atoms, deeper than the
    bound or not."""
    empty = frozenset()
    return frozenset(
        h
        for c in p
        if not c.is_fact
        for h in _ground_clause_instances(c, empty, atoms, atoms, universe)
    )


def oracle_truncated(p: HornProgram, depth_bound: int, atoms: frozenset) -> int:
    """Distinct heads deeper than the bound of the instances whose body holds
    in atoms, every variable ranging over the bounded universe."""
    universe = sorted(bounded_universe(p.signature(), depth_bound), key=str)
    dropped = set()
    for clause in p:
        variables = sorted(clause.variables(), key=lambda v: v.name)
        for values in product(universe, repeat=len(variables)):
            theta = dict(zip(variables, values))
            head = apply_to_literal(clause.head, theta)
            if literal_depth(head) > depth_bound and all(
                apply_to_literal(b, theta) in atoms for b in clause.body
            ):
                dropped.add(head)
    return len(dropped)


# The conftest signatures plus q/1 and r/1, so that rules can join atoms of
# different predicates and rounds.
SIG_UNARY_PQR = (SIG_UNARY[0], (("p", 1), ("q", 1), ("r", 1)))
SIG_BINARY_PQR = (SIG_BINARY[0], (("p", 1), ("q", 2), ("r", 1)))
CHAIN = parse_program("p(0).\np(s(X)) :- p(X).")


def random_program_with_unit(rng: random.Random, sig, depth: int) -> HornProgram:
    """Three random definite clauses with bodies of up to 3 literals, a unit
    clause with a variable head over r/1 (such as r(Y).) and the chain
    p(0). p(s(X)) :- p(X)., which derives one p atom per round, so that rule
    bodies join atoms that arrived in different rounds."""
    clauses = [random_definite_clause(rng, sig, depth, max_body=3) for _ in range(3)]
    head = atom("r", random_term(rng, sig[0], depth, ground=False))
    if not literal_variables(head):
        head = atom("r", rng.choice(VAR_POOL))
    return CHAIN.with_clauses(clauses + [fact(head)])


@pytest.fixture
def model_memo(monkeypatch):
    """The model slot, emptied before and after the test, and the counts of
    how it answers each query (conftest.count_model_builds)."""
    semantics._slot = None
    yield count_model_builds(monkeypatch)
    semantics._slot = None


@pytest.mark.parametrize("sig,depth,bound", [(SIG_UNARY_PQR, 3, 5), (SIG_BINARY_PQR, 2, 3)],
                         ids=["unary", "binary"])
def test_semi_naive_model_matches_naive_oracle(sig, depth, bound):
    rng = random.Random(1986 + len(sig[0]))
    long_bodies = truncating = 0
    for _ in range(60):
        p = random_program_with_unit(rng, sig, depth)
        model = least_model_bounded(p, bound)
        assert model.atoms == naive_model_oracle(p, bound), p
        assert model.truncated == oracle_truncated(p, bound, model.atoms), p
        long_bodies += any(len(c.body) >= 2 for c in p)
        truncating += model.truncated > 0
    assert long_bodies > 30 and truncating > 10, (long_bodies, truncating)


@pytest.mark.parametrize("sig,depth,bound", [(SIG_UNARY_PQR, 3, 5), (SIG_BINARY_PQR, 2, 3)],
                         ids=["unary", "binary"])
def test_tp_step_iterated_from_empty_reaches_the_least_model(sig, depth, bound):
    rng = random.Random(1993 + len(sig[0]))
    for _ in range(60):
        p = random_program_with_unit(rng, sig, depth)
        atoms = frozenset()
        while (nxt := tp_step(p, atoms, bound)) != atoms:
            atoms = nxt
        assert least_model_bounded(p, bound).atoms == atoms, p


def test_memo_hit_returns_the_fresh_model(model_memo):
    rng = random.Random(42)
    for _ in range(20):
        p = random_program_with_unit(rng, SIG_UNARY_PQR, 3)
        first = least_model_bounded(p, 5)
        builds = dict(model_memo)
        again = least_model_bounded(p, 5)
        assert model_memo == builds | {"hit": builds.get("hit", 0) + 1}
        fresh = oracle_least_model(p, 5, _universe_for(p, 5))
        assert again == first == fresh


def test_memo_never_shares_an_entry_between_depth_bounds(model_memo):
    shallow = least_model_bounded(CHAIN_UP, 5)
    cold = model_memo["cold"]
    deep = least_model_bounded(CHAIN_UP, 7)
    assert model_memo["cold"] == cold + 1 and not model_memo["warm"]
    assert (shallow.depth_bound, len(shallow.atoms)) == (5, 3)
    assert (deep.depth_bound, len(deep.atoms)) == (7, 4)
    assert least_model_bounded(CHAIN_UP, 5) == shallow


def test_memo_keeps_example_signatures_apart_when_the_universe_is_live(model_memo):
    # r(Y). has no constant of its own: each example's symbols ground it.
    p = parse_program("r(Y).")
    r_a, r_b = atom("r", Fn("a")), atom("r", Fn("b"))
    assert examples_model(p, [r_a], 2).atoms == {r_a}
    assert examples_model(p, [r_b], 2).atoms == {r_b}
    assert examples_model(p, [r_a], 2).atoms == {r_a}
    assert model_memo == {"cold": 3}


def test_memo_shares_one_entry_across_signatures_when_no_universe_is_needed(model_memo):
    a, b = atom("p", Fn("a")), atom("p", Fn("b"))
    assert not examples_model(CHAIN_UP, [a], 7).atoms & {a, b}
    hits = model_memo["hit"]
    assert examples_model(CHAIN_UP, [b], 7) == least_model_bounded(CHAIN_UP, 7)
    assert model_memo["hit"] == hits + 2


def random_extension(rng: random.Random, sig, depth: int) -> list:
    """One to three random range-restricted definite clauses and ground
    facts to add to a program."""
    out, n = [], rng.randint(1, 3)
    while len(out) < n:
        c = random_definite_clause(rng, sig, depth, max_body=2)
        if rng.random() < 0.3:
            out.append(fact(random_atom(rng, sig, depth)))
        elif c.range_restricted:
            out.append(c)
    return out


@pytest.mark.parametrize("sig,depth,bound", [(SIG_UNARY_PQR, 3, 5), (SIG_BINARY_PQR, 2, 3)],
                         ids=["unary", "binary"])
def test_warm_and_inherited_models_equal_the_from_scratch_loop(model_memo, sig, depth, bound):
    """Each program grows by random clauses three times, so the slot holds a
    clause subset of every query after the first; then reduce_program
    re-keys the slot to its result, and the result grows once more."""
    rng = random.Random(1993 + len(sig[0]))
    inherited = truncating = 0
    for _ in range(60):
        p = HornProgram(random_extension(rng, sig, depth)).with_clauses(CHAIN.clauses)
        if rng.random() < 0.3:
            p = p.with_clauses((fact(atom("r", rng.choice(VAR_POOL))),))
        for _ in range(3):
            universe = _universe_for(p, bound)
            model = least_model_bounded(p, bound)
            fresh = oracle_least_model(p, bound, universe)
            assert (model.atoms, model.truncated) == (fresh.atoms, fresh.truncated), p
            assert semantics._slot.support == oracle_support(p, universe, fresh.atoms), p
            truncating += fresh.truncated > 0
            p = p.with_clauses(random_extension(rng, sig, depth))
        if not p.range_restricted:
            continue
        result = reduce_program(p, bound)
        hits = model_memo["hit"]
        model = least_model_bounded(result, bound)
        assert model_memo["hit"] == hits + 1
        fresh = oracle_least_model(result, bound, frozenset())
        assert (model.atoms, model.truncated) == (fresh.atoms, fresh.truncated), (p, result)
        inherited += result != p
        # A warm start from the inherited entry: its support set may keep
        # heads of clauses the reduction removed, never lose one.
        grown = result.with_clauses(random_extension(rng, sig, depth))
        universe = _universe_for(grown, bound)
        model = least_model_bounded(grown, bound)
        fresh = oracle_least_model(grown, bound, universe)
        assert (model.atoms, model.truncated) == (fresh.atoms, fresh.truncated), grown
        assert semantics._slot.support >= oracle_support(grown, universe, fresh.atoms)
    assert model_memo["warm"] > 150 and model_memo["cold"] > 20, model_memo
    assert inherited > 10 and truncating > 50, (inherited, truncating)


def test_threads_sharing_the_slot_get_every_model_right():
    # Each query reads the slot once and stores one tuple, so a thread never
    # pairs one program's key with another's model, however they interleave.
    rng = random.Random(2024)
    programs = []
    for _ in range(6):
        p = HornProgram(random_extension(rng, SIG_UNARY_PQR, 3)).with_clauses(CHAIN.clauses)
        programs += [p, p.with_clauses(random_extension(rng, SIG_UNARY_PQR, 3))]
    models = {p: oracle_least_model(p, 5, _universe_for(p, 5)) for p in programs}
    reduced = {p: reduce_program(p, 5) for p in programs}
    wrong = []

    def ask(seed: int) -> None:
        order = random.Random(seed)
        for _ in range(200):
            p = order.choice(programs)
            if least_model_bounded(p, 5) != models[p] or reduce_program(p, 5) != reduced[p]:
                wrong.append(p)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=ask, args=(seed,)) for seed in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not wrong
