import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hornlearn import (
    Clause,
    Fn,
    Literal,
    Var,
    atom,
    clause_distance,
    is_simple,
    is_simple_program,
    literal_distance,
    neg,
    parse_program,
    priority_precedes,
    term_distance,
)
from hornlearn import learner, metric
from hornlearn.cases import even_atom, numeral
from hornlearn.learner import _strictly_precedes
from hornlearn.logic import literal_depth, literal_subterms

from conftest import (
    SIG_BINARY,
    SIG_UNARY,
    random_atom,
    random_literal,
    random_simple_clause,
    random_term,
)

ZERO = Fn("0")


def s(t):
    return Fn("s", (t,))


# --- term distance -----------------------------------------------------------


def test_distance_identical_terms_is_zero():
    assert term_distance(ZERO, ZERO) == 0
    assert term_distance(numeral(6), numeral(6)) == 0
    assert term_distance(Var("X"), Var("X")) == 0


def test_distance_root_mismatch_is_one():
    assert term_distance(s(ZERO), ZERO) == 1
    assert term_distance(Var("X"), ZERO) == 1
    assert term_distance(Var("X"), Var("Y")) == 1


def test_distance_recursion_values():
    assert term_distance(s(ZERO), s(s(ZERO))) == Fraction(1, 2)
    assert term_distance(numeral(2), numeral(3)) == Fraction(1, 3)
    assert term_distance(numeral(2), numeral(4)) == Fraction(1, 3)
    assert term_distance(numeral(4), numeral(2)) == Fraction(1, 3)


def oracle_term_distance(t, s) -> Fraction:
    """The Fraction recursion the integer agreement replaced."""
    if t == s:
        return Fraction(0)
    if isinstance(t, Var) or isinstance(s, Var):
        return Fraction(1)
    if t.functor != s.functor or len(t.args) != len(s.args):
        return Fraction(1)
    delta = max(oracle_term_distance(a, b) for a, b in zip(t.args, s.args))
    return delta / (delta + 1)


def oracle_literal_distance(l, m) -> Fraction:
    if l.positive != m.positive or l.pred_key != m.pred_key:
        return Fraction(1)
    if l.args == m.args:
        return Fraction(0)
    delta = max(oracle_term_distance(a, b) for a, b in zip(l.args, m.args))
    return delta / (delta + 1)


def perturbed(rng, t, functors, ground):
    """t with one subterm redrawn at a random position, so that the two
    agree down to it."""
    if not isinstance(t, Fn) or not t.args or rng.random() < 0.3:
        return random_term(rng, functors, 3, ground)
    args = list(t.args)
    i = rng.randrange(len(args))
    args[i] = perturbed(rng, args[i], functors, ground)
    return Fn(t.functor, tuple(args))


@pytest.mark.parametrize("sig,max_depth", [(SIG_UNARY, 6), (SIG_BINARY, 4)])
def test_distance_equals_the_fraction_recursion(sig, max_depth):
    rng = random.Random(20261018)
    functors = sig[0]
    values = set()
    for _ in range(600):
        ground = rng.random() < 0.5
        t = random_term(rng, functors, max_depth, ground)
        s_ = perturbed(rng, t, functors, ground) if rng.random() < 0.7 else random_term(rng, functors, max_depth, ground)
        assert term_distance(t, s_) == oracle_term_distance(t, s_)
        l = random_literal(rng, sig, max_depth, ground)
        m = random_literal(rng, sig, max_depth, ground)
        if rng.random() < 0.7:
            m = Literal(l.positive, l.predicate, tuple(perturbed(rng, a, functors, ground) for a in l.args))
        assert literal_distance(l, m) == oracle_literal_distance(l, m)
        values |= {term_distance(t, s_), literal_distance(l, m)}
    assert len(values - {0, 1}) >= 3


def test_distance_formatting():
    assert str(term_distance(numeral(2), numeral(3))) == "1/3"
    assert str(term_distance(ZERO, ZERO)) == "0"
    assert str(term_distance(ZERO, s(ZERO))) == "1"


# --- literal distance --------------------------------------------------------


def test_literal_distance_equal():
    assert literal_distance(atom("p", ZERO), atom("p", ZERO)) == 0


def test_literal_distance_sign_mismatch_is_maximal():
    assert literal_distance(atom("p", ZERO), neg("p", ZERO)) == 1


def test_literal_distance_wraps_argument_distance():
    # delta = rho(0, s^2(0)) = 1, so the literal distance is 1/2.
    assert literal_distance(neg("p", ZERO), neg("p", numeral(2))) == Fraction(1, 2)


def test_literal_distance_predicate_and_arity_mismatch():
    assert literal_distance(atom("p", ZERO), atom("q", ZERO)) == 1
    assert literal_distance(atom("p", ZERO), atom("p", ZERO, ZERO)) == 1


# --- clause distance ---------------------------------------------------------


def brute_force_hausdorff(c: Clause, d: Clause) -> Fraction:
    """Independent oracle: explicit max-min over all literal pairings."""
    forward = max(
        min(literal_distance(l, m) for m in d.literals) for l in c.literals
    )
    backward = max(
        min(literal_distance(l, m) for l in c.literals) for m in d.literals
    )
    return max(forward, backward)


PI_1 = Clause((neg("p", ZERO), atom("p", numeral(2))))
PI_2_NEAR = Clause((neg("p", numeral(2)), atom("p", numeral(4))))
PI_2_FAR = Clause((atom("p", ZERO), atom("p", numeral(4))))


def test_clause_distance_identity():
    assert clause_distance(PI_1, PI_1) == 0


def test_clause_distance_same_shape_chain_clauses():
    # Frozen from the brute-force oracle below. (The closest same-sign pair
    # sits at 1/4, the negative literals at 1/2; the max-min lift gives 1/2.)
    expected = brute_force_hausdorff(PI_1, PI_2_NEAR)
    assert expected == Fraction(1, 2)
    assert clause_distance(PI_1, PI_2_NEAR) == expected


def test_clause_distance_unmatched_sign_is_maximal():
    # ~p(0) has no same-sign partner closer than 1.
    expected = brute_force_hausdorff(PI_1, PI_2_FAR)
    assert expected == 1
    assert clause_distance(PI_1, PI_2_FAR) == expected


def test_clause_distance_orders_candidate_clauses_for_lgg():
    # The pairing the generalizer relies on: the same-shape clause is nearer.
    assert clause_distance(PI_1, PI_2_NEAR) < clause_distance(PI_1, PI_2_FAR)


def test_clause_distance_rejects_empty():
    with pytest.raises(ValueError):
        clause_distance(Clause(()), PI_1)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 100_000))
def test_clause_distance_matches_oracle(seed):
    rng = random.Random(seed)
    c = Clause(random_literal(rng, SIG_UNARY, 3) for _ in range(rng.randint(1, 3)))
    d = Clause(random_literal(rng, SIG_UNARY, 3) for _ in range(rng.randint(1, 3)))
    assert clause_distance(c, d) == brute_force_hausdorff(c, d)


# --- priority pre-order ------------------------------------------------------


def test_priority_subterm_containment():
    assert priority_precedes(atom("p", ZERO), atom("p", numeral(2)))
    assert not priority_precedes(atom("p", numeral(4)), atom("p", numeral(2)))


def test_priority_reflexive():
    lit = atom("p", numeral(6))
    assert priority_precedes(lit, lit)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 100_000))
def test_priority_transitive(seed):
    rng = random.Random(seed)
    a = random_literal(rng, SIG_UNARY, 3)
    b = random_literal(rng, SIG_UNARY, 3)
    c = random_literal(rng, SIG_UNARY, 3)
    if priority_precedes(a, b) and priority_precedes(b, c):
        assert priority_precedes(a, c)


# --- simplicity --------------------------------------------------------------


def test_ascending_chain_rule_is_simple():
    (c,) = parse_program("p(s(s(X))) :- p(X).")
    assert is_simple(c)


def test_descending_chain_rule_is_not_simple():
    (c,) = parse_program("p(X) :- p(s(s(X))).")
    assert not is_simple(c)


def test_facts_are_vacuously_simple():
    (c,) = parse_program("p(s(s(0))).")
    assert is_simple(c)


def test_simple_program_requires_all_clauses():
    assert is_simple_program(parse_program("p(0).\np(s(s(X))) :- p(X)."))
    assert not is_simple_program(parse_program("p(0).\np(X) :- p(s(s(X)))."))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 100_000))
def test_simple_iff_every_body_literal_precedes_head(seed):
    rng = random.Random(seed)
    c = random_simple_clause(rng, SIG_UNARY, max_depth=3)
    assert is_simple(c) == all(priority_precedes(b, c.head) for b in c.body)
    assert is_simple(c)


def test_precedence_depth_pre_check_agrees_with_the_plain_subset_test():
    rng = random.Random(1962)
    # SIG_BINARY plus a zero-arity predicate, whose subterm set is empty.
    sig = (SIG_BINARY[0], SIG_BINARY[1] + (("z", 0),))
    rejected = zero_arity = 0
    for _ in range(4000):
        l, m = (random_atom(rng, sig, rng.randint(1, 4), rng.random() < 0.5) for _ in "lm")
        below = literal_subterms(l) <= literal_subterms(m)
        assert priority_precedes(l, m) == below, (l, m)
        assert _strictly_precedes(l, m) == (below and literal_subterms(l) != literal_subterms(m))
        rejected += literal_depth(l) > literal_depth(m)
        zero_arity += not l.args or not m.args
    assert rejected > 1000 and zero_arity > 500, (rejected, zero_arity)


def test_a_deeper_literal_precedes_nothing_and_builds_no_subterm_set(monkeypatch):
    def refused(lit):
        raise AssertionError(f"subterm set built for {lit}")

    monkeypatch.setattr(metric, "literal_subterms", refused)
    monkeypatch.setattr(learner, "literal_subterms", refused)
    deep, shallow = even_atom(8), even_atom(2)
    assert not priority_precedes(deep, shallow)
    assert not _strictly_precedes(deep, shallow)
