import random
from itertools import permutations

from hypothesis import given, settings
from hypothesis import strategies as st

from hornlearn import Clause, Fn, Var, apply_to_clause, atom, neg, theta_subsumes
from hornlearn.logic import term_variables
from hornlearn.subsumption import clause_variant_equal, reduce_clause

from conftest import SIG_UNARY, random_clause

ZERO = Fn("0")


def s(t):
    return Fn("s", (t,))


PI_1 = Clause((neg("p", ZERO), atom("p", s(s(ZERO)))))
RULE_UP = Clause((neg("p", Var("X")), atom("p", s(s(Var("X"))))))
RULE_DOWN = Clause((neg("p", s(s(Var("X")))), atom("p", Var("X"))))


def test_subsumes_ground_instance_with_witness():
    ok, theta = theta_subsumes(RULE_UP, PI_1)
    assert ok
    assert theta == {Var("X"): ZERO}
    assert apply_to_clause(RULE_UP, theta).literals <= PI_1.literals


def test_self_subsumption_identity_witness():
    ok, theta = theta_subsumes(RULE_UP, RULE_UP)
    assert ok
    assert apply_to_clause(RULE_UP, theta).literals <= RULE_UP.literals


def test_no_subsumption_across_predicates():
    assert not theta_subsumes(Clause((atom("p", Var("X")),)), Clause((atom("q", Fn("a")),)))[0]


def test_subsumption_distinguishes_rule_directions():
    assert not theta_subsumes(RULE_UP, RULE_DOWN)[0]
    assert not theta_subsumes(RULE_DOWN, RULE_UP)[0]


def test_variant_equal_renaming():
    a = Clause((neg("p", Var("X")), atom("p", s(s(Var("X"))))))
    b = Clause((neg("p", Var("Y")), atom("p", s(s(Var("Y"))))))
    assert clause_variant_equal(a, b)


def test_variant_distinguishes_case_directions():
    assert not clause_variant_equal(RULE_UP, RULE_DOWN)


def test_variant_reflexive():
    assert clause_variant_equal(PI_1, PI_1)


def _brute_force_variant(c: Clause, d: Clause) -> bool:
    """Oracle: search all bijective variable renamings."""
    cv = sorted(literal_variables_of(c), key=lambda v: v.name)
    dv = sorted(literal_variables_of(d), key=lambda v: v.name)
    if len(cv) != len(dv) or len(c.literals) != len(d.literals):
        return False
    for perm in permutations(dv):
        theta = dict(zip(cv, perm))
        if apply_to_clause(c, theta).literals == d.literals:
            return True
    return False


def literal_variables_of(c: Clause):
    out = set()
    for l in c.literals:
        out |= term_variables(l.term)
    return out


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 100_000))
def test_variant_equality_matches_bijection_oracle(seed):
    rng = random.Random(seed)
    c = random_clause(rng, SIG_UNARY, max_depth=3, max_literals=3)
    d = random_clause(rng, SIG_UNARY, max_depth=3, max_literals=3)
    assert clause_variant_equal(c, d) == _brute_force_variant(c, d)
    # And equivalence-relation sanity on the same draw.
    assert clause_variant_equal(c, c)
    assert clause_variant_equal(c, d) == clause_variant_equal(d, c)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 100_000))
def test_subsumption_reflexive_and_witness_sound(seed):
    rng = random.Random(seed)
    c = random_clause(rng, SIG_UNARY, max_depth=3, max_literals=3)
    d = random_clause(rng, SIG_UNARY, max_depth=3, max_literals=3)
    assert theta_subsumes(c, c)[0]
    ok, theta = theta_subsumes(c, d)
    if ok:
        assert apply_to_clause(c, theta).literals <= d.literals


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 100_000))
def test_subsumption_transitive(seed):
    rng = random.Random(seed)
    a = random_clause(rng, SIG_UNARY, max_depth=2, max_literals=2)
    b = random_clause(rng, SIG_UNARY, max_depth=2, max_literals=2)
    c = random_clause(rng, SIG_UNARY, max_depth=2, max_literals=2)
    if theta_subsumes(a, b)[0] and theta_subsumes(b, c)[0]:
        assert theta_subsumes(a, c)[0]


def test_reduce_clause_drops_redundant_generalized_literal():
    # p(X) is redundant next to p(0) under the X -> 0 instantiation.
    c = Clause((neg("p", Var("X")), neg("p", ZERO), atom("q", ZERO)))
    reduced = reduce_clause(c)
    assert reduced.literals == {neg("p", ZERO), atom("q", ZERO)}


def test_reduce_clause_keeps_irreducible():
    assert reduce_clause(RULE_UP) == RULE_UP
