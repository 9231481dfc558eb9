import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hornlearn import (
    Clause,
    Fn,
    HornProgram,
    Literal,
    PairTable,
    SaturationPolicy,
    Var,
    apply_to_clause,
    apply_to_term,
    atom,
    clause_distance,
    fact,
    generalize,
    lgg_clause_sets,
    lgg_clauses,
    lgg_literals,
    lgg_terms,
    neg,
    parse_program,
    reduce_program,
    saturate,
    theta_subsumes,
)
from hornlearn.cases import numeral
from hornlearn.generalize import _literal_lggs
from hornlearn.learner import _below, _keep_learned
from hornlearn.logic import term_variables
from hornlearn.semantics import least_model_bounded
from hornlearn.subsumption import clause_variant_equal, reduce_clause
from hornlearn.syntax import render_clause

from conftest import (
    SIG_BINARY,
    SIG_UNARY,
    random_atom,
    random_clause,
    random_definite_clause,
    random_literal,
    random_simple_clause,
    random_simple_program,
    random_term,
)

ZERO = Fn("0")


def s(t):
    return Fn("s", (t,))


PI_1 = Clause((neg("p", ZERO), atom("p", numeral(2))))
PI_2_A = Clause((atom("p", ZERO), atom("p", numeral(4))))
PI_2_B = Clause((neg("p", numeral(2)), atom("p", numeral(4))))
GAMMA_1 = Clause((neg("p", numeral(4)), atom("p", numeral(2))))
GAMMA_2_A = Clause((atom("p", numeral(4)), atom("p", ZERO)))
GAMMA_2_B = Clause((neg("p", numeral(2)), atom("p", ZERO)))


# --- term and literal lgg ----------------------------------------------------


def test_lgg_equal_terms_no_table_entry():
    table = PairTable()
    assert lgg_terms(numeral(3), numeral(3), table) == numeral(3)
    assert not table.pairs


def test_lgg_mismatched_roots_is_fresh_variable():
    table = PairTable()
    assert lgg_terms(ZERO, numeral(2), table) == Var("X0")


def test_lgg_shared_table_reuses_pair_variable():
    table = PairTable()
    got = lgg_terms(numeral(2), numeral(4), table)
    assert got == s(s(Var("X0")))
    assert table.pairs == {(ZERO, numeral(2)): Var("X0")}


def test_lgg_pair_table_is_order_sensitive():
    table = PairTable()
    lgg_terms(ZERO, numeral(2), table)
    lgg_terms(numeral(2), ZERO, table)
    assert len(table.pairs) == 2


def test_lgg_literals_sign_mismatch_undefined():
    assert lgg_literals(atom("p", ZERO), neg("p", ZERO), PairTable()) is None


def test_lgg_literals_predicate_mismatch_undefined():
    assert lgg_literals(atom("p", Fn("a")), atom("q", Fn("a")), PairTable()) is None


def test_lgg_literals_shared_table_across_literals():
    table = PairTable()
    assert lgg_literals(neg("p", ZERO), neg("p", numeral(2)), table) == neg("p", Var("X0"))
    # The same ordered pair later resolves to the same variable.
    assert lgg_terms(ZERO, numeral(2), table) == Var("X0")


def test_lgg_avoids_capturing_input_variables():
    c = Clause((atom("p", Var("X0"), ZERO),))
    d = Clause((atom("p", Var("X0"), s(ZERO)),))
    g = lgg_clauses(c, d)
    (lit,) = g.literals
    assert lit.args[0] == Var("X0")
    assert isinstance(lit.args[1], Var) and lit.args[1] != Var("X0")


# --- clause lgg --------------------------------------------------------------


def test_lgg_ascending_chain_clauses():
    g = lgg_clauses(PI_1, PI_2_B)
    assert g == Clause((neg("p", Var("X0")), atom("p", s(s(Var("X0"))))))


def test_lgg_descending_chain_clauses():
    g = lgg_clauses(GAMMA_1, GAMMA_2_B)
    assert g == Clause((atom("p", Var("X0")), neg("p", s(s(Var("X0"))))))


def test_lgg_single_shared_variable_across_literals():
    # The pair table's injectivity is checked by the acceptance suite's
    # criterion 7.
    g = lgg_clauses(PI_1, PI_2_B)
    assert len(literal_variables_of(g)) == 1


def literal_variables_of(c: Clause):
    out = set()
    for l in c.literals:
        out |= term_variables(l.term)
    return out


def test_lgg_clause_with_itself_is_variant_equal():
    for c in (PI_1, GAMMA_1, Clause((neg("p", ZERO), neg("p", numeral(2)), atom("q", ZERO)))):
        assert clause_variant_equal(lgg_clauses(c, c), c)


def test_lgg_subsumes_both_inputs():
    g = lgg_clauses(PI_1, PI_2_B)
    assert theta_subsumes(g, PI_1)[0]
    assert theta_subsumes(g, PI_2_B)[0]


def test_lgg_commutative_up_to_renaming():
    assert clause_variant_equal(lgg_clauses(PI_1, PI_2_B), lgg_clauses(PI_2_B, PI_1))


def test_lgg_no_common_predicate_is_empty():
    g = lgg_clauses(Clause((atom("p", ZERO),)), Clause((atom("q", ZERO),)))
    assert not g.literals


# --- clause-set lgg ----------------------------------------------------------


def test_clause_set_lgg_picks_nearest_candidate():
    got = lgg_clause_sets({PI_1}, {PI_2_A, PI_2_B})
    assert len(got) == 1
    assert clause_variant_equal(next(iter(got)), lgg_clauses(PI_1, PI_2_B))


def test_clause_set_lgg_descending_trace():
    got = lgg_clause_sets({GAMMA_1}, {GAMMA_2_A, GAMMA_2_B})
    assert len(got) == 1
    assert clause_variant_equal(next(iter(got)), lgg_clauses(GAMMA_1, GAMMA_2_B))


def test_clause_set_lgg_identity():
    got = lgg_clause_sets({PI_1}, {PI_1})
    (g,) = got
    assert clause_variant_equal(g, PI_1)


def oracle_nearest_lggs(a, b):
    """The pairing lgg_clause_sets replaced: b sorted by canonical text once,
    then the first clause at the least distance; every nonempty reduced lgg."""
    b_sorted = sorted(b, key=render_clause)
    out = set()
    for c in a:
        g = lgg_clauses(c, min(b_sorted, key=lambda d: clause_distance(c, d)))
        if g.literals:
            out.add(g)
    return frozenset(out)


def oracle_lgg_clause_sets(a, b):
    """oracle_nearest_lggs without the definite clauses that fail range
    restriction, dropped after reduction."""
    return frozenset(g for g in oracle_nearest_lggs(a, b) if not g.is_definite or g.range_restricted)


def test_clause_set_lgg_equals_sorted_min_oracle(monkeypatch):
    rng = random.Random(1962)
    rendered = []
    monkeypatch.setattr(
        generalize, "render_clause", lambda c: rendered.append(c) or render_clause(c)
    )
    with_ties = 0
    for _ in range(300):
        a = {random_definite_clause(rng, SIG_UNARY, 3) for _ in range(rng.randint(1, 3))}
        b = {random_definite_clause(rng, SIG_UNARY, 3) for _ in range(rng.randint(1, 4))}
        if rng.random() < 0.3:
            # A variant ties with its original at every distance.
            c = next(iter(b))
            b.add(apply_to_clause(c, {v: Var(v.name + "1") for v in c.variables()}))
        rendered.clear()
        assert lgg_clause_sets(a, b) == oracle_lgg_clause_sets(a, b), (a, b)
        # Only clauses tied at the least distance are rendered, to break the tie.
        tied = []
        for c in a:
            distance = {d: clause_distance(c, d) for d in b}
            nearest = [d for d in b if distance[d] == min(distance.values())]
            tied += nearest if len(nearest) > 1 else []
        assert Counter(rendered) == Counter(tied), (a, b)
        with_ties += bool(tied)
    assert with_ties > 50, with_ties


@pytest.mark.parametrize("sig,depth", [(SIG_UNARY, 3), (SIG_BINARY, 2)])
def test_reduction_keeps_definite_clauses_definite_and_range_restriction_both_ways(sig, depth):
    rng = random.Random(1970)
    unrestricted = reduced = 0
    for _ in range(400):
        c = random_definite_clause(rng, sig, depth, max_body=3)
        if rng.random() < 0.5:
            # A body literal with a variable bound: redundant beside its original.
            lit = rng.choice([c.head] + list(c.negatives))
            theta = {v: random_atom(rng, sig, depth).args[0] for v in term_variables(lit.term)}
            c = Clause(c.literals | {Literal(False, apply_to_term(lit.term, theta))})
        r = reduce_clause(c)
        assert r.is_definite and r.range_restricted == c.range_restricted, c
        unrestricted += not c.range_restricted
        reduced += r != c
    assert unrestricted > 50 and reduced > 40, (unrestricted, reduced)


@pytest.mark.parametrize("sig,depth", [(SIG_UNARY, 3), (SIG_BINARY, 2)])
def test_learner_drops_unrestricted_lggs_before_reducing_them(sig, depth):
    # lgg_clause_sets' filter, asked before reduction, leaves the learner
    # keeping what it keeps from every reduced lgg. b holds saturation-like
    # clauses, some with two heads.
    rng = random.Random(2002)
    skipped = 0
    for _ in range(300):
        a = {random_definite_clause(rng, sig, depth) for _ in range(rng.randint(1, 3))}
        b = {random_definite_clause(rng, sig, depth) for _ in range(rng.randint(1, 2))}
        b |= {random_clause(rng, sig, depth, max_literals=4) for _ in range(rng.randint(0, 2))}
        early = lgg_clause_sets(a, b)
        late = oracle_nearest_lggs(a, b)
        assert _keep_learned(early) == _keep_learned(late), (a, b)
        simple = [frozenset(_below(c, c.head) if c.is_definite else c for c in s) for s in (early, late)]
        assert _keep_learned(simple[0]) == _keep_learned(simple[1]), (a, b)
        skipped += len(late) - len(early)
    assert skipped > 50, skipped


def test_clause_set_lgg_rejects_empty_sets():
    with pytest.raises(ValueError):
        lgg_clause_sets(set(), {PI_1})


def test_clause_set_lgg_rejects_empty_clauses():
    # With one clause in b no distance is computed, and distance is what
    # refused an empty clause.
    for a, b in [({Clause(())}, {PI_1}), ({PI_1}, {Clause(())}), ({PI_1}, {PI_1, Clause(())})]:
        with pytest.raises(ValueError, match="nonempty clauses"):
            lgg_clause_sets(a, b)


def test_clause_set_lgg_pairs_with_a_lone_clause_without_a_distance(monkeypatch):
    rng = random.Random(1001)
    monkeypatch.setattr(generalize, "clause_agreement", None)
    for _ in range(50):
        a = {random_definite_clause(rng, SIG_UNARY, 3) for _ in range(rng.randint(1, 3))}
        d = random_definite_clause(rng, SIG_UNARY, 3)
        assert lgg_clause_sets(a, {d}) == oracle_lgg_clause_sets(a, {d})


def oracle_keeps(c, d):
    """The keep test lgg_clause_sets replaced: build every defined literal
    lgg, then keep the lgg if it is nonempty and not definite-unrestricted."""
    g = _literal_lggs(c, d, PairTable())
    return bool(g.literals) and (not g.is_definite or g.range_restricted)


def random_lgg_operand(rng, sig, depth):
    """A definite clause, a clause of any signs (headless or many-headed) or
    a unit clause."""
    draw = rng.random()
    if draw < 0.4:
        return random_definite_clause(rng, sig, depth, max_body=3)
    if draw < 0.8:
        return random_clause(rng, sig, depth, max_literals=4)
    return Clause((random_literal(rng, sig, depth, ground=rng.random() < 0.5),))


def random_lgg_pair(rng, sig, depth):
    """Two random operands, or in a quarter of the draws two ground instances
    of one clause whose body reuses its head's subterms, as two saturations
    of one background are."""
    if rng.random() < 0.75:
        return random_lgg_operand(rng, sig, depth), random_lgg_operand(rng, sig, depth)
    c = random_simple_clause(rng, sig, depth, max_body=3)
    return tuple(
        apply_to_clause(c, {v: random_term(rng, sig[0], 2) for v in c.variables()})
        for _ in range(2)
    )


@pytest.mark.parametrize("sig,depth", [(SIG_UNARY, 4), (SIG_BINARY, 3)], ids=["unary", "binary"])
def test_keep_decision_on_the_pairs_equals_building_then_filtering(monkeypatch, sig, depth):
    # Reduction is left out, so lgg_clause_sets returns the lgg it built.
    monkeypatch.setattr(generalize, "reduce_clause", lambda g: g)
    rng = random.Random(1970 + depth)
    outcomes = Counter()
    for _ in range(5_000):
        c, d = random_lgg_pair(rng, sig, depth)
        g = _literal_lggs(c, d, PairTable())
        keep = oracle_keeps(c, d)
        assert generalize._keeps(generalize._literal_pairs(c, d)) == keep, (c, d)
        assert lgg_clause_sets({c}, {d}) == (frozenset((g,)) if keep else frozenset()), (c, d)
        outcomes[keep, bool(g.literals) and g.is_definite] += 1
    # Kept and dropped definite lggs, kept non-definite ones and empty ones.
    assert len(outcomes) == 4 and min(outcomes.values()) > 300, outcomes


def test_keep_decision_on_deep_chains_builds_nothing():
    # lgg_terms recurses once per level; the keep walk does not, so a dropped
    # lgg of two 10,000-deep chains is decided without a RecursionError.
    deep, deeper = ZERO, s(ZERO)
    for _ in range(10_000):
        deep, deeper = s(deep), s(deeper)
    c, d = fact(atom("p", deep)), fact(atom("p", deeper))
    assert lgg_clause_sets({c}, {d}) == frozenset()
    assert not generalize._keeps(generalize._literal_pairs(c, d))


def test_a_pair_over_the_cap_is_refused_before_its_keep_test(monkeypatch):
    # 1 head pair and 21 x 21 body pairs; the head variable is bound by no
    # body pair, so the lgg would be dropped, yet the cap refuses it first.
    c = Clause([atom("p", Var("Y"))] + [neg("q", numeral(k)) for k in range(21)])
    d = Clause([atom("p", ZERO)] + [neg("q", s(numeral(k))) for k in range(21)])
    with pytest.raises(ValueError, match=r"lgg would pair 442 literals .*\(cap 420\)"):
        lgg_clause_sets({c}, {d})
    monkeypatch.setattr(generalize, "_LGG_CAP", 442)
    assert lgg_clause_sets({c}, {d}) == frozenset()
    assert not oracle_keeps(c, d)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 100_000))
def test_lgg_properties_random(seed):
    rng = random.Random(seed)
    # Self-lgg is variant-equal only for reduced clauses (a reducible clause's
    # self-lgg is its reduction), so the corpus draws reduced clauses.
    c = reduce_clause(random_definite_clause(rng, SIG_UNARY, max_depth=3))
    d = reduce_clause(random_definite_clause(rng, SIG_UNARY, max_depth=3))
    g = lgg_clauses(c, d)
    if g.literals:
        assert theta_subsumes(g, c)[0]
        assert theta_subsumes(g, d)[0]
    assert clause_variant_equal(lgg_clauses(c, c), c)


# --- saturation --------------------------------------------------------------


def test_saturate_fact_only_background():
    sigma = saturate(
        HornProgram((fact(atom("p", ZERO)),)),
        atom("p", numeral(2)),
        SaturationPolicy.PAPER_TRACE,
        8,
    )
    assert sigma == frozenset((PI_1,))


def test_saturate_rule_background_expands_to_two_clauses():
    background = HornProgram((fact(atom("p", ZERO)), PI_1))
    sigma = saturate(background, atom("p", numeral(4)), SaturationPolicy.PAPER_TRACE, 8)
    assert sigma == frozenset((PI_2_A, PI_2_B))


def test_saturate_descending_background():
    background = HornProgram((fact(atom("p", numeral(4))), GAMMA_1))
    sigma = saturate(background, atom("p", ZERO), SaturationPolicy.PAPER_TRACE, 8)
    assert sigma == frozenset((GAMMA_2_A, GAMMA_2_B))


def test_saturate_empty_background_is_unit():
    sigma = saturate(HornProgram(), atom("p", ZERO), SaturationPolicy.PAPER_TRACE, 4)
    assert sigma == frozenset((Clause((atom("p", ZERO),)),))


def test_saturate_every_clause_contains_the_example():
    background = HornProgram((fact(atom("p", ZERO)), PI_1))
    e = atom("p", numeral(4))
    for policy in SaturationPolicy:
        for c in saturate(background, e, policy, 8):
            assert e in c.literals
    # Fact-only backgrounds keep e as the only positive literal.
    for c in saturate(HornProgram((fact(atom("p", ZERO)),)), atom("q", ZERO), SaturationPolicy.PAPER_TRACE, 4):
        assert c.positives == (atom("q", ZERO),)


def test_saturate_ground_policy_uses_bounded_model():
    background = parse_program("p(0).\np(s(s(X))) :- p(X).")
    sigma = saturate(background, atom("q", ZERO), SaturationPolicy.GROUND_ATOMS, 5)
    (c,) = sigma
    model = least_model_bounded(background, 5)
    assert set(c.negatives) == {a.negated() for a in model.atoms}
    assert c.positives == (atom("q", ZERO),)


def test_saturate_ground_policy_widens_the_signature_with_the_example():
    # r(Y). grounds over the example's constant, as coverage checks do.
    background = parse_program("r(Y).\nq(X) :- r(X).")
    e = atom("p", Fn("a"))
    (c,) = saturate(background, e, SaturationPolicy.GROUND_ATOMS, 3)
    assert c == Clause([e, neg("q", Fn("a")), neg("r", Fn("a"))])


def test_saturate_tautologies_removed():
    # Opposed rules make one expansion choice produce l and ~l together.
    background = parse_program("p(s(0)) :- p(0).\np(0) :- p(s(0)).")
    sigma = saturate(background, atom("q", ZERO), SaturationPolicy.PAPER_TRACE, 4)
    assert all(not c.is_tautology() for c in sigma)
    assert len(sigma) == 2  # four choices, two tautologies dropped


def test_saturate_covered_example_returns_its_saturation():
    # Coverage is the caller's question; saturate answers only its own.
    background = parse_program("p(0).")
    e = atom("p", ZERO)
    sigma = saturate(background, e, SaturationPolicy.PAPER_TRACE, 4)
    assert sigma == frozenset((Clause([e, e.negated()]),))
    sigma = saturate(background, e, SaturationPolicy.GROUND_ATOMS, 4)
    assert sigma == frozenset((Clause([e, e.negated()]),))


def test_saturate_refuses_an_expansion_over_the_cap():
    # 14 three-literal rules: 3**14 choices, refused before enumeration.
    background = parse_program(
        "".join(f"q{i}(X) :- r{i}(X), t{i}(X).\n" for i in range(14))
    )
    with pytest.raises(ValueError, match="--policy ground"):
        saturate(background, atom("p", ZERO), SaturationPolicy.PAPER_TRACE, 4)
    sigma = saturate(background, atom("p", ZERO), SaturationPolicy.GROUND_ATOMS, 4)
    assert sigma == frozenset((Clause([atom("p", ZERO)]),))


def test_saturate_rejects_non_ground_example():
    with pytest.raises(ValueError):
        saturate(HornProgram(), atom("p", Var("X")), SaturationPolicy.PAPER_TRACE, 4)


# --- program reduction -------------------------------------------------------


def test_reduce_removes_subsumed_ground_rule():
    p = parse_program("p(0).\np(s(s(0))) :- p(0).\np(s(s(X))) :- p(X).")
    got = reduce_program(p, 8)
    assert got == parse_program("p(0).\np(s(s(X))) :- p(X).")


def test_reduce_keeps_newest_underivable_fact():
    p = parse_program("p(s(s(s(s(0))))).\np(s(s(s(s(s(s(s(s(s(s(0))))))))))).\np(X) :- p(s(s(X))).")
    got = reduce_program(p, 12)
    assert got == parse_program("p(s(s(s(s(s(s(s(s(s(s(0))))))))))).\np(X) :- p(s(s(X))).")


def test_reduce_fixed_point_on_irredundant_program():
    p = parse_program("p(0).\nq(s(0)).\np(s(s(X))) :- p(X).")
    assert reduce_program(p, 8) == p


def test_reduce_removes_derivable_fact():
    p = parse_program("p(0).\np(s(s(0))).\np(s(s(X))) :- p(X).")
    got = reduce_program(p, 8)
    assert got == parse_program("p(0).\np(s(s(X))) :- p(X).")


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 100_000))
def test_reduce_preserves_bounded_model(seed):
    rng = random.Random(seed)
    # A ground fact keeps the signature populated with a constant, so unit
    # variable-headed clauses in the draw stay evaluable.
    p = random_simple_program(rng, SIG_UNARY, max_depth=3, max_clauses=3).with_clauses(
        (fact(atom("p", ZERO)),)
    )
    depth_bound = 6
    # Reduction may drop every clause naming a constant: p's literals keep
    # its symbols in both languages.
    pinned = frozenset(l for c in p for l in c.literals)
    before = least_model_bounded(p, depth_bound, pinned).atoms
    after = least_model_bounded(reduce_program(p, depth_bound), depth_bound, pinned).atoms
    assert before == after
