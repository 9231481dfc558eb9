import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hornlearn import (
    ParseError,
    parse_example_stream,
    parse_program,
    parse_term,
    render_clause,
    render_literal,
    render_program,
    render_term,
)
from hornlearn.logic import Clause, Fn, Var, atom, neg

from conftest import SIG_UNARY, random_definite_clause, random_horn_program


def test_parse_fact():
    p = parse_program("p(0).")
    (c,) = list(p)
    assert c.is_fact
    assert c.head == atom("p", Fn("0"))


def test_parse_rule_head_and_body():
    p = parse_program("p(s(s(X))) :- p(X).")
    (c,) = list(p)
    assert c.head == atom("p", Fn("s", (Fn("s", (Var("X"),)),)))
    assert c.body == (atom("p", Var("X")),)
    assert render_program(p) == "p(s(s(X0))) :- p(X0)."


def test_disjunctive_head_rejected():
    with pytest.raises(ParseError, match="disjunctive heads"):
        parse_program("p(X) ; q(X).")


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_program("p(0).\nq(,).")
    assert err.value.line == 2
    assert err.value.column == 3


def test_comments_and_whitespace_ignored():
    p = parse_program("% a chain\np(0).  % base\n\np(s(s(X))) :- p(X).\n")
    assert len(p) == 2


def test_stream_parse_order_and_ground_check():
    s = parse_example_stream("p(0).\np(s(s(0))).\n")
    assert [render_term(a.args[0]) for a in s] == ["0", "s(s(0))"]
    with pytest.raises(ParseError, match="not ground"):
        parse_example_stream("p(X).\n")


def test_multi_argument_and_nested_terms():
    t = parse_term("f(g(X, 0), s(s(Y)))")
    assert render_term(t) == "f(g(X, 0), s(s(Y)))"


def test_render_program_canonical_order_and_naming():
    p = parse_program("p(s(s(Zeta))) :- p(Zeta).\np(0).")
    assert render_program(p) == "p(0).\np(s(s(X0))) :- p(X0)."


def test_render_empty_program():
    assert render_program(parse_program("")) == ""


def test_render_parse_render_idempotent_on_swapped_names():
    # First-occurrence renaming must be stable under reparsing even when the
    # original names would order the body differently.
    c = Clause(
        (
            atom("p", Var("Y"), Var("X")),
            neg("q", Var("X")),
            neg("q", Var("Y")),
        )
    )
    once = render_clause(c)
    again = render_clause(next(iter(parse_program(once))))
    assert once == again


def test_variant_invariance_of_clause_rendering():
    c = parse_program("p(s(X)) :- q(X, Y).")
    d = parse_program("p(s(Alpha)) :- q(Alpha, Beta).")
    assert render_program(c) == render_program(d)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10_000))
def test_round_trip_random_programs(seed):
    rng = random.Random(seed)
    p = random_horn_program(rng, SIG_UNARY, max_depth=5, max_clauses=3)
    text = render_program(p)
    assert render_program(parse_program(text)) == text


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10_000))
def test_clause_rendering_idempotent(seed):
    rng = random.Random(seed)
    c = random_definite_clause(rng, SIG_UNARY, max_depth=4, max_body=3)
    once = render_clause(c)
    reparsed = parse_program(once)
    assert render_clause(next(iter(reparsed))) == once


def chain(n: int, base):
    for _ in range(n):
        base = Fn("s", (base,))
    return base


def test_terms_literals_and_clauses_render_at_depth_2000():
    n = 2000
    x, y = Var("X"), Var("Y")
    assert render_term(chain(n, Fn("0"))) == "s(" * n + "0" + ")" * n
    assert render_term(chain(n, x)) == "s(" * n + "X" + ")" * n
    assert render_literal(neg("p", chain(n, x))) == "p(" + "s(" * n + "X" + ")" * n + ")"
    rule = Clause([atom("p", chain(n, x)), neg("p", x)])
    assert render_clause(rule) == "p(" + "s(" * n + "X0" + ")" * n + ") :- p(X0)."
    # Variables are numbered in left-to-right first occurrence, below and
    # beside a deep ground subterm alike.
    mixed = Clause([
        atom("q", chain(n, Fn("f", (y, chain(n, Fn("0"))))), chain(n, x)),
        neg("r", x, y),
    ])
    assert render_clause(mixed) == (
        "q(" + "s(" * n + "f(X0, " + "s(" * n + "0" + ")" * n + ")" + ")" * n + ", "
        + "s(" * n + "X1" + ")" * n + ") :- r(X1, X0)."
    )
