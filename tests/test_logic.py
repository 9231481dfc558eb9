import copy
import gc
import pickle
import sys
import threading
import weakref

import pytest

from hornlearn import (
    Clause,
    ExampleStream,
    Fn,
    HornProgram,
    Var,
    apply_to_clause,
    atom,
    fact,
    neg,
    parse_program,
    subterms,
)
from hornlearn import logic
from hornlearn.cases import even_atom, numeral
from hornlearn.logic import _interned, literal_subterms, term_variables
from hornlearn.syntax import render_clause

from conftest import cumulative


def s(t):
    return Fn("s", (t,))


ZERO = Fn("0")


def test_depth_counts_nodes():
    assert ZERO.depth == 1
    assert Var("X").depth == 1
    assert s(ZERO).depth == 2
    assert Fn("f", (s(ZERO), ZERO)).depth == 3


def test_subterms_of_constant():
    assert subterms(ZERO) == {ZERO}


def test_subterms_recursive_enumeration():
    assert subterms(s(s(ZERO))) == {s(s(ZERO)), s(ZERO), ZERO}


def test_literal_subterms_union_over_args():
    lit = atom("p", s(s(ZERO)))
    assert literal_subterms(lit) == {s(s(ZERO)), s(ZERO), ZERO}


def test_apply_substitution_ground_binding():
    c = Clause((atom("p", Var("X")),))
    assert apply_to_clause(c, {Var("X"): ZERO}) == Clause((atom("p", ZERO),))


def test_apply_substitution_instantiates_rule():
    c = Clause((neg("p", Var("X")), atom("p", s(s(Var("X"))))))
    got = apply_to_clause(c, {Var("X"): ZERO})
    assert got == Clause((neg("p", ZERO), atom("p", s(s(ZERO)))))


def test_apply_empty_substitution_is_identity():
    c = Clause((atom("p", Var("X")),))
    assert apply_to_clause(c, {}) == c


def test_apply_substitution_is_simultaneous():
    # X -> Y, Y -> 0 applied at once: no chained re-substitution of Y.
    c = Clause((atom("q", Var("X"), Var("Y")),))
    got = apply_to_clause(c, {Var("X"): Var("Y"), Var("Y"): ZERO})
    assert got == Clause((atom("q", Var("Y"), ZERO),))


def test_clause_head_body_view():
    c = Clause((neg("p", ZERO), atom("p", s(s(ZERO)))))
    assert c.is_definite
    assert c.head == atom("p", s(s(ZERO)))
    assert c.body == (atom("p", ZERO),)


def test_non_definite_clause_rejected_in_program():
    two_heads = Clause((atom("p", ZERO), atom("q", ZERO)))
    with pytest.raises(ValueError, match="non-definite"):
        HornProgram((two_heads,))


def test_stream_rejects_non_ground():
    with pytest.raises(ValueError, match="not ground"):
        ExampleStream((atom("p", Var("X")),))


def test_stream_rejects_negative():
    with pytest.raises(ValueError, match="not positive"):
        ExampleStream((neg("p", ZERO),))


def test_stream_cumulative_view_is_increasing():
    stream = ExampleStream(even_atom(2 * k) for k in range(4))
    for n in range(3):
        assert cumulative(stream, n) <= cumulative(stream, n + 1)
    assert cumulative(stream, 0) == {even_atom(0)}


def test_numeral_builder():
    assert numeral(0) == ZERO
    assert numeral(2) == s(s(ZERO))
    assert numeral(4).depth == 5


def test_fact_requires_ground_for_is_fact():
    assert fact(even_atom(0)).is_fact
    assert not Clause((atom("p", Var("X")),)).is_fact


def test_deep_terms_need_no_recursion():
    # Built bottom-up 10,000 levels deep, twice; nothing below walks the term
    # recursively (the parser and renderer still do).
    def chain(base):
        t = base
        for _ in range(10_000):
            t = s(t)
        return t

    t, u = chain(ZERO), chain(ZERO)
    assert t is u and t == u and hash(t) == hash(u)
    assert t != chain(s(ZERO))
    assert t.depth == 10_001 and t.ground
    assert len(subterms(t)) == 10_001 and ZERO in subterms(t)
    x = chain(Var("X"))
    assert x.depth == 10_001 and not x.ground
    assert term_variables(x) == {Var("X")}


def test_pickle_and_deepcopy_round_trip_to_the_interned_nodes():
    program = parse_program("p(0).\np(s(s(X))) :- p(X), q(f(X, 0)).")
    rule = next(c for c in program if not c.is_unit)
    lit = rule.head
    term = lit.args[0]
    for x in (term, lit, rule, program):
        for copied in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x), copy.copy(x)):
            assert copied == x
            assert hash(copied) == hash(x)
    assert pickle.loads(pickle.dumps(term)) is term
    assert copy.deepcopy(term) is term and copy.copy(term) is term
    assert pickle.loads(pickle.dumps(Var("X"))) is Var("X")
    loaded = pickle.loads(pickle.dumps(program))
    for c in loaded:
        original = next(d for d in program if d == c)
        for l in c:
            m = next(m for m in original if m == l)
            assert all(a is b for a, b in zip(l.args, m.args))


def test_unpickling_an_unreferenced_term_interns_it_again():
    data = pickle.dumps(Fn("pickled", (Fn("only_here"),)))
    gc.collect()
    assert ("only_here", ()) not in _interned
    t = pickle.loads(data)
    assert t is Fn("pickled", (Fn("only_here"),))
    assert t.depth == 2 and t.ground


def test_the_empty_clause_is_not_the_empty_program():
    # Both are empty sets; the program's key in the one table carries its class.
    empty_clause, empty_program = Clause(()), HornProgram()
    assert type(empty_clause) is Clause and type(empty_program) is HornProgram
    assert empty_clause is Clause([]) and empty_program is HornProgram(())
    assert empty_clause != empty_program
    for x in (empty_clause, empty_program):
        assert _interned[x._key]() is x and hash(x) == object.__hash__(x)
    assert len(empty_clause) == len(empty_program) == 0


def test_pickle_and_copy_give_back_the_literal_clause_and_program_nodes():
    program = parse_program("p(0).\np(s(s(X))) :- p(X), q(f(X, 0)).")
    rule = next(c for c in program if not c.is_unit)
    for x in (rule.head, rule.negatives[0], rule, program, Clause(()), HornProgram()):
        assert pickle.loads(pickle.dumps(x)) is x
        assert copy.copy(x) is x and copy.deepcopy(x) is x


def test_unreferenced_clauses_and_programs_leave_their_tables():
    lit = atom("only_in_this_clause", Var("X"), Fn("k"))
    c = Clause((lit, neg("q", Var("X"))))
    p = HornProgram((c,))
    render_clause(c)  # the stored text and views live on the node
    assert c.head is lit and c.unbound_head_variables == frozenset()
    assert _interned[(c.literals,)]() is c and _interned[(p.clauses, HornProgram)]() is p
    refs = [weakref.ref(x) for x in (lit, c, p)]
    del lit, c, p
    gc.collect()
    assert [r() for r in refs] == [None, None, None]
    assert not any(
        isinstance(k[0], frozenset) and any("only_in_this_clause" in repr(x) for x in k[0])
        for k in list(_interned.keys())
    )


def test_a_node_in_its_subterm_cycle_is_found_until_collected_then_rebuilt():
    key = ("cycle_only", (Fn("cycle_leaf"),))
    gc.disable()
    try:
        t = Fn(*key)
        subterms(t)  # the stored set refers back to t: only the collector frees it
        old_id, dead = id(t), _interned[key]
        del t
        # Unreachable but not yet collected: an equal call still finds it.
        assert id(Fn(*key)) == old_id
        gc.collect()
        assert dead() is None and key not in _interned
        # A dead entry whose callback has not run yet is replaced on a miss,
        # and the late callback leaves the new entry in place.
        _interned[key] = dead
        fresh = Fn(*key)
        assert _interned[key]() is fresh and not hasattr(fresh, "_subterms")
        logic._drop(dead)
        assert _interned[key]() is fresh and Fn(*key) is fresh
    finally:
        gc.enable()


def test_threads_reading_the_views_of_fresh_clauses_get_equal_values():
    def build(i: int) -> Clause:
        x, y = Var(f"ViewX{i}"), Var(f"ViewY{i}")
        return Clause((atom(f"view{i}", x, y), neg("q", x), neg("r", Fn(f"c{i}"), x)))

    def views(c: Clause) -> tuple:
        return c.head, c.body, c.negatives, c.unbound_head_variables

    barrier = threading.Barrier(8)
    results: list = [None] * 8

    def run(k: int) -> None:
        barrier.wait()
        # Every thread builds the same fresh nodes, so their views race.
        results[k] = [views(build(i)) for i in range(300)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for i, seen in enumerate(zip(*results)):
        c = build(i)
        expected = (
            atom(f"view{i}", Var(f"ViewX{i}"), Var(f"ViewY{i}")),
            tuple(l.atom() for l in c.literals if not l.positive),
            tuple(l for l in c.literals if not l.positive),
            frozenset((Var(f"ViewY{i}"),)),
        )
        assert all(v == expected for v in seen), i


def test_a_view_that_raises_raises_on_every_read():
    two_heads = Clause((atom("p", ZERO), atom("q", ZERO)))
    for _ in range(3):
        with pytest.raises(ValueError, match="not definite"):
            two_heads.head
        with pytest.raises(ValueError, match="not definite"):
            two_heads.body
    assert "head" not in vars(two_heads) and "body" not in vars(two_heads)


def test_threads_building_the_same_clauses_get_one_node_each():
    def build() -> list:
        # Fresh nodes all the way down, so every thread misses the tables.
        out = []
        for i in range(300):
            x = Var(f"Thread{i}")
            c = Clause((atom(f"race{i}", x, Fn(f"c{i}")), neg(f"q{i}", x)))
            out += [c, HornProgram((c, fact(atom(f"race{i}", Fn(f"c{i}"), Fn(f"c{i}")))))]
        return out

    barrier = threading.Barrier(8)
    results: list = [None] * 8

    def run(k: int) -> None:
        barrier.wait()
        results[k] = build()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for nodes in zip(*results):
        assert len({id(n) for n in nodes}) == 1
    assert results[0] == build()


def test_a_non_definite_program_is_refused_every_time():
    two_heads = Clause((atom("p", ZERO), atom("q", ZERO)))
    clauses = frozenset((two_heads, fact(atom("r", ZERO))))
    for _ in range(3):
        with pytest.raises(ValueError, match="non-definite"):
            HornProgram(clauses)
        assert (clauses, HornProgram) not in _interned
