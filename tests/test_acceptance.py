"""Acceptance gate: every criterion runs at its stated tolerance and prints
one PASS/FAIL line. Run with `pytest tests/test_acceptance.py -v -s`."""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import permutations

from hornlearn import (
    Clause,
    ExampleStream,
    Fn,
    PairTable,
    System,
    Verdict,
    atom,
    clause_variant_equal,
    config_for_stream,
    convergence_report,
    fact,
    least_model_bounded,
    lgg_clause_sets,
    lgg_clauses,
    neg,
    parse_program,
    render_program,
    run_stream,
    term_distance,
    theta_subsumes,
)
from hornlearn.cases import even_ascending_stream, even_atom, even_reordered_stream, numeral
from hornlearn.generalize import _literal_lggs
from hornlearn.logic import Var, term_variables
from hornlearn.metric import is_simple_program
from hornlearn.subsumption import program_variant_equal, reduce_clause

from conftest import (
    SIG_BINARY,
    SIG_UNARY,
    random_definite_clause,
    random_simple_program,
    random_stream,
    random_term,
)

ZERO = Fn("0")
RULE_UP = "p(s(s(X0))) :- p(X0)."
RULE_DOWN = "p(X0) :- p(s(s(X0)))."


def fact_text(n: int) -> str:
    return "p(" + "s(" * n + "0" + ")" * n + ")."


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {number} PASS: {description}")


def test_criterion_1_ascending_golden_trace():
    with criterion(1, "ascending-stream golden trace and chain-clause lgg"):
        start = time.perf_counter()
        stream = even_ascending_stream(11)  # p(0) .. p(s^20(0))
        cfg = config_for_stream(stream, System.GOLEM)
        records = run_stream(stream, cfg)

        assert render_program(records[0].program) == fact_text(0)
        assert render_program(records[1].program) == (
            fact_text(0) + "\np(s(s(0))) :- p(0)."
        )
        stable = fact_text(0) + "\n" + RULE_UP
        for stage in range(2, 11):
            assert render_program(records[stage].program) == stable, f"stage {stage}"

        pi_1 = Clause((neg("p", ZERO), atom("p", numeral(2))))
        pi_2 = {
            Clause((atom("p", ZERO), atom("p", numeral(4)))),
            Clause((neg("p", numeral(2)), atom("p", numeral(4)))),
        }
        (g,) = lgg_clause_sets({pi_1}, pi_2)
        assert clause_variant_equal(
            g, Clause((neg("p", Var("X")), atom("p", numeral(2, base=Var("X")))))
        )
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"runtime {elapsed:.2f}s"


def test_criterion_2_reordered_golden_trace():
    with criterion(2, "reordered-stream golden trace and limit-incorrectness report"):
        start = time.perf_counter()
        stream = even_reordered_stream(12)
        cfg = config_for_stream(stream, System.GOLEM)
        records = run_stream(stream, cfg)

        # Stages 0-2 as displayed; stages 3k+i (k>=1) rotate the retained
        # fact to s^(6k+4-2i) beside the fixed descending rule.
        assert render_program(records[0].program) == fact_text(4)
        assert render_program(records[1].program) == (
            "p(s(s(0))) :- p(s(s(s(s(0))))).\n" + fact_text(4)
        )
        assert render_program(records[2].program) == RULE_DOWN + "\n" + fact_text(4)
        for stage in range(3, 12):
            k, i = divmod(stage, 3)
            expected = RULE_DOWN + "\n" + fact_text(6 * k + 4 - 2 * i)
            assert render_program(records[stage].program) == expected, f"stage {stage}"

        report = convergence_report(records, frozenset(stream), 4, 14)
        assert report.verdict is Verdict.CONVERGENT_MODULO_TRANSIENTS
        assert render_program(report.candidate_limit) == RULE_DOWN
        assert report.candidate_model.atoms == frozenset()
        assert not any(report.correctness.values())
        elapsed = time.perf_counter() - start
        assert elapsed < 2.0, f"runtime {elapsed:.2f}s"


def test_criterion_3_prioritized_snapshots_always_simple():
    with criterion(3, "every prioritized snapshot is simple (reference streams + 200 random)"):
        start = time.perf_counter()
        violations = 0

        for stream in (even_ascending_stream(11), even_reordered_stream(12)):
            cfg = config_for_stream(stream, System.PRIORITIZED_GOLEM)
            for rec in run_stream(stream, cfg):
                if not is_simple_program(rec.program):
                    violations += 1

        for i in range(200):
            sig = SIG_UNARY if i % 2 == 0 else SIG_BINARY
            rng = random.Random(1000 + i)
            stream = random_stream(rng, sig, max_depth=5, max_arrivals=8)
            cfg = config_for_stream(stream, System.PRIORITIZED_GOLEM)
            for rec in run_stream(stream, cfg):
                if not is_simple_program(rec.program):
                    violations += 1

        assert violations == 0
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"runtime {elapsed:.2f}s"


def test_criterion_4_prioritized_convergence_and_order_insensitivity():
    with criterion(4, "prioritized learner: stable, limit-correct, order-insensitive"):
        start = time.perf_counter()
        limits = []
        for stream in (even_ascending_stream(11), even_reordered_stream(12)):
            cfg = config_for_stream(stream, System.PRIORITIZED_GOLEM)
            records = run_stream(stream, cfg)
            report = convergence_report(records, frozenset(stream), 4, cfg.depth_bound)
            assert report.verdict is Verdict.STABLE
            assert all(report.correctness.values()), "bounded model must cover 100%"
            limits.append(report.candidate_limit)
        assert program_variant_equal(limits[0], limits[1])

        finals = []
        tail = [even_atom(8), even_atom(10)]
        for perm in permutations([even_atom(0), even_atom(2), even_atom(4), even_atom(6)]):
            stream = ExampleStream(list(perm) + tail)
            cfg = config_for_stream(stream, System.PRIORITIZED_GOLEM)
            finals.append(run_stream(stream, cfg)[-1].program)
        assert all(program_variant_equal(finals[0], other) for other in finals[1:])
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"runtime {elapsed:.2f}s"


def test_criterion_5_chain_semantics():
    with criterion(5, "bounded least models of the two chain programs"):
        chain_up = parse_program("p(0).\np(s(s(X))) :- p(X).")
        model = least_model_bounded(chain_up, 7)
        assert model.atoms == {even_atom(0), even_atom(2), even_atom(4), even_atom(6)}

        chain_down = parse_program("p(X) :- p(s(s(X))).")
        for depth in (4, 8, 12):
            assert least_model_bounded(chain_down, depth).atoms == frozenset()


def test_criterion_6_metric_property_suite():
    with criterion(6, "term metric: symmetry, identity, codomain, ultrametric, depth"):
        start = time.perf_counter()
        rng = random.Random(60606)
        violations = 0
        for i in range(500):
            sig = SIG_UNARY if i % 2 == 0 else SIG_BINARY
            functors = sig[0]
            t = random_term(rng, functors, 5)
            u = random_term(rng, functors, 5)
            v = random_term(rng, functors, 5)
            dtu = term_distance(t, u)
            if dtu != term_distance(u, t):
                violations += 1
            if (dtu == 0) != (t == u):
                violations += 1
            if not (dtu == 0 or (dtu.numerator == 1 and 0 < dtu <= 1)):
                violations += 1
            if dtu > max(term_distance(t, v), term_distance(v, u)):
                violations += 1
        assert violations == 0

        # Pairs identical to depth m and first differing below it sit at
        # exactly 1/(m+1).
        for m in range(1, 5):
            same_to_m = (numeral(m), numeral(m, base=Fn("s", (ZERO,))))
            assert term_distance(*same_to_m) == Fraction(1, m + 1)
            shallower = (numeral(m - 1), numeral(m - 1, base=Fn("s", (ZERO,))))
            assert term_distance(*shallower) > Fraction(1, m + 1)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"runtime {elapsed:.2f}s"


def test_criterion_7_lgg_property_suite():
    with criterion(7, "lgg subsumes both inputs, self-lgg is variant-equal, table consistent"):
        rng = random.Random(70707)
        violations = 0
        for _ in range(300):
            # Self-lgg is variant-equal only for reduced clauses, so the
            # corpus draws reduced ones.
            c = reduce_clause(random_definite_clause(rng, SIG_UNARY, max_depth=3, max_body=2))
            d = reduce_clause(random_definite_clause(rng, SIG_UNARY, max_depth=3, max_body=2))

            # The table of the pairwise literal lggs that lgg_clauses reduces.
            table = PairTable()
            unreduced = _literal_lggs(c, d, table)
            g = lgg_clauses(c, d)
            if g != reduce_clause(unreduced):
                violations += 1
            if g.literals:
                if not theta_subsumes(g, c)[0] or not theta_subsumes(g, d)[0]:
                    violations += 1
            if not clause_variant_equal(lgg_clauses(c, c), c):
                violations += 1

            # Distinct pairs never share a variable and vice versa.
            values = list(table.pairs.values())
            if len(set(values)) != len(values):
                violations += 1
            input_vars = clause_vars(c) | clause_vars(d)
            for lit in g.literals:
                for v in term_variables(lit.term):
                    if v not in input_vars and v not in values:
                        violations += 1
        assert violations == 0


def clause_vars(c: Clause):
    out = set()
    for l in c.literals:
        out |= term_variables(l.term)
    return out


def test_criterion_8_semantics_property_suite():
    with criterion(8, "tp-step laws and bounded model vs naive grounding oracle"):
        from test_semantics import naive_model_oracle
        from test_substitutions import oracle_tp_step

        rng = random.Random(80808)
        violations = 0

        for _ in range(200):
            p = random_simple_program(rng, SIG_UNARY, max_depth=3, max_clauses=3).with_clauses(
                (fact(atom("p", ZERO)),)
            )
            small = frozenset(random_stream(rng, SIG_UNARY, 3, 3))
            big = small | frozenset(random_stream(rng, SIG_UNARY, 3, 3))
            stepped_small = oracle_tp_step(p, small, 6)
            if not small <= stepped_small:
                violations += 1
            if not stepped_small <= oracle_tp_step(p, big, 6):
                violations += 1

        for i in range(100):
            sig, depth = (SIG_UNARY, 5) if i % 2 == 0 else (SIG_BINARY, 3)
            p = random_simple_program(rng, sig, max_depth=depth, max_clauses=3).with_clauses(
                (fact(atom("p", ZERO)),)
            )
            if least_model_bounded(p, depth).atoms != naive_model_oracle(p, depth):
                violations += 1

        assert violations == 0
