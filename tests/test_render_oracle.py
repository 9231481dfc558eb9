"""Differential tests: canonical clause and program rendering against the
permutation search they replaced (each skeleton computed per comparison,
positives and negatives sorted apart, every clause rendered twice by the
program renderer), and the own-name text stored on term nodes against the
recursive term renderer, kept here as oracles only. The oracle carries its
own term renderer, skeleton and renaming (a substituted copy of each
literal), so it shares no rendering code with the module under test.

Which caller stores a node's text first follows set iteration order, so
these tests also run under two hash seeds, with the trace bytes of two
descending streams deep enough that every stage reads stored text."""

from __future__ import annotations

import gc
import hashlib
import os
import random
import subprocess
import sys
import threading
from itertools import count, permutations, product
from math import factorial
from pathlib import Path

import pytest

from hornlearn import (
    Clause,
    ExampleStream,
    Fn,
    HornProgram,
    Literal,
    System,
    Var,
    atom,
    config_for_stream,
    neg,
    render_clause,
    render_program,
    render_term,
    run_stream,
    trace_text,
)
from hornlearn.cases import even_atom
from hornlearn.logic import _interned, apply_to_literal, subterms
from hornlearn.syntax import _PERMUTE_BUDGET, literal_order

from conftest import (
    SIG_BINARY,
    SIG_UNARY,
    VAR_POOL,
    random_clause,
    random_horn_program,
    random_literal,
    random_term,
)


def oracle_render_term(t) -> str:
    if isinstance(t, Var):
        return t.name
    if not t.args:
        return t.functor
    return f"{t.functor}({', '.join(oracle_render_term(a) for a in t.args)})"


def oracle_render_literal(lit: Literal) -> str:
    if not lit.args:
        return lit.predicate
    return f"{lit.predicate}({', '.join(oracle_render_term(a) for a in lit.args)})"


def oracle_render_in_order(literals: list[Literal]) -> str:
    pos = [l for l in literals if l.positive]
    body = [l for l in literals if not l.positive]
    head_txt = " ; ".join(oracle_render_literal(l) for l in pos) if pos else ""
    if not body:
        return f"{head_txt}."
    body_txt = ", ".join(oracle_render_literal(l.atom()) for l in body)
    if not head_txt:
        return f":- {body_txt}."
    return f"{head_txt} :- {body_txt}."


def oracle_skeleton(lit: Literal) -> str:
    def erase(t) -> str:
        if isinstance(t, Var):
            return "*"
        if not t.args:
            return t.functor
        return f"{t.functor}({','.join(erase(a) for a in t.args)})"

    sign = "+" if lit.positive else "-"
    return f"{sign}{lit.predicate}/{len(lit.args)}({','.join(erase(a) for a in lit.args)})"


def oracle_canonical_renaming(literals: list[Literal]) -> dict:
    seen: dict = {}

    def walk(t) -> None:
        if isinstance(t, Var):
            if t not in seen:
                seen[t] = Var(f"X{len(seen)}")
            return
        for a in t.args:
            walk(a)

    for lit in literals:
        for a in lit.args:
            walk(a)
    return seen


def oracle_rendered_with_renaming(literals: list[Literal]) -> str:
    theta = oracle_canonical_renaming(literals)
    return oracle_render_in_order([apply_to_literal(l, theta) for l in literals])


def oracle_local_var_pattern(lit: Literal) -> tuple[int, ...]:
    seen: dict = {}
    pattern = []

    def walk(t) -> None:
        if isinstance(t, Var):
            pattern.append(seen.setdefault(t, len(seen)))
            return
        for a in t.args:
            walk(a)

    for a in lit.args:
        walk(a)
    return tuple(pattern)


def oracle_render_clause(c: Clause) -> str:
    pos = sorted((l for l in c.literals if l.positive), key=oracle_skeleton)
    negs = sorted((l for l in c.literals if not l.positive), key=oracle_skeleton)
    ordered = pos + negs

    groups: list[list[Literal]] = []
    for lit in ordered:
        if (
            groups
            and oracle_skeleton(groups[-1][0]) == oracle_skeleton(lit)
            and groups[-1][0].positive == lit.positive
        ):
            groups[-1].append(lit)
        else:
            groups.append([lit])

    combinations = 1
    for group in groups:
        for k in range(2, len(group) + 1):
            combinations *= k
    if combinations > _PERMUTE_BUDGET:
        flat = [
            lit
            for group in groups
            for lit in sorted(
                group,
                key=lambda l: (
                    oracle_local_var_pattern(l),
                    oracle_rendered_with_renaming([l]),
                    oracle_render_literal(l),
                ),
            )
        ]
        return oracle_rendered_with_renaming(flat)

    best = None
    for choice in product(*(permutations(g) for g in groups)):
        text = oracle_rendered_with_renaming([lit for group in choice for lit in group])
        if best is None or text < best:
            best = text
    assert best is not None
    return best


def oracle_render_program(p: HornProgram) -> str:
    def sort_key(c: Clause) -> tuple:
        head = c.head
        return (head.predicate, head.arity, c.max_depth(), oracle_render_clause(c))

    lines = []
    for c in sorted(p.clauses, key=sort_key):
        line = oracle_render_clause(c)
        if not lines or lines[-1] != line:
            lines.append(line)
    return "\n".join(lines)


def twin_clause(rng: random.Random, sig) -> Clause:
    """Literals drawn from a few skeletons over shared variables, so that
    renaming twins (same skeleton, different variables) are common."""
    _, predicates = sig
    skeletons = []
    for _ in range(rng.randint(1, 3)):
        name, arity = rng.choice(predicates)
        wrapped = tuple(rng.random() < 0.5 for _ in range(arity))  # s(V) or V
        skeletons.append((rng.random() < 0.5, name, wrapped))
    literals = []
    for _ in range(rng.randint(2, 6)):
        positive, name, wrapped = rng.choice(skeletons)
        args = tuple(Fn("s", (rng.choice(VAR_POOL),)) if w else rng.choice(VAR_POOL) for w in wrapped)
        literals.append(Literal(positive, Fn(name, args)))
    return Clause(literals)


@pytest.mark.parametrize("sig", [SIG_UNARY, SIG_BINARY], ids=["unary", "binary"])
def test_render_clause_equals_permutation_oracle(rng, sig):
    for _ in range(400):
        c = random_clause(rng, sig, max_depth=3, max_literals=4)
        assert render_clause(c) == oracle_render_clause(c), c


@pytest.mark.parametrize("sig", [SIG_UNARY, SIG_BINARY], ids=["unary", "binary"])
def test_render_clause_equals_oracle_on_renaming_twins(rng, sig):
    twins = 0
    for _ in range(400):
        c = twin_clause(rng, sig)
        assert render_clause(c) == oracle_render_clause(c), c
        skeletons = [oracle_skeleton(l) for l in c.literals]
        twins += len(skeletons) > len(set(skeletons))
    assert twins > 100


def test_render_clause_equals_oracle_past_the_permutation_budget():
    x = Var("X")
    # With 12 twins the clause has 13 variables, and text order puts X10
    # before X2.
    for twins in (9, 12):
        ys = [Var(f"Y{i}") for i in range(twins)]
        c = Clause([atom("p", x)] + [neg("q", x if i % 3 else y, y) for i, y in enumerate(ys)])
        assert factorial(twins) > _PERMUTE_BUDGET
        assert len({oracle_skeleton(l) for l in c.literals}) == 2
        text = render_clause(c)
        assert text == oracle_render_clause(c)
        assert ("X12" in text) == (twins == 12)


def test_learned_text_past_the_permutation_budget_is_the_same_under_two_hash_seeds(tmp_path):
    # Nine twin literals, 9! orderings: the fallback order must not follow
    # the iteration order of the clause's literal set.
    bg = tmp_path / "bg.pl"
    bg.write_text("p(A, B, C, D, E, F, G, H, I) :- q(I), q(H), q(G), q(F), q(E), q(D), q(C), "
                  "q(B), q(A).\n")
    stream = tmp_path / "stream.pl"
    stream.write_text("p(a).\np(b).\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    outs = []
    for seed in ("0", "1"):
        done = subprocess.run(
            [sys.executable, "-m", "hornlearn", "learn", "--system", "golem",
             "--background", str(bg), "--examples", str(stream)],
            env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        outs.append(done.stdout)
    assert outs[0] == outs[1]
    assert outs[0].splitlines()[-1] == (
        "p(X0, X1, X2, X3, X4, X5, X6, X7, X8) :- "
        "q(X0), q(X1), q(X2), q(X3), q(X4), q(X5), q(X6), q(X7), q(X8)."
    )


def test_render_clause_minimum_compares_variable_names_as_text():
    vs = [Var(f"V{i}") for i in range(10)]
    a, b = Var("A"), Var("B")
    c = Clause([atom("p", *vs), neg("q", vs[2], a), neg("q", b, vs[2])])
    text = render_clause(c)
    assert text == oracle_render_clause(c)
    assert text.endswith(":- q(X10, X2), q(X2, X11).")


@pytest.mark.parametrize("sig", [SIG_UNARY, SIG_BINARY], ids=["unary", "binary"])
def test_render_program_equals_oracle(rng, sig):
    merged = 0
    for _ in range(300):
        p = random_horn_program(rng, sig, max_depth=3, max_clauses=4)
        # A renamed copy of one clause: the two must render as one line.
        c = rng.choice(sorted(p.clauses, key=oracle_render_clause))
        renaming = {v: Var(f"R{v.name}") for v in c.variables()}
        p = p.with_clauses([Clause(apply_to_literal(l, renaming) for l in c.literals)])
        got = render_program(p)
        assert got == oracle_render_program(p), p
        merged += len(got.splitlines()) < len(p)
    assert merged > 100


# --- own-name text stored on the node, against oracle_render_term -------------

_fresh = count()


def fresh_terms(rng: random.Random, n: int, max_depth: int) -> list:
    """Random terms over functor names no other term has, so no node of
    theirs has been rendered yet."""
    k = next(_fresh)
    functors = ((f"k{k}", 0), (f"s{k}", 1), (f"f{k}", 2))
    return [random_term(rng, functors, max_depth, ground=rng.random() < 0.5) for _ in range(n)]


def fn_nodes(terms) -> list:
    """Every compound node of the terms, in a seed-independent order."""
    return sorted({u for t in terms for u in subterms(t) if isinstance(u, Fn)}, key=oracle_render_term)


@pytest.mark.parametrize("order", ["parents-first", "children-first", "shuffled"])
def test_stored_text_equals_the_oracle_in_any_render_order(rng, order):
    terms = fresh_terms(rng, 300, max_depth=8)
    nodes = fn_nodes(terms)
    assert len(nodes) > 300 and not any(hasattr(u, "_text") for u in nodes)
    if order == "shuffled":
        rng.shuffle(nodes)
    else:
        nodes.sort(key=lambda u: u.depth, reverse=order == "parents-first")
    for i, u in enumerate(nodes):
        assert render_term(u) == oracle_render_term(u), u
        if order == "parents-first" and i == len(terms):
            # The deepest nodes came first, and filled every node below them.
            assert all(hasattr(v, "_text") for v in fn_nodes(nodes[:i]))
    assert all(u._text == oracle_render_term(u) for u in nodes)
    for t in terms:
        assert render_term(t) == oracle_render_term(t)


def test_a_node_dropped_and_interned_again_renders_again():
    k = next(_fresh)

    def build():
        return Fn(f"root{k}", (Fn(f"s{k}", (Fn(f"leaf{k}"),)), Var("DropVar")))

    t = build()
    subterms(t)  # the stored set refers back to t: only the collector frees it
    expected = f"root{k}(s{k}(leaf{k}), DropVar)"
    assert render_term(t) == expected
    child = t.args[0]
    del t
    gc.collect()
    assert not any(key[0] == f"root{k}" for key in list(_interned.keys()))
    # The surviving child keeps its text; the new root composes on it.
    again = build()
    assert not hasattr(again, "_text") and again.args[0] is child
    assert render_term(again) == expected
    del again, child
    gc.collect()
    assert not any(key[0] in (f"root{k}", f"s{k}", f"leaf{k}") for key in list(_interned.keys()))
    rebuilt = build()
    assert not any(hasattr(u, "_text") for u in subterms(rebuilt) if isinstance(u, Fn))
    assert render_term(rebuilt) == expected


def test_threads_rendering_the_same_fresh_deep_terms_get_the_oracle_text():
    rng = random.Random(2026)
    k = next(_fresh)
    base = Fn(f"f{k}", (Var("T"), Fn(f"z{k}")))
    chains = [base]
    for _ in range(300):
        chains.append(Fn(f"s{k}", (chains[-1],)))
    # Chains that share their lower nodes, and pairs of them.
    terms = chains[::37] + [Fn(f"g{k}", (rng.choice(chains), rng.choice(chains))) for _ in range(20)]
    terms += fresh_terms(rng, 60, max_depth=8)
    expected = [oracle_render_term(t) for t in terms]
    assert not any(hasattr(u, "_text") for u in fn_nodes(terms))
    wrong, finished = [], []
    start = threading.Barrier(8)

    def render_all(seed: int) -> None:
        order = list(range(len(terms)))
        random.Random(seed).shuffle(order)
        start.wait(timeout=60)
        wrong.extend(i for i in order if render_term(terms[i]) != expected[i])
        finished.append(seed)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=render_all, args=(seed,)) for seed in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and len(finished) == 8
    assert not wrong
    assert all(u._text == oracle_render_term(u) for u in fn_nodes(terms))


@pytest.mark.parametrize("sig", [SIG_UNARY, SIG_BINARY], ids=["unary", "binary"])
def test_literal_order_sorts_as_the_oracle_text(rng, sig):
    for _ in range(300):
        lits = [
            random_literal(rng, sig, max_depth=4, ground=rng.random() < 0.5)
            for _ in range(rng.randint(0, 8))
        ]
        want = sorted(lits, key=lambda l: (not l.positive, oracle_render_literal(l)))
        assert sorted(lits, key=literal_order) == want, lits


# sha256 of the trace `hornlearn learn --trace` writes for each stream. golem
# 96 and pgolem 48 were recorded before nodes stored their text, the others
# before the clause-set lgg decided its keep test on the literal pairs. The
# golden traces stop far shallower.
DESCENDING_TRACE_SHA256 = {
    (System.GOLEM, 64): "d71179b5f55109c59dfc968d8d96226dbf83a3a02f43b8114dcd0b1c4fb5f854",
    (System.GOLEM, 96): "17a91b6c254af07064c4a4638b33675b56b99f47b31acf4de8c09b0998b6e65c",
    (System.PRIORITIZED_GOLEM, 48): "d3afd60a913488df396287c45d5abfe2d55893ed78512dd30ce1d4c581213802",
    (System.PRIORITIZED_GOLEM, 64): "643bf1f06dd04a082eb6e8e71e3eed3f63b8f9b823603db8db6ddc252e957d84",
    (System.PRIORITIZED_GOLEM, 96): "402dbf85a920fe110fa428e791e6e8c745fce9caa5305210531a7755698716f6",
}


@pytest.mark.slow
@pytest.mark.parametrize(
    "system,stages",
    list(DESCENDING_TRACE_SHA256),
    ids=[f"{system.value}-{stages}" for system, stages in DESCENDING_TRACE_SHA256],
)
def test_descending_trace_bytes_at_depth_are_pinned(system, stages):
    stream = ExampleStream(even_atom(2 * k) for k in reversed(range(stages)))
    records = run_stream(stream, config_for_stream(stream, system))
    digest = hashlib.sha256(trace_text(records).encode("utf-8")).hexdigest()
    assert digest == DESCENDING_TRACE_SHA256[system, stages]
