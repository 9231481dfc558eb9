"""Differential tests: canonical clause and program rendering against the
permutation search they replaced (each skeleton computed per comparison,
positives and negatives sorted apart, every clause rendered twice by the
program renderer), kept here as oracles only. The oracle carries its own
term renderer, skeleton and renaming (a substituted copy of each literal),
so it shares no rendering code with the module under test."""

from __future__ import annotations

import random
from itertools import permutations, product
from math import factorial

import pytest

from hornlearn import Clause, Fn, HornProgram, Literal, Var, atom, neg, render_clause, render_program
from hornlearn.logic import apply_to_literal
from hornlearn.syntax import _PERMUTE_BUDGET

from conftest import SIG_BINARY, SIG_UNARY, VAR_POOL, random_clause, random_horn_program


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
                key=lambda l: (oracle_local_var_pattern(l), oracle_rendered_with_renaming([l])),
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
