"""
Distances on terms, literals and clauses; the priority pre-order on literals;
the simplicity predicate on clauses and programs.

The term distance takes values in {0} ∪ {1/m}: 0 for equal terms, 1 when the
root symbols differ, and d/(d+1) for equal roots where d is the maximum
argument distance. Two terms are at distance at most 1/(m+1) exactly when
their trees agree to depth m. Values are exact rationals, never floats, so
the codomain is assertable exactly; the recursion runs on the integer m of
1/m, and each distance builds one Fraction.

Variables are treated as 0-arity symbols distinct from every functor and from
each other, the minimal total extension of the functor-rooted definition.
"""

from __future__ import annotations

from fractions import Fraction

from .logic import Clause, HornProgram, Literal, Term, Var, literal_depth, literal_subterms

Distance = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def term_distance(t: Term, s: Term) -> Distance:
    return ZERO if t == s else Fraction(1, _agreement(t, s))


def _agreement(t: Term, s: Term) -> int:
    """The m with term_distance(t, s) = 1/m, for unequal terms: 1 when the
    roots differ, otherwise 1 plus the least agreement of an unequal
    argument pair (the largest argument distance)."""
    if isinstance(t, Var) or isinstance(s, Var):
        # Distinct symbols (a variable never shares a root with anything else).
        return 1
    if t.functor != s.functor or len(t.args) != len(s.args):
        return 1
    return 1 + min(_agreement(a, b) for a, b in zip(t.args, s.args) if a != b)


def literal_distance(l: Literal, m: Literal) -> Distance:
    """1 on sign or predicate mismatch; otherwise the literal is treated as a
    compound term rooted at the predicate symbol."""
    if l.positive != m.positive or l.pred_key != m.pred_key:
        return ONE
    if l.args == m.args:
        return ZERO
    return Fraction(1, 1 + min(_agreement(a, b) for a, b in zip(l.args, m.args) if a != b))


def clause_distance(c: Clause, d: Clause) -> Distance:
    """Hausdorff lift of literal_distance: max over both directed max-min
    distances. Rejects empty clauses."""
    if not c.literals or not d.literals:
        raise ValueError("clause_distance is undefined for empty clauses")
    forward = max(min(literal_distance(l, m) for m in d.literals) for l in c.literals)
    backward = max(min(literal_distance(l, m) for l in c.literals) for m in d.literals)
    return max(forward, backward)


def priority_precedes(l: Literal, m: Literal) -> bool:
    """l ≺ m: every subterm occurring in l occurs in m (l has the higher
    priority). Reflexive and transitive. A literal deeper than m has an
    argument deeper than every term of m, so it is rejected before either
    subterm set is built."""
    return literal_depth(l) <= literal_depth(m) and literal_subterms(l) <= literal_subterms(m)


def is_simple(c: Clause) -> bool:
    """Every subterm occurring in the body occurs in the head. Facts are
    vacuously simple. Rejects non-definite clauses."""
    head_terms = literal_subterms(c.head)
    return all(literal_subterms(b) <= head_terms for b in c.body)


def is_simple_program(p: HornProgram) -> bool:
    return all(is_simple(c) for c in p)
