"""
Distances on terms, literals and clauses; the priority pre-order on literals
and its strict part; the simplicity predicate on clauses and programs.

The term distance takes values in {0} ∪ {1/m}: 0 for equal terms, 1 when the
root symbols differ, and d/(d+1) for equal roots where d is the maximum
argument distance. Two terms are at distance at most 1/(m+1) exactly when
their trees agree to depth m. That m is the one definition inside: the
agreement of two terms, literals or clauses is the integer m with distance
1/m, and EQUAL (infinite) at distance 0, so a larger agreement is a smaller
distance. The walks and the Hausdorff lift compare integers, and the lgg's
nearest-clause choice reads clause_agreement. The public distances return
exact rationals, never floats, so the codomain is assertable exactly: each
builds one Fraction from its agreement.

Variables are treated as 0-arity symbols distinct from every functor and from
each other, the minimal total extension of the functor-rooted definition.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .logic import Clause, HornProgram, Literal, Term, Var, literal_depth, literal_subterms

Distance = Fraction

ZERO = Fraction(0)
# The agreement of equal terms, literals or clauses: distance 0.
EQUAL = math.inf


def _distance(m: int | float) -> Distance:
    return ZERO if m == EQUAL else Fraction(1, m)


def term_distance(t: Term, s: Term) -> Distance:
    return _distance(_agreement(t, s))


def _agreement(t: Term, s: Term) -> int | float:
    """The m with term_distance(t, s) = 1/m: EQUAL for equal terms, 1 when
    the roots differ, otherwise 1 plus the least agreement of an unequal
    argument pair (the largest argument distance). That is the depth of the
    shallowest unequal pair whose roots differ, so the walk goes level by
    level over the unequal pairs and stops there; no frame per level."""
    if t is s:
        return EQUAL
    level = [(t, s)]
    m = 1
    while True:
        below = []
        for a, b in level:
            # A variable never shares a root with anything else.
            if (
                type(a) is Var
                or type(b) is Var
                or a.functor != b.functor
                or len(a.args) != len(b.args)
            ):
                return m
            for x, y in zip(a.args, b.args):
                if x is not y:
                    below.append((x, y))
        level = below
        m += 1


def _literal_agreement(l: Literal, m: Literal) -> int | float:
    """1 on sign mismatch; otherwise the agreement of the atoms, terms rooted
    at the predicate symbol, so 1 on predicate mismatch too."""
    return 1 if l.positive != m.positive else _agreement(l.term, m.term)


def literal_distance(l: Literal, m: Literal) -> Distance:
    return _distance(_literal_agreement(l, m))


def clause_agreement(c: Clause, d: Clause) -> int | float:
    """The m with clause_distance(c, d) = 1/m: the Hausdorff lift of literal
    distance with the order flipped, min over both directed min-max
    agreements. Rejects empty clauses."""
    if not c.literals or not d.literals:
        raise ValueError("clause_distance is undefined for empty clauses")
    # One agreement per literal pair: forward from the row maxima, backward
    # from the column maxima.
    rows = [[_literal_agreement(l, m) for m in d.literals] for l in c.literals]
    forward = min(max(row) for row in rows)
    backward = min(max(column) for column in zip(*rows))
    return min(forward, backward)


def clause_distance(c: Clause, d: Clause) -> Distance:
    """Hausdorff lift of literal_distance: max over both directed max-min
    distances. Rejects empty clauses."""
    return _distance(clause_agreement(c, d))


def priority_precedes(l: Literal, m: Literal) -> bool:
    """l ≺ m: every subterm occurring in l occurs in m (l has the higher
    priority). Reflexive and transitive. Here and in strictly_precedes, a
    literal deeper than m has an argument deeper than every term of m, so it
    is rejected before either subterm set is built."""
    return literal_depth(l) <= literal_depth(m) and literal_subterms(l) <= literal_subterms(m)


def strictly_precedes(l: Literal, m: Literal) -> bool:
    """l ≺ m but not m ≺ l: l's subterms are a proper subset of m's. Literals
    of equal priority (p(a, b) and p(b, a), or p(a) and q(a)) are unordered.
    It tests the subsets itself, so priority_precedes counts only its own
    calls."""
    return literal_depth(l) <= literal_depth(m) and literal_subterms(l) < literal_subterms(m)


def is_simple(c: Clause) -> bool:
    """Every body atom precedes the head: every subterm occurring in the body
    occurs in the head. Facts are vacuously simple. Rejects non-definite
    clauses."""
    return all(priority_precedes(b, c.head) for b in c.body)


def is_simple_program(p: HornProgram) -> bool:
    return all(is_simple(c) for c in p)
