"""
Least general generalization over terms, literals, clauses and clause sets;
saturation of an example against background knowledge.

The lgg of two terms recurses argumentwise while root symbols agree and maps
each mismatched ordered pair (t, s) to one fresh variable of a pair table
shared across a whole clause-pair lgg. So the lgg of two ground chain
clauses comes out as one recursive rule, and a clause-set lgg can decide on
the literal pairs, before building it, whether it keeps it (lgg_clause_sets).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Collection
from enum import Enum
from itertools import product
from math import prod

from .logic import (
    Clause,
    Fn,
    HornProgram,
    Literal,
    Term,
    Var,
)
from .metric import clause_agreement
from .semantics import least_model_bounded
from .subsumption import reduce_clause
from .syntax import literal_order, render_clause, render_literal


class PairTable:
    """Injective association from ordered term pairs to fresh variables.

    Fresh names are allocated in first-use order (X0, X1, ...), skipping any
    name already taken by the input clauses so generalization never captures
    an existing variable.
    """

    def __init__(self):
        self.pairs: dict[tuple[Term, Term], Var] = {}
        self._reserved: set[str] = set()
        self._next = 0

    def reserve(self, names: set[str] | frozenset[str]) -> None:
        self._reserved |= set(names)

    def variable_for(self, t: Term, s: Term) -> Var:
        key = (t, s)
        found = self.pairs.get(key)
        if found is not None:
            return found
        while f"X{self._next}" in self._reserved:
            self._next += 1
        v = Var(f"X{self._next}")
        self._next += 1
        self.pairs[key] = v
        return v


def lgg_terms(t: Term, s: Term, table: PairTable) -> Term:
    """Argumentwise recursion on equal roots, a table variable otherwise.
    Variables act as 0-arity symbols, so lgg(X, X) = X."""
    if t == s:
        return t
    if type(t) is Var or type(s) is Var or t.functor != s.functor or len(t.args) != len(s.args):
        return table.variable_for(t, s)
    return Fn(t.functor, tuple([lgg_terms(a, b, table) for a, b in zip(t.args, s.args)]))


def lgg_literals(l: Literal, m: Literal, table: PairTable) -> Literal | None:
    """None (undefined) on sign or predicate mismatch."""
    if l.positive != m.positive or l.pred_key != m.pred_key:
        return None
    return Literal(l.positive, lgg_terms(l.term, m.term, table))


def lgg_clauses(c: Clause, d: Clause) -> Clause:
    """All defined pairwise literal lggs under one shared pair table,
    deduplicated, then Plotkin-reduced.

    The reduction drops redundant generalized literals (the all-pairs set of
    lgg(c, c) otherwise strictly grows whenever two same-sign literals share a
    predicate); it preserves theta-equivalence, so the result still subsumes
    both inputs. More than _LGG_CAP pairs of literals of equal (sign,
    predicate, arity) are refused before any lgg is built.
    """
    result = _literal_lggs(c, d, PairTable())
    return reduce_clause(result) if result.literals else result


def _literal_pairs(c: Clause, d: Clause) -> list[tuple[Literal, Literal]]:
    """The defined literal pairs (equal sign and predicate) in canonical
    order; more than _LGG_CAP are refused before any is listed."""
    d_keys = Counter((l.positive, l.pred_key) for l in d.literals)
    pairs = sum(d_keys[l.positive, l.pred_key] for l in c.literals)
    if pairs > _LGG_CAP:
        raise ValueError(
            f"lgg would pair {pairs} literals of equal sign and predicate (cap {_LGG_CAP})"
        )
    ordered = product(*(sorted(x.literals, key=literal_order) for x in (c, d)))
    return [(l, m) for l, m in ordered if (l.positive, l.pred_key) == (m.positive, m.pred_key)]


def _literal_lggs(c: Clause, d: Clause, table: PairTable) -> Clause:
    """lgg_clauses before reduction: every defined pairwise literal lgg."""
    table.reserve({v.name for v in c.variables() | d.variables()})
    return Clause([lgg_literals(l, m, table) for l, m in _literal_pairs(c, d)])


def _lgg_variables(t: Term, s: Term) -> set[tuple[Term, Term]]:
    """The variables of lgg_terms(t, s) named by their pairs, (v, v) for a
    variable v of an equal subterm; one explicit-stack walk builds nothing."""
    out, stack = set(), [(t, s)]
    while stack:
        t, s = stack.pop()
        if type(t) is Var or type(s) is Var or t.functor != s.functor or len(t.args) != len(s.args):
            out.add((t, s))
        elif t is not s or not t.ground:
            stack += zip(t.args, s.args)
    return out


def _keeps(pairs: list[tuple[Literal, Literal]]) -> bool:
    """Whether lgg_clause_sets keeps the lgg of these pairs, unbuilt."""
    heads = [(l.term, m.term) for l, m in pairs if l.positive]
    if len(heads) != 1:
        return bool(pairs)
    body = (_lgg_variables(l.term, m.term) for l, m in pairs if not l.positive)
    return not _lgg_variables(*heads[0]).difference(*body)


def lgg_clause_sets(
    a: Collection[Clause],
    b: frozenset[Clause] | set[Clause],
) -> frozenset[Clause]:
    """Pair each clause of a with its distance-nearest clause of b (ties go to
    the first in canonical order) and keep the nonempty reduced lggs, except
    definite ones that are not range-restricted. A b of one clause is nearest
    to every clause, so no distance is computed; otherwise only clauses tied
    at the least distance are rendered. Within the cap, the keep test is
    decided on the literal pairs, so only a kept lgg is built and reduced.
    It is exact: the pair table is injective, so the lgg has one literal per
    defined pair and one variable per generalized pair; and reduction keeps
    a definite clause range-restricted exactly when it was, since the reduced
    body is a subset of the clause's and θ fixes every head variable. A
    two-headed lgg may reduce to a definite clause, so it is kept. Distance
    is undefined for the empty clause, so an empty set or clause is refused."""
    if not a or not b or not all(a) or not all(b):
        raise ValueError("lgg over clause sets requires nonempty sets of nonempty clauses")
    out = set()
    for c in a:
        nearest = _nearest(c, b)
        if _keeps(_literal_pairs(c, nearest)):
            out.add(reduce_clause(_literal_lggs(c, nearest, PairTable())))
    return frozenset(out)


def _nearest(c: Clause, b: frozenset[Clause] | set[Clause]) -> Clause:
    """The clause of b at the largest agreement with c, ties to canonical order."""
    if len(b) == 1:
        return next(iter(b))
    agreements = [(clause_agreement(c, d), d) for d in b]
    most = max(m for m, _ in agreements)
    ties = [d for m, d in agreements if m == most]
    return min(ties, key=render_clause) if len(ties) > 1 else ties[0]


class SaturationPolicy(Enum):
    """How the background is folded into the clause to be generalized."""

    PAPER_TRACE = "paper"
    GROUND_ATOMS = "ground"


# PAPER_TRACE saturation has one clause per choice of a literal from each rule.
_SATURATION_CAP = 10_000
# Literal pairs one clause lgg may build. Reduction runs theta-subsumption,
# exponential in the worst case. On ground-heavy pairs it costs about the
# cube of the pair count: 401 pairs (the lgg of two ground-policy
# saturations over 20 background facts) take about 1 s on a 2-core VM. The
# search takes literals in connected order, so the 26 pairs of a
# five-variable cycle body reduce in well under a second; the worst case
# stays exponential, and far fewer pairs than the cap may still take long.
_LGG_CAP = 420


def saturate(
    background: HornProgram,
    e: Literal,
    policy: SaturationPolicy,
    depth_bound: int,
) -> frozenset[Clause]:
    """Clauses expressing 'e given the background', ready for generalization.

    PAPER_TRACE negates the conjunction of the background's non-unit clauses,
    disjoins e, and expands to clause normal form with tautologies removed;
    a fact-only background instead yields the single clause e <- facts.
    GROUND_ATOMS yields the single clause whose body is the background's
    bounded model: { ~q : q in model } ∪ { e }, over the background's
    signature widened with e's symbols, the language coverage checks use.
    Callers ask whether e is covered first; a PAPER_TRACE expansion over
    _SATURATION_CAP is refused.
    """
    if not e.positive or not e.term.ground:
        raise ValueError(f"saturation needs a ground positive example: {render_literal(e)}")

    if policy is SaturationPolicy.GROUND_ATOMS:
        model = least_model_bounded(background, depth_bound, (e,))
        return frozenset((Clause([q.negated() for q in model.atoms] + [e]),))

    rules = background.rules
    if not rules:
        body = [c.head.negated() for c in background.facts]
        return frozenset((Clause(body + [e]),))

    # ~(R1 ∧ R2 ∧ ...) ∨ e in clause normal form: one clause per choice of a
    # negated literal from each rule, tautologies dropped.
    choice_sets = [[lit.negated() for lit in r.literals] for r in rules]
    size = prod(len(choices) for choices in choice_sets)
    if size > _SATURATION_CAP:
        raise ValueError(
            f"saturation would make {size} clauses (cap {_SATURATION_CAP}); use --policy ground"
        )
    clauses = set()
    for choice in product(*choice_sets):
        clause = Clause(list(choice) + [e])
        if not clause.is_tautology():
            clauses.add(clause)
    return frozenset(clauses)
