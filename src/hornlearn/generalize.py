"""
Least general generalization over terms, literals, clauses and clause sets;
saturation of an example against background knowledge; program reduction.

The lgg of two terms recurses argumentwise while root symbols agree and maps
each mismatched ordered pair (t, s) to one fresh variable. The pair table is
shared across a whole clause-pair lgg, so every occurrence of the same pair
generalizes to the same variable; that consistency is what lets the lgg of
two ground chain clauses come out as a single recursive rule.
"""

from __future__ import annotations

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
    is_ground_literal,
)
from .metric import clause_distance
from .semantics import _model_entry, _rekey, examples_model, least_model_bounded
from .subsumption import reduce_clause, theta_subsumes
from .syntax import literal_order, render_clause, render_literal


class PairTable:
    """Injective association from ordered term pairs to fresh variables.

    Fresh names are allocated in first-use order (X0, X1, ...), skipping any
    name already taken by the input clauses so generalization never captures
    an existing variable.
    """

    def __init__(self, reserved: set[str] | frozenset[str] = frozenset()):
        self.pairs: dict[tuple[Term, Term], Var] = {}
        self._reserved = set(reserved)
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
    if isinstance(t, Var) or isinstance(s, Var):
        return table.variable_for(t, s)
    if t.functor != s.functor or len(t.args) != len(s.args):
        return table.variable_for(t, s)
    return Fn(t.functor, tuple(lgg_terms(a, b, table) for a, b in zip(t.args, s.args)))


def lgg_literals(l: Literal, m: Literal, table: PairTable) -> Literal | None:
    """None (undefined) on sign or predicate mismatch."""
    if l.positive != m.positive or l.pred_key != m.pred_key:
        return None
    return Literal(
        l.positive,
        l.predicate,
        tuple(lgg_terms(a, b, table) for a, b in zip(l.args, m.args)),
    )


def lgg_clauses(c: Clause, d: Clause, table: PairTable | None = None) -> Clause:
    """All defined pairwise literal lggs under one shared pair table,
    deduplicated, then Plotkin-reduced.

    The reduction drops redundant generalized literals (the all-pairs set of
    lgg(c, c) otherwise strictly grows whenever two same-sign literals share a
    predicate); it preserves theta-equivalence, so the result still subsumes
    both inputs.
    """
    if table is None:
        table = PairTable()
    table.reserve({v.name for v in c.variables() | d.variables()})
    out = []
    d_sorted = sorted(d.literals, key=literal_order)
    for l in sorted(c.literals, key=literal_order):
        for m in d_sorted:
            g = lgg_literals(l, m, table)
            if g is not None:
                out.append(g)
    result = Clause(out)
    if not result.literals:
        return result
    return reduce_clause(result)


def lgg_clause_sets(
    a: frozenset[Clause] | set[Clause], b: frozenset[Clause] | set[Clause]
) -> frozenset[Clause]:
    """Pair each clause of a with its distance-nearest clause of b (ties go to
    the first in canonical order) and keep the nonempty lggs. Only clauses
    tied at the least distance are rendered."""
    if not a or not b:
        raise ValueError("lgg over clause sets requires nonempty inputs")
    out = set()
    for c in a:
        distances = [(clause_distance(c, d), d) for d in b]
        least = min(dist for dist, _ in distances)
        ties = [d for dist, d in distances if dist == least]
        nearest = min(ties, key=render_clause) if len(ties) > 1 else ties[0]
        g = lgg_clauses(c, nearest)
        if g.literals:
            out.add(g)
    return frozenset(out)


class SaturationPolicy(Enum):
    """How the background is folded into the clause to be generalized."""

    PAPER_TRACE = "paper"
    GROUND_ATOMS = "ground"


# PAPER_TRACE saturation has one clause per choice of a literal from each rule.
_SATURATION_CAP = 10_000


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
    if not e.positive or not is_ground_literal(e):
        raise ValueError(f"saturation needs a ground positive example: {render_literal(e)}")

    if policy is SaturationPolicy.GROUND_ATOMS:
        model = examples_model(background, (e,), depth_bound)
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


def reduce_program(p: HornProgram, depth_bound: int) -> HornProgram:
    """Removal of redundant clauses: a clause goes when another remaining
    clause theta-subsumes it, or when it is a ground fact derivable from the
    remaining program's bounded model. Scanning is largest clause first with
    canonical-text tiebreak, so the result is deterministic. One pass is a
    fixpoint: with the signature pinned, both tests are monotone in the
    remaining set, so a clause kept once stays kept. Neither removal changes
    the bounded model, so the result has p's.

    A support filter spares most fact tests their model. At the first fact
    test the kept clauses K give M(K) and its support set, which the model
    slot records: the heads of one T_P step of K's clauses other than
    ground facts over M(K). A fact f whose head is outside the support set
    is kept without a model of rest = K - {f}. That is sound: T_P is
    monotone and the signature is pinned, so M(rest) ⊆ M(K); a head in
    M(rest) is the head of an instance of a clause of rest whose body holds
    in M(rest); and that clause is not a ground fact, whose only head is
    itself. Later rests only shrink, so the set stays valid, and so does any
    superset. A head inside the set is still decided by the exact test, the
    bounded model of rest.

    For a range-restricted p, M(K) = M(p), so p's model and support set (a
    superset of K's) serve, and afterwards the slot keeps p's model as the
    result's. A p with an unbound head variable keeps M(K): grounding a
    clause subsumed before the first fact test may exceed the universe
    cap."""
    clauses = set(p.clauses)
    # Removals must not shrink the term language; only a clause with an
    # unbound head variable grounds over it.
    signature = None if p.range_restricted else p.signature()
    entry = _model_entry(p, depth_bound, None) if p.range_restricted else None
    support = entry.support if entry else None
    for c in sorted(clauses, key=lambda c: (-len(c.literals), render_clause(c))):
        rest = clauses - {c}
        if any(theta_subsumes(d, c)[0] for d in rest):
            clauses = rest
        elif c.is_fact and rest:
            if support is None:
                support = _model_entry(HornProgram(clauses), depth_bound, signature).support
            if c.head in support:
                model = least_model_bounded(HornProgram(rest), depth_bound, signature)
                if c.head in model.atoms:
                    clauses = rest
    result = HornProgram(clauses)
    if entry is not None:
        _rekey(entry, result)
    return result
