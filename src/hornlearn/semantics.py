"""
Bounded Herbrand semantics: the term universe up to a depth bound, the
immediate-consequence step, the least-model fixpoint and coverage checks.

The true Herbrand universe is infinite; everything here is its depth-bounded
fragment. For simple programs (every body subterm occurs in the head) the
bounded least model equals the depth-restricted fragment of the true least
model, because no derivation of a shallow atom needs a deeper premise.

A rule fires once for every substitution that maps its body atoms into the
current atom set; `subsumption.substitutions`, the search theta-subsumption
also uses, enumerates them. The least model is computed semi-naively
(Bancilhon & Ramakrishnan, SIGMOD 1986): round 0 fires the unit clauses,
and in every later round a rule fires only on substitutions that use an atom
the previous round added. Body position i searches those new atoms, the
positions before it the atoms known before that round, and the positions
after it every atom known, so each instance is found once. `tp_step`, the
plain immediate-consequence step, is the same round with nothing old.

Rule heads whose instantiated depth exceeds the bound are not derived
(frontier truncation), which keeps the model well-defined as the depth-<=D
fragment; the model counts the distinct heads dropped this way.

`least_model_bounded` remembers the last model it built, keyed on the
program, the depth bound and the grounding universe described below. That
universe is empty unless a clause is not range-restricted, so the widened
signatures of `examples_model` share one entry. Programs are immutable, so
an entry never goes stale, and a learner that has settled asks about one
program over and over. The memo holds one entry (_MODEL_MEMO_SIZE) and
lives only as long as the process.

Clauses that are not range-restricted (a head variable missing from the
body, as in the unit clause r(Y).) are grounded by enumerating the bounded
universe over the program's signature, widened by the examples' symbols in
`examples_model`. Learned programs never need this fallback, but user programs
(`hornlearn model --program` on r(Y). r(a).) and the random simple programs
that the acceptance tests compare against a naive oracle do, so it stays;
_UNIVERSE_CAP keeps its cost bounded.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .logic import (
    Clause,
    Fn,
    HornProgram,
    Literal,
    Term,
    apply_to_literal,
    is_ground_literal,
    literal_depth,
    term_signature,
)
from .subsumption import substitutions
from .syntax import render_literal

_UNIVERSE_CAP = 200_000
# Models kept by least_model_bounded. One suffices: a settled learner asks
# about the same program again and again. Each entry holds a whole model, so
# a larger memo raises peak memory.
_MODEL_MEMO_SIZE = 1


@dataclass(frozen=True)
class BoundedModel:
    """The least set of ground atoms (depth <= depth_bound) closed under the
    program's rules restricted to the bound. `truncated` counts the distinct
    heads the fixpoint dropped for being deeper than the bound: zero means
    the bound cut nothing off."""

    depth_bound: int
    atoms: frozenset[Literal]
    truncated: int

    def __contains__(self, a: Literal) -> bool:
        return a in self.atoms

    def sorted_atoms(self) -> list[Literal]:
        return sorted(self.atoms, key=lambda a: (a.predicate, literal_depth(a), render_literal(a)))


def bounded_universe(
    signature: frozenset[tuple[str, int]] | set[tuple[str, int]], depth_bound: int
) -> frozenset[Term]:
    """All ground terms over the signature with depth <= depth_bound.
    Depth counts nodes: constants have depth 1. U_d is the constants plus
    every f(t...) with arguments in U_{d-1}, so its size, |constants| plus
    |U_{d-1}|^arity per function, is known before it is built; a level over
    _UNIVERSE_CAP is a ValueError. The bound is at least 1, as
    least_model_bounded checks."""
    constants = frozenset(Fn(name) for name, arity in signature if arity == 0)
    functions = [(name, arity) for name, arity in signature if arity > 0]
    if not constants:
        raise ValueError("signature has no constant: the universe would be empty")

    terms = constants
    for d in range(2, depth_bound + 1):
        size = len(constants) + sum(len(terms) ** arity for _, arity in functions)
        if size == len(terms):
            break
        if size > _UNIVERSE_CAP:
            raise ValueError(
                f"bounded universe would hold {size} terms at depth {d} "
                f"(cap {_UNIVERSE_CAP}); lower the depth bound"
            )
        terms = constants.union(
            Fn(name, args) for name, arity in functions for args in product(terms, repeat=arity)
        )
    return terms


def _universe_for(
    p: HornProgram,
    depth_bound: int,
    signature: frozenset[tuple[str, int]] | None = None,
) -> frozenset[Term]:
    """The universe that grounds head variables not bound by their body;
    empty when every clause is range-restricted, as learned programs are.
    An explicit signature widens the term language beyond the program's own
    symbols (the ambient language is fixed, not per-program)."""
    unbound = max((len(c.unbound_head_variables) for c in p), default=0)
    if not unbound:
        return frozenset()
    universe = bounded_universe(signature if signature is not None else p.signature(), depth_bound)
    if len(universe) ** unbound > _UNIVERSE_CAP:
        raise ValueError(
            f"a clause with {unbound} unbound head variables would have "
            f"{len(universe)}^{unbound} instances per body match (cap {_UNIVERSE_CAP}); "
            "lower the depth bound"
        )
    return universe


def _ground_clause_instances(
    clause: Clause,
    old: frozenset[Literal],
    new: frozenset[Literal],
    known: frozenset[Literal],
    universe: frozenset[Term],
) -> Iterator[Literal]:
    """Heads of ground instances whose body holds in known = old | new (old
    and new disjoint) with at least one body atom in new.

    Semi-naive split: body position i matches new, the positions before it
    old, and the ones after it known, so each such instance is found once,
    at its first position in new. A unit clause has no position and yields
    its heads on every call. Head variables not bound by the body range over
    the universe.
    """
    head, body, free = clause.head, clause.body, tuple(clause.unbound_head_variables)
    # A unit clause takes the one empty split.
    splits = [[old] * i + [new] + [known] * (len(body) - i - 1) for i in range(len(body))] or [[]]
    for targets in splits:
        for theta in substitutions(body, targets, {}):
            for values in product(universe, repeat=len(free)):
                yield apply_to_literal(head, theta | dict(zip(free, values)))


def tp_step(
    p: HornProgram,
    atoms: frozenset[Literal],
    depth_bound: int,
    universe: frozenset[Term] | None = None,
) -> frozenset[Literal]:
    """One immediate-consequence round: atoms plus every rule-head instance
    whose body holds in atoms, truncated at the depth bound. Monotone and
    inflationary. It is the semi-naive round with nothing old and every atom
    new."""
    if universe is None:
        universe = _universe_for(p, depth_bound)
    empty: frozenset[Literal] = frozenset()
    return frozenset(atoms).union(
        h
        for clause in p
        for h in _ground_clause_instances(clause, empty, atoms, atoms, universe)
        if literal_depth(h) <= depth_bound
    )


def least_model_bounded(
    p: HornProgram,
    depth_bound: int,
    signature: frozenset[tuple[str, int]] | None = None,
) -> BoundedModel:
    """The fixpoint of tp_step from the empty set (the bounded base is finite
    and the step is inflationary and monotone, so it exists), computed
    semi-naively and memoized on (p, depth_bound, universe).
    A bound below 1 is a ValueError: no atom has depth 0."""
    if depth_bound < 1:
        raise ValueError("depth bound must be a positive integer")
    return _least_model(p, depth_bound, _universe_for(p, depth_bound, signature))


@lru_cache(maxsize=_MODEL_MEMO_SIZE)
def _least_model(p: HornProgram, depth_bound: int, universe: frozenset[Term]) -> BoundedModel:
    """Round 0 fires every clause on nothing, so only unit clauses derive;
    every later round fires the rules on the atoms the previous round added.
    A head deeper than the bound is dropped and counted once."""
    old: frozenset[Literal] = frozenset()
    new: frozenset[Literal] = frozenset()
    dropped: set[Literal] = set()
    clauses: Iterable[Clause] = p
    while True:
        known = old | new
        fresh: set[Literal] = set()
        for clause in clauses:
            for h in _ground_clause_instances(clause, old, new, known, universe):
                if h in known or h in fresh or h in dropped:
                    continue
                if literal_depth(h) <= depth_bound:
                    fresh.add(h)
                else:
                    dropped.add(h)
        if not fresh:
            return BoundedModel(depth_bound, known, truncated=len(dropped))
        old, new, clauses = known, frozenset(fresh), p.rules


def covers(
    p: HornProgram,
    examples: frozenset[Literal] | set[Literal],
    depth_bound: int,
) -> dict[Literal, bool]:
    """Per-example membership in the bounded least model. Examples deeper
    than the bound are rejected with a sizing hint."""
    too_deep = [e for e in examples if literal_depth(e) > depth_bound]
    if too_deep:
        worst = max(literal_depth(e) for e in too_deep)
        raise ValueError(
            f"{len(too_deep)} example(s) exceed depth bound {depth_bound}; "
            f"use a bound of at least {worst}"
        )
    for e in examples:
        if not e.positive or not is_ground_literal(e):
            raise ValueError(f"examples must be ground positive atoms: {render_literal(e)}")
    model = examples_model(p, examples, depth_bound)
    return {e: e in model.atoms for e in examples}


def examples_model(p: HornProgram, examples: Iterable[Literal], depth_bound: int) -> BoundedModel:
    """Bounded least model over p's signature widened with the examples'
    symbols. Only a clause with an unbound head variable grounds over the
    signature, so a range-restricted program is not asked for one."""
    signature = None
    if not p.range_restricted:
        signature = p.signature() | term_signature(a for e in examples for a in e.args)
    return least_model_bounded(p, depth_bound, signature)


def is_covered(p: HornProgram, e: Literal, depth_bound: int) -> bool:
    return covers(p, {e}, depth_bound)[e]


def default_depth_bound(max_example_depth: int, background: Iterable[Clause] = ()) -> int:
    """The deepest of the examples and the background clauses, plus 4: large
    enough that every trace at desk scale saturates and no background clause
    falls outside the bounded base."""
    return max([max_example_depth] + [c.max_depth() for c in background]) + 4
