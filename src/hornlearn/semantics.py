"""
Bounded Herbrand semantics: the term universe up to a depth bound, the
immediate-consequence step, the least-model fixpoint and coverage checks.

The true Herbrand universe is infinite; everything here is its depth-bounded
fragment. For simple programs (every body subterm occurs in the head) the
bounded least model equals the depth-restricted fragment of the true least
model, because no derivation of a shallow atom needs a deeper premise.

A rule fires once for every substitution that maps its body atoms into the
current atom set; `subsumption.substitutions`, the search theta-subsumption
also uses, enumerates them.

Rule heads whose instantiated depth exceeds the bound are silently not
derived (frontier truncation), which keeps the model well-defined as the
depth-<=D fragment.

Clauses that are not range-restricted (a head variable missing from the
body, as in the unit clause r(Y).) are grounded by enumerating the bounded
universe over the program's signature, widened by the examples' symbols in
`examples_model`. Learned programs never need this fallback, but user programs
(`hornlearn model --program` on r(Y). r(a).) and the random simple programs
that the acceptance tests compare against a naive oracle do, so it stays;
_UNIVERSE_CAP keeps its cost bounded.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
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


@dataclass(frozen=True)
class BoundedModel:
    """The least set of ground atoms (depth <= depth_bound) closed under the
    program's rules restricted to the bound."""

    depth_bound: int
    atoms: frozenset[Literal]
    saturated: bool

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
    clause: Clause, atoms: frozenset[Literal], universe: frozenset[Term]
) -> list[Literal]:
    """Heads of ground instances whose bodies hold in `atoms`.

    Bodies are grounded by `substitutions` into the current atom set; head
    variables not bound by the body range over the universe.
    """
    head, free = clause.head, tuple(clause.unbound_head_variables)
    return [
        apply_to_literal(head, theta | dict(zip(free, values)))
        for theta in substitutions(clause.body, atoms, {})
        for values in product(universe, repeat=len(free))
    ]


def tp_step(
    p: HornProgram,
    atoms: frozenset[Literal],
    depth_bound: int,
    universe: frozenset[Term] | None = None,
) -> frozenset[Literal]:
    """One immediate-consequence round: atoms plus every rule-head instance
    whose body holds in atoms, truncated at the depth bound. Monotone and
    inflationary."""
    if universe is None:
        universe = _universe_for(p, depth_bound)
    out = set(atoms)
    for clause in p:
        for h in _ground_clause_instances(clause, atoms, universe):
            if literal_depth(h) <= depth_bound:
                out.add(h)
    return frozenset(out)


def least_model_bounded(
    p: HornProgram,
    depth_bound: int,
    signature: frozenset[tuple[str, int]] | None = None,
) -> BoundedModel:
    """Iterate tp_step from the empty set to its fixpoint (the bounded base is
    finite and the step is inflationary and monotone, so this terminates).
    A bound below 1 is a ValueError: no atom has depth 0."""
    if depth_bound < 1:
        raise ValueError("depth bound must be a positive integer")
    universe = _universe_for(p, depth_bound, signature)
    atoms: frozenset[Literal] = frozenset()
    while True:
        nxt = tp_step(p, atoms, depth_bound, universe)
        if nxt == atoms:
            return BoundedModel(depth_bound, atoms, saturated=True)
        atoms = nxt


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
    """Bounded least model over p's signature widened with the examples' symbols."""
    signature = p.signature() | term_signature(a for e in examples for a in e.args)
    return least_model_bounded(p, depth_bound, signature)


def is_covered(p: HornProgram, e: Literal, depth_bound: int) -> bool:
    return covers(p, {e}, depth_bound)[e]


def default_depth_bound(max_example_depth: int, background: Iterable[Clause] = ()) -> int:
    """The deepest of the examples and the background clauses, plus 4: large
    enough that every trace at desk scale saturates and no background clause
    falls outside the bounded base."""
    return max([max_example_depth] + [c.max_depth() for c in background]) + 4
