"""
Bounded Herbrand semantics: the term universe up to a depth bound, the
immediate-consequence step, the least-model fixpoint, coverage checks and
program reduction.

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
after it every atom known, so each instance is found once.

Rule heads whose instantiated depth exceeds the bound are not derived
(frontier truncation), which keeps the model well-defined as the depth-<=D
fragment; the model counts the distinct heads dropped this way.

`least_model_bounded` keeps the last model it built in one slot, keyed on
the program, the depth bound and the signature of the grounding universe
described below, None when the program is range-restricted, so the queries
of such a program share one entry whatever literals widen them. The universe
is built only when the key misses. A query equal to the key is a hit. A
query that adds clauses to the key's program, under the same bound and
signature, is a warm start (Gupta, Mumick & Subrahmanian, SIGMOD 1993): T_P
is monotone, so the fixpoint may start from the stored model, firing the
added clauses over its atoms and then every rule on what they add. Anything
else is built from empty. The slot is one immutable tuple, read once and
replaced whole, so concurrent callers see an old entry or a new one, each
true of its key. It lives only as long as its program: the entry holds the
program by weak reference, and the program's death empties the slot.

The fixpoint also records the support set: the heads of one T_P step of the
program's clauses other than ground facts over its model, dropped heads
included. It spares most of `reduce_program`'s fact tests their model. With
K the clauses kept so far, a fact f whose head is outside K's support set is
kept without a model of rest = K - {f}. That is sound: T_P is monotone and
the signature is pinned, so M(rest) ⊆ M(K); a head in M(rest) is the head of
an instance of a clause of rest whose body holds in M(rest); and that clause
is not a ground fact, whose only head is itself. Later rests only shrink, so
the set stays valid, and so does any superset. `reduce_program`'s result
has its input's model, so it re-keys the slot to the result, keeping the
input's support set: a superset of the result's filters as soundly.

Clauses that are not range-restricted (a head variable missing from the
body, as in the unit clause r(Y).) are grounded by enumerating the bounded
universe over the query's language: the program's symbols plus those in
the arguments of the literals the query is widened by (a coverage query's
examples). A range-restricted program has no such clause and grounds over
nothing. Learned programs never need this fallback, but user programs
(`hornlearn model --program` on r(Y). r(a).) and the random simple programs
that the acceptance tests compare against a naive oracle do, so it stays;
_UNIVERSE_CAP keeps its cost bounded.
"""

from __future__ import annotations

import weakref
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import product
from typing import NamedTuple

from .logic import (
    Clause,
    Fn,
    HornProgram,
    Literal,
    Term,
    apply_to_literal,
    literal_depth,
    term_signature,
)
from .subsumption import substitutions, theta_subsumes
from .syntax import render_clause, render_literal

_UNIVERSE_CAP = 200_000


@dataclass(frozen=True)
class BoundedModel:
    """The least set of ground atoms (depth <= depth_bound) closed under the
    program's rules restricted to the bound. `truncated` counts the distinct
    heads the fixpoint dropped for being deeper than the bound: zero means
    the bound cut nothing off."""

    depth_bound: int
    atoms: frozenset[Literal]
    truncated: int

    def to_json_dict(self) -> dict:
        """The model as `model --format json` prints it and limit reports
        carry it."""
        atoms = sorted(self.atoms, key=lambda a: (a.predicate, literal_depth(a), render_literal(a)))
        return {
            "depthBound": self.depth_bound,
            "truncated": self.truncated,
            "atoms": [render_literal(a) for a in atoms],
        }


def bounded_universe(
    signature: frozenset[tuple[str, int]] | set[tuple[str, int]], depth_bound: int
) -> frozenset[Term]:
    """All ground terms over the signature with depth <= depth_bound.
    Depth counts nodes: constants have depth 1. U_d is the constants plus
    every f(t...) with arguments in U_{d-1}, so |U_1| = |constants| and
    |U_d| = |constants| + Σ |U_{d-1}|^arity over the functions. Every level's
    size is computed by that rule before any term is built, and a level over
    _UNIVERSE_CAP is a ValueError. The bound is at least 1, as
    least_model_bounded checks."""
    _check_universe(signature, depth_bound)
    functions = [(name, arity) for name, arity in signature if arity > 0]
    terms = constants = frozenset(Fn(name) for name, arity in signature if arity == 0)
    for _ in range(depth_bound - 1 if functions else 0):
        terms = constants.union(
            Fn(name, args) for name, arity in functions for args in product(terms, repeat=arity)
        )
    return terms


def _check_universe(
    signature: Iterable[tuple[str, int]], depth_bound: int, unbound: int = 1
) -> None:
    """Refuse by bounded_universe's sizing rule, building no term: a
    signature with no constant, a level over _UNIVERSE_CAP, then, for a
    clause with `unbound` unbound head variables, more instances per body
    match than the cap."""
    arities = [arity for _, arity in signature]
    size = constants = arities.count(0)
    if not constants:
        raise ValueError("signature has no constant: the universe would be empty")
    for d in range(2, depth_bound + 1):
        level = constants + sum(size**arity for arity in arities if arity)
        if level == size:
            break
        if level > _UNIVERSE_CAP:
            raise ValueError(
                f"bounded universe would hold {level} terms at depth {d} "
                f"(cap {_UNIVERSE_CAP}); lower the depth bound"
            )
        size = level
    if size**unbound > _UNIVERSE_CAP:
        raise ValueError(
            f"a clause with {unbound} unbound head variables would have "
            f"{size}^{unbound} instances per body match (cap {_UNIVERSE_CAP}); "
            "lower the depth bound"
        )


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
            if not free:
                yield apply_to_literal(head, theta)
                continue
            for values in product(universe, repeat=len(free)):
                yield apply_to_literal(head, theta | dict(zip(free, values)))


def least_model_bounded(
    p: HornProgram, depth_bound: int, widen: Iterable[Literal] = ()
) -> BoundedModel:
    """The least fixpoint of the immediate-consequence step truncated at the
    bound (the bounded base is finite and the step is inflationary and
    monotone, so it exists), computed semi-naively over the language of p
    and the widen literals (module docstring) and kept in the model slot. A
    bound below 1 is a ValueError: no atom has depth 0."""
    return _least_model(p, depth_bound, widen).model


class _Entry(NamedTuple):
    """The model slot (module docstring); the model carries the bound. The
    program is held by weak reference (_forget). The signature is the one the
    universe is built over, None when every clause is range-restricted."""

    program: weakref.ref[HornProgram]
    signature: frozenset[tuple[str, int]] | None
    model: BoundedModel
    dropped: frozenset[Literal]
    support: frozenset[Literal]


_slot: _Entry | None = None


def _forget(ref: weakref.ref[HornProgram]) -> None:
    """The callback of the slot's weak reference to its program: when the
    program dies, empty the slot if it still holds that reference. The slot
    is read once; emptying an entry stored meanwhile costs one miss."""
    global _slot
    if getattr(_slot, "program", None) is ref:
        _slot = None


def _least_model(p: HornProgram, depth_bound: int, widen: Iterable[Literal] = ()) -> _Entry:
    """Every model query's way to the slot: check the bound and find the
    signature the universe is built over (module docstring), then a hit
    returns the slot; a slot whose program is a clause subset of p under the
    same bound and signature is the base of a warm start; anything else,
    a slot whose program has died included, builds from empty. Only a miss
    builds the universe. The result replaces the slot."""
    global _slot
    if depth_bound < 1:
        raise ValueError("depth bound must be a positive integer")
    signature = None
    if not p.range_restricted:
        signature = p.signature() | term_signature(a for l in widen for a in l.args)
    base = _slot
    held = base.program() if base is not None else None
    if (
        held is None
        or base.model.depth_bound != depth_bound
        or base.signature != signature
        or not held.clauses <= p.clauses
    ):
        base = None
    elif len(held) == len(p):
        return base
    universe: frozenset[Term] = frozenset()
    if signature is not None:
        _check_universe(signature, depth_bound, max(len(c.unbound_head_variables) for c in p))
        universe = bounded_universe(signature, depth_bound)
    model = _fixpoint(p, depth_bound, universe, base)
    _slot = entry = _Entry(weakref.ref(p, _forget), signature, *model)
    return entry


def _fixpoint(
    p: HornProgram, depth_bound: int, universe: frozenset[Term], base: _Entry | None
) -> tuple[BoundedModel, frozenset[Literal], frozenset[Literal]]:
    """From empty, round 0 fires every clause on nothing, so only unit
    clauses derive; from a base, whose program the caller holds, round 0
    fires the clauses the base lacks over the base's atoms. Every later
    round fires the rules on the atoms the previous round added. A head
    deeper than the bound is dropped and counted once."""
    old: frozenset[Literal] = frozenset()
    clauses: Iterable[Clause]
    if base is None:
        new, dropped, support, clauses = old, set(), set(), p
    else:
        new, dropped, support = base.model.atoms, set(base.dropped), set(base.support)
        clauses = p.clauses - base.program().clauses
    rules = p.rules
    # An atom's term counts the predicate node: depth_bound + 1 is a
    # literal depth of depth_bound.
    deepest = depth_bound + 1
    while True:
        known = old | new
        fresh: set[Literal] = set()
        for clause in clauses:
            supports = not clause.is_fact
            for h in _ground_clause_instances(clause, old, new, known, universe):
                if supports:
                    support.add(h)
                if h in known or h in fresh or h in dropped:
                    continue
                if h.term.depth <= deepest:
                    fresh.add(h)
                else:
                    dropped.add(h)
        if not fresh:
            model = BoundedModel(depth_bound, known, truncated=len(dropped))
            return model, frozenset(dropped), frozenset(support)
        old, new, clauses = known, frozenset(fresh), rules


def reduce_program(p: HornProgram, depth_bound: int) -> HornProgram:
    """Removal of redundant clauses: a clause goes when another remaining
    clause theta-subsumes it, or when it is a ground fact derivable from the
    remaining program's bounded model. Scanning is largest clause first with
    canonical-text tiebreak, so the result is deterministic. One pass is a
    fixpoint: with the signature pinned, both tests are monotone in the
    remaining set, so a clause kept once stays kept. Neither removal changes
    the bounded model, so the result has p's.

    A candidate index, built once per call and dropped with it, picks the
    clauses d that may subsume c. It holds each clause's (sign, predicate,
    arity) key set and ground-literal set, and a dict from each ground
    literal to the clauses holding it. A candidate shares a ground literal
    with c or has none, its keys lie inside c's, and its ground literals all
    occur in c: theta_subsumes' own rejection tests (theta fixes a ground
    literal), so only the pairs it would search are asked, and a ground fact
    is never paired with another.

    The support set (module docstring) of the clauses K kept at the first
    fact test filters the fact tests; a head inside it is still decided by the
    exact test, the bounded model of rest. For a range-restricted p,
    M(K) = M(p), so p's model and support set (a superset of K's) serve. A
    p with an unbound head variable keeps M(K): grounding a clause subsumed
    before the first fact test may exceed the universe cap."""
    global _slot
    clauses = set(p.clauses)
    entry = _least_model(p, depth_bound) if p.range_restricted else None
    support = entry.support if entry else None
    # Removals must not shrink the term language: p's literals widen every
    # fact test, which only a p with an unbound head variable needs.
    pinned = () if entry else frozenset(l for c in p for l in c.literals)
    keys = {c: {(l.positive, l.pred_key) for l in c.literals} for c in clauses}
    ground = {c: {l for l in c.literals if l.term.ground} for c in clauses}
    holders: dict[Literal, list[Clause]] = {}
    for c in clauses:
        for l in ground[c]:
            holders.setdefault(l, []).append(c)
    unground = [c for c in clauses if not ground[c]]
    for c in sorted(clauses, key=lambda c: (-len(c.literals), render_clause(c))):
        candidates = {d for l in ground[c] for d in holders[l]}.union(unground)
        if any(
            d is not c
            and d in clauses
            and keys[d] <= keys[c]
            and ground[d] <= c.literals
            and theta_subsumes(d, c)[0]
            for d in candidates
        ):
            clauses.remove(c)
        elif c.is_fact and len(clauses) > 1:
            if support is None:
                support = _least_model(HornProgram(clauses), depth_bound, pinned).support
            if c.head in support:
                rest = HornProgram(clauses - {c})
                if c.head in least_model_bounded(rest, depth_bound, pinned).atoms:
                    clauses.remove(c)
    result = HornProgram(clauses)
    if entry is not None:
        _slot = entry._replace(program=weakref.ref(result, _forget))
    return result


def covers(
    p: HornProgram,
    examples: frozenset[Literal] | set[Literal],
    depth_bound: int,
) -> dict[Literal, bool]:
    """Per-example membership in the bounded least model. Examples deeper
    than the bound are rejected with a sizing hint."""
    _check_examples(examples, depth_bound)
    model = least_model_bounded(p, depth_bound, frozenset(examples))
    return {e: e in model.atoms for e in examples}


def is_covered(p: HornProgram, e: Literal, depth_bound: int) -> bool:
    """covers(p, {e}, depth_bound)[e], read straight off the model slot."""
    _check_examples((e,), depth_bound)
    return e in _least_model(p, depth_bound, (e,)).model.atoms


def _check_examples(examples: Iterable[Literal], depth_bound: int) -> None:
    """Refuse examples deeper than the bound, with a sizing hint, then any
    that is not a ground positive atom."""
    too_deep = [e for e in examples if literal_depth(e) > depth_bound]
    if too_deep:
        worst = max(literal_depth(e) for e in too_deep)
        raise ValueError(
            f"{len(too_deep)} example(s) exceed depth bound {depth_bound}; "
            f"use a bound of at least {worst}"
        )
    for e in examples:
        if not e.positive or not e.term.ground:
            raise ValueError(f"examples must be ground positive atoms: {render_literal(e)}")


def default_depth_bound(max_example_depth: int, background: Iterable[Clause] = ()) -> int:
    """The deepest of the examples and the background clauses, plus 4: large
    enough that every trace at desk scale saturates and no background clause
    falls outside the bounded base."""
    return max([max_example_depth] + [c.max_depth() for c in background]) + 4
