"""
Theta-subsumption and clause variant equality.

Clause c subsumes d iff some substitution theta over c's variables makes
c·theta a literal subset of d. The search, `substitutions`, is complete
backtracking over literal matchings; it also grounds rule bodies for the
immediate-consequence step in `semantics`.

`theta_subsumes` first rejects a pair on two necessary conditions that are
plain set inclusions: every (sign, predicate, arity) of c occurs in d, and
every ground literal of c is literally in d (theta fixes it). Only a pair
that passes both is sorted and searched, so the witness is unchanged. The
search takes c's literals with the fewest candidates in d first, so a
clause's one head is matched before the assignments of its twin body, and
after the first literal it takes the first of that order that shares a
variable with those already taken (the connected order of CSP-style
subsumption, Maloberti & Sebag 2004), so a cyclic body is matched along its
cycle. The worst case stays exponential.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Collection, Iterator, Sequence

from .logic import (
    Clause,
    Literal,
    Substitution,
    Term,
    Var,
    term_variables,
)
from .syntax import literal_order, render_clause


def match_terms(pattern: Term, target: Term, theta: dict[Var, Term]) -> dict[Var, Term] | None:
    """One-way matching: only pattern-side variables bind. A ground pattern
    matches only itself, and terms are interned, so that is one identity
    test."""
    if isinstance(pattern, Var):
        bound = theta.get(pattern)
        if bound is None:
            out = dict(theta)
            out[pattern] = target
            return out
        return theta if bound is target else None
    if pattern.ground:
        return theta if pattern is target else None
    if isinstance(target, Var):
        return None
    if pattern.functor != target.functor or len(pattern.args) != len(target.args):
        return None
    for pa, ta in zip(pattern.args, target.args):
        next_theta = match_terms(pa, ta, theta)
        if next_theta is None:
            return None
        theta = next_theta
    return theta


def substitutions(
    patterns: Sequence[Literal],
    targets: Sequence[Collection[Literal]],
    theta: dict[Var, Term],
) -> Iterator[dict[Var, Term]]:
    """Every extension of theta that maps each pattern literal onto some
    literal of the target collection at its position, depth-first: the first
    pattern tries its targets in their iteration order, and each match
    recurses on the remaining patterns. This is the one search behind both
    theta-subsumption (the same clause at every position) and T_P grounding
    (old, new or all atoms by position, for semi-naive evaluation). A pattern
    literal matches a target of its sign whose atom its atom matches; a
    ground one matches only itself, so it is one membership test, and a run
    of ground patterns is tested in a loop: only a non-ground pattern
    recurses, so a long ground rule body does not reach the recursion
    limit."""
    for i, pattern in enumerate(patterns):
        if not pattern.term.ground:
            break
        if pattern not in targets[i]:
            return
    else:
        yield theta
        return
    rest, rest_targets = patterns[i + 1:], targets[i + 1:]
    for target in targets[i]:
        if pattern.positive != target.positive:
            continue
        extended = match_terms(pattern.term, target.term, theta)
        if extended is not None:
            yield from substitutions(rest, rest_targets, extended)


def theta_subsumes(c: Clause, d: Clause) -> tuple[bool, Substitution | None]:
    """Whether c theta-subsumes d; on success also the witness substitution.

    The witness is over c's original variables, so
    apply_to_clause(c, theta).literals ⊆ d.literals holds literally.
    """
    # The two rejection tests of the module docstring, before any sorting.
    # The set difference reuses the hashes the frozensets store.
    d_keys = Counter((l.positive, l.pred_key) for l in d.literals)
    if any((l.positive, l.pred_key) not in d_keys for l in c.literals) or any(
        l.term.ground for l in c.literals - d.literals
    ):
        return False, None
    # Most-constrained literals first prunes early: fewest candidates in d,
    # then fewest variables; the text tiebreak keeps the witness deterministic.
    ranked = sorted(
        c.literals,
        key=lambda l: (d_keys[l.positive, l.pred_key], len(term_variables(l.term)), literal_order(l)),
    )
    # Connected order: the next literal is the first ranked one that shares
    # a variable with those taken (the first ranked one if none does), so
    # the search binds along shared variables instead of backtracking
    # through assignments that do not constrain each other.
    c_lits, seen = [], set()
    while ranked:
        i = next((k for k, l in enumerate(ranked) if seen & term_variables(l.term)), 0)
        c_lits.append(ranked.pop(i))
        seen.update(term_variables(c_lits[-1].term))
    d_lits = sorted(d.literals, key=literal_order)
    witness = next(substitutions(c_lits, [d_lits] * len(c_lits), {}), None)
    return witness is not None, witness


def clause_variant_equal(c: Clause, d: Clause) -> bool:
    """Equality up to bijective variable renaming.

    Canonical renderings are renaming-invariant (within the permutation
    budget of `syntax.render_clause`), so this reduces to string equality.
    """
    return render_clause(c) == render_clause(d)


def program_variant_equal(p, q) -> bool:
    return {render_clause(c) for c in p} == {render_clause(c) for c in q}


def reduce_clause(c: Clause) -> Clause:
    """Plotkin literal-reduction: drop literals while the clause still
    theta-subsumes the smaller clause (the result is theta-equivalent).
    One pass suffices: each intermediate C' ⊆ c is theta-equivalent to c,
    and if C' can drop l then so can c, so a literal kept once stays kept."""
    current = c
    for lit in sorted(c.literals, key=literal_order):
        smaller = Clause(current.literals - {lit})
        if smaller.literals and theta_subsumes(current, smaller)[0]:
            current = smaller
    return current
