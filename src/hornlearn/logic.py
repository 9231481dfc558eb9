"""
Core symbolic objects: terms, literals, clauses, Horn programs, substitutions.

Everything here is immutable and hashable; all operations are pure functions.
A functor identity is the pair (name, arity): the same name at two arities is
two distinct symbols. Term depth counts nodes, so constants and variables have
depth 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping


@dataclass(frozen=True)
class Var:
    """A logic variable. Names start with an uppercase letter in text syntax."""

    name: str


@dataclass(frozen=True)
class Fn:
    """A compound term f(t1, ..., tn). Constants are 0-argument compounds."""

    functor: str
    args: tuple["Term", ...] = ()

    @property
    def arity(self) -> int:
        return len(self.args)


Term = Var | Fn

Substitution = Mapping[Var, Term]


def const(name: str) -> Fn:
    return Fn(name)


def depth(t: Term) -> int:
    if isinstance(t, Var):
        return 1
    if not t.args:
        return 1
    return 1 + max(depth(a) for a in t.args)


def subterms(t: Term) -> frozenset[Term]:
    """t together with, recursively, every argument subterm."""
    out: set[Term] = {t}
    if isinstance(t, Fn):
        for a in t.args:
            out |= subterms(a)
    return frozenset(out)


def term_signature(terms: Iterable[Term]) -> frozenset[tuple[str, int]]:
    """Functor symbols (name, arity) occurring anywhere in the terms."""
    out: set[tuple[str, int]] = set()
    stack = list(terms)
    while stack:
        t = stack.pop()
        if isinstance(t, Fn):
            out.add((t.functor, t.arity))
            stack.extend(t.args)
    return frozenset(out)


def term_variables(t: Term) -> frozenset[Var]:
    if isinstance(t, Var):
        return frozenset((t,))
    out: set[Var] = set()
    for a in t.args:
        out |= term_variables(a)
    return frozenset(out)


def is_ground_term(t: Term) -> bool:
    stack = [t]
    while stack:
        t = stack.pop()
        if isinstance(t, Var):
            return False
        stack.extend(t.args)
    return True


def apply_to_term(t: Term, theta: Substitution) -> Term:
    """Simultaneous substitution: bound variables are replaced exactly once."""
    if isinstance(t, Var):
        return theta.get(t, t)
    if not t.args:
        return t
    return Fn(t.functor, tuple(apply_to_term(a, theta) for a in t.args))


@dataclass(frozen=True)
class Literal:
    """A possibly negated atom. Predicate identity is (predicate, arity)."""

    positive: bool
    predicate: str
    args: tuple[Term, ...] = ()

    @property
    def arity(self) -> int:
        return len(self.args)

    @property
    def pred_key(self) -> tuple[str, int]:
        return (self.predicate, len(self.args))

    def negated(self) -> "Literal":
        return Literal(not self.positive, self.predicate, self.args)

    def atom(self) -> "Literal":
        """The positive literal with the same predicate and arguments."""
        return self if self.positive else Literal(True, self.predicate, self.args)


def atom(predicate: str, *args: Term) -> Literal:
    return Literal(True, predicate, tuple(args))


def neg(predicate: str, *args: Term) -> Literal:
    return Literal(False, predicate, tuple(args))


def literal_subterms(lit: Literal) -> frozenset[Term]:
    """Union of the subterm sets of the literal's arguments."""
    out: set[Term] = set()
    for a in lit.args:
        out |= subterms(a)
    return frozenset(out)


def literal_variables(lit: Literal) -> frozenset[Var]:
    out: set[Var] = set()
    for a in lit.args:
        out |= term_variables(a)
    return frozenset(out)


def literal_depth(lit: Literal) -> int:
    return max((depth(a) for a in lit.args), default=1)


def is_ground_literal(lit: Literal) -> bool:
    return all(is_ground_term(a) for a in lit.args)


def apply_to_literal(lit: Literal, theta: Substitution) -> Literal:
    return Literal(
        lit.positive, lit.predicate, tuple(apply_to_term(a, theta) for a in lit.args)
    )


@dataclass(frozen=True)
class Clause:
    """A finite duplicate-free set of literals, read as a disjunction.

    A clause is definite iff it has exactly one positive literal; that literal
    is the head and the negated literals form the body. The set view is
    primary; the head/body view is derived.
    """

    literals: frozenset[Literal]

    def __init__(self, literals: Iterable[Literal]):
        object.__setattr__(self, "literals", frozenset(literals))

    def __iter__(self) -> Iterator[Literal]:
        return iter(self.literals)

    def __len__(self) -> int:
        return len(self.literals)

    # The views below are cached: a Clause is immutable, and T_P asks for
    # head and body once per clause and round.
    @cached_property
    def positives(self) -> tuple[Literal, ...]:
        return tuple(l for l in self.literals if l.positive)

    @cached_property
    def negatives(self) -> tuple[Literal, ...]:
        return tuple(l for l in self.literals if not l.positive)

    @property
    def is_definite(self) -> bool:
        return len(self.positives) == 1

    @cached_property
    def head(self) -> Literal:
        pos = self.positives
        if len(pos) != 1:
            raise ValueError(f"clause is not definite: {self}")
        return pos[0]

    @cached_property
    def body(self) -> tuple[Literal, ...]:
        """Body atoms (positive form) of a definite clause."""
        if not self.is_definite:
            raise ValueError(f"clause is not definite: {self}")
        return tuple(l.atom() for l in self.negatives)

    @property
    def is_fact(self) -> bool:
        """A ground unit clause with a positive literal."""
        return (
            len(self.literals) == 1
            and self.is_definite
            and is_ground_literal(self.head)
        )

    @property
    def is_unit(self) -> bool:
        return len(self.literals) == 1

    @cached_property
    def unbound_head_variables(self) -> frozenset[Var]:
        """Head variables that occur in no body literal. Defined for definite
        clauses only."""
        return literal_variables(self.head).difference(*map(literal_variables, self.body))

    @property
    def range_restricted(self) -> bool:
        """Every head variable occurs in the body (facts qualify vacuously)."""
        return not self.unbound_head_variables

    def variables(self) -> frozenset[Var]:
        out: set[Var] = set()
        for l in self.literals:
            out |= literal_variables(l)
        return frozenset(out)

    def max_depth(self) -> int:
        return max((literal_depth(l) for l in self.literals), default=1)

    def is_tautology(self) -> bool:
        return any(l.negated() in self.literals for l in self.literals)


def fact(lit: Literal) -> Clause:
    return Clause((lit,))


def apply_to_clause(c: Clause, theta: Substitution) -> Clause:
    """Apply theta to every literal; the result set is deduplicated."""
    return Clause(apply_to_literal(l, theta) for l in c.literals)


@dataclass(frozen=True)
class HornProgram:
    """A finite set of definite clauses. Ground unit clauses are facts."""

    clauses: frozenset[Clause]

    def __init__(self, clauses: Iterable[Clause] = ()):
        cs = frozenset(clauses)
        for c in cs:
            if not c.is_definite:
                raise ValueError(f"non-definite clause in Horn program: {c}")
        object.__setattr__(self, "clauses", cs)

    def __iter__(self) -> Iterator[Clause]:
        return iter(self.clauses)

    def __len__(self) -> int:
        return len(self.clauses)

    def __contains__(self, c: Clause) -> bool:
        return c in self.clauses

    @property
    def facts(self) -> list[Clause]:
        return [c for c in self.clauses if c.is_fact]

    @property
    def rules(self) -> list[Clause]:
        """Non-unit clauses (everything with a nonempty body)."""
        return [c for c in self.clauses if not c.is_unit]

    def with_clauses(self, extra: Iterable[Clause]) -> "HornProgram":
        return HornProgram(self.clauses | frozenset(extra))

    def without_clauses(self, gone: Iterable[Clause]) -> "HornProgram":
        return HornProgram(self.clauses - frozenset(gone))

    @property
    def range_restricted(self) -> bool:
        return all(c.range_restricted for c in self.clauses)

    def signature(self) -> frozenset[tuple[str, int]]:
        """Functor symbols (name, arity) occurring in the program's terms."""
        return term_signature(a for c in self.clauses for l in c.literals for a in l.args)


@dataclass(frozen=True)
class ExampleStream:
    """Ordered arrivals of ground positive literals.

    The cumulative view E_n is the set of the first n+1 arrivals, so
    E_0 ⊆ E_1 ⊆ ... by construction.
    """

    arrivals: tuple[Literal, ...]

    def __init__(self, arrivals: Iterable[Literal]):
        arr = tuple(arrivals)
        for a in arr:
            if not a.positive:
                raise ValueError(f"example is not positive: {a}")
            if not is_ground_literal(a):
                raise ValueError(f"example is not ground: {a}")
        object.__setattr__(self, "arrivals", arr)

    def __iter__(self) -> Iterator[Literal]:
        return iter(self.arrivals)

    def __len__(self) -> int:
        return len(self.arrivals)

    def cumulative(self, n: int) -> frozenset[Literal]:
        """E_n: the set of the first n+1 arrivals."""
        return frozenset(self.arrivals[: n + 1])

    def max_depth(self) -> int:
        return max((literal_depth(a) for a in self.arrivals), default=1)
