"""
Core symbolic objects: terms, literals, clauses, Horn programs, substitutions.

Everything here is immutable and hashable; all operations are pure functions.
A functor identity is the pair (name, arity): the same name at two arities is
two distinct symbols. Term depth counts nodes, so constants and variables have
depth 1.

Terms, literals, clauses and programs are hash-consed (Filliâtre & Conchon,
"Type-safe modular hash-consing", 2006): `Var`, `Fn`, `Literal`, `Clause`
and `HornProgram` return the existing node for an equal value, so `==` is
identity and a node's hash is its identity. All nodes share one intern
table, keyed on their constructor arguments: (name,), (functor, args),
(positive, term), (literals,) or (clauses, HornProgram), so that the empty
program's key differs from the empty clause's. A term node also stores its
depth and groundness, computed from its children when it is built, its
subterm and variable sets once first asked for, and its own-name text
(variables by their own names) once it is first rendered; `syntax` fills
that slot. A clause node stores its head/body views and its canonical text
once first asked for, so a clause rebuilt equal to one still alive reads
them; no lock guards them, since threads that race compute equal values. A
program node checks that its clauses are definite, and records whether they
are all range-restricted, once, when it is built; a refused program is never
interned.

The intern table is a plain dict from a key to a weak reference to its node
that also keeps the key. A constructor looks the key up and calls the
reference: a hit is one dict lookup and one call, about 0.25 µs for a
`Literal`. A miss builds the node and stores its reference under one lock,
replacing a reference whose node has died; a miss whose node later dies
costs about 1.6 µs in all (2-core VM, Python 3.11). The table stays weak: a
node nothing else refers to leaves it when its reference's callback runs,
and what was stored on it goes with it. The callback removes an entry only
while it holds a dead reference, so a node built again in the meantime
keeps its entry.

A literal is a sign and an atom, and the atom is a term rooted at the
predicate symbol (Plotkin 1970), so matching, lgg, distance and rendering of
literals are the term walks themselves. The argument views (`literal_subterms`,
`HornProgram.signature`) leave the predicate node out: a predicate is not a
term of the universe. A set of nodes iterates in the order the allocator
placed them, which can differ from process to process; output never depends
on it: what is rendered is sorted first.
"""

from __future__ import annotations

import threading
import weakref
from _weakref import _remove_dead_weakref
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

# key -> _Ref to the node: a plain dict of weak references (module docstring).
_interned: dict[tuple, "_Ref"] = {}
_intern_lock = threading.Lock()
_set = object.__setattr__


class _Ref(weakref.ref):
    """An intern-table entry: a weak reference to the node that keeps its
    key, so that the node's death removes the entry."""

    __slots__ = ("key",)


def _drop(ref: _Ref, remove=_remove_dead_weakref, table=_interned) -> None:
    """The death callback: remove the entry only while it still holds a dead
    reference, so an entry that a new node has taken over stays. `remove` and
    `table` are bound here because interpreter exit may clear the module's
    globals before the last nodes die."""
    remove(table, ref.key)


class _Node:
    """A node is keyed on its constructor arguments in the one intern table
    (module docstring); its hash is its identity."""

    __slots__ = ("_key", "__weakref__")

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return (type(self), self._key)

    @classmethod
    def _intern(cls, key: tuple):
        """Build the node for key and store it, unless another thread has
        stored a live one first: then that one is the node. A dead entry,
        whose callback has not run yet, is replaced. A _fill that raises
        leaves the table as it was."""
        node = object.__new__(cls)
        node._fill(*key)
        _set(node, "_key", key)
        ref = _Ref(node, _drop)
        ref.key = key
        with _intern_lock:
            entry = _interned.setdefault(key, ref)
            if entry is not ref:
                other = entry()
                if other is not None:
                    return other
                _interned[key] = ref
        return node


# What a constructor's lookup `_interned.get(key, _DEAD)()` reads on a miss: a
# reference whose node is already gone.
_DEAD = weakref.ref(object.__new__(_Node))


class Var(_Node):
    """A logic variable. Names start with an uppercase letter in text syntax."""

    __slots__ = ("name",)
    depth = 1
    ground = False

    def __new__(cls, name: str) -> "Var":
        return _interned.get((name,), _DEAD)() or cls._intern((name,))

    def _fill(self, name: str) -> None:
        _set(self, "name", name)

    def __repr__(self) -> str:
        return f"Var(name={self.name!r})"


class Fn(_Node):
    """A compound term f(t1, ..., tn). Constants are 0-argument compounds."""

    __slots__ = ("functor", "args", "depth", "ground", "_subterms", "_variables", "_text")

    def __new__(cls, functor: str, args: tuple["Term", ...] = ()) -> "Fn":
        key = (functor, args)
        return _interned.get(key, _DEAD)() or cls._intern(key)

    def _fill(self, functor: str, args: tuple["Term", ...]) -> None:
        depth, ground = 0, True
        for a in args:
            depth = max(depth, a.depth)
            ground = ground and a.ground
        _set(self, "functor", functor)
        _set(self, "args", args)
        _set(self, "depth", depth + 1)
        _set(self, "ground", ground)

    @property
    def arity(self) -> int:
        return len(self.args)

    def __repr__(self) -> str:
        return f"Fn(functor={self.functor!r}, args={self.args!r})"


Term = Var | Fn

Substitution = Mapping[Var, Term]


def const(name: str) -> Fn:
    return Fn(name)


def subterms(t: Term) -> frozenset[Term]:
    """t together with, recursively, every argument subterm. The set stored
    on t holds t itself, so once asked for, t is freed by the cycle collector
    rather than on its last reference."""
    if isinstance(t, Var):
        return frozenset((t,))
    if not hasattr(t, "_subterms"):
        out, stack = {t}, [t]
        while stack:
            new = [a for a in stack.pop().args if a not in out]
            out.update(new)
            stack += [a for a in new if isinstance(a, Fn)]
        _set(t, "_subterms", frozenset(out))
    return t._subterms


def term_signature(terms: Iterable[Term]) -> frozenset[tuple[str, int]]:
    """Functor symbols (name, arity) occurring anywhere in the terms."""
    return frozenset((u.functor, u.arity) for t in terms for u in subterms(t) if isinstance(u, Fn))


def term_variables(t: Term) -> frozenset[Var]:
    if isinstance(t, Var):
        return frozenset((t,))
    if t.ground:
        return frozenset()
    if not hasattr(t, "_variables"):
        _set(t, "_variables", frozenset(u for u in subterms(t) if isinstance(u, Var)))
    return t._variables


def apply_to_term(t: Term, theta: Substitution) -> Term:
    """Simultaneous substitution: bound variables are replaced exactly once."""
    if isinstance(t, Var):
        return theta.get(t, t)
    if t.ground:
        return t
    return Fn(t.functor, tuple([apply_to_term(a, theta) for a in t.args]))


class Literal(_Node):
    """A possibly negated atom: a sign and the atom as a term rooted at the
    predicate. Predicate identity is (predicate, arity)."""

    __slots__ = ("positive", "term")

    def __new__(cls, positive: bool, term: Fn) -> "Literal":
        key = (positive, term)
        return _interned.get(key, _DEAD)() or cls._intern(key)

    def _fill(self, positive: bool, term: Fn) -> None:
        _set(self, "positive", positive)
        _set(self, "term", term)

    def __repr__(self) -> str:
        return f"Literal(positive={self.positive!r}, term={self.term!r})"

    @property
    def predicate(self) -> str:
        return self.term.functor

    @property
    def args(self) -> tuple[Term, ...]:
        return self.term.args

    @property
    def arity(self) -> int:
        return len(self.term.args)

    @property
    def pred_key(self) -> tuple[str, int]:
        return (self.term.functor, len(self.term.args))

    def negated(self) -> "Literal":
        return Literal(not self.positive, self.term)

    def atom(self) -> "Literal":
        """The positive literal with the same atom."""
        return self if self.positive else Literal(True, self.term)


def atom(predicate: str, *args: Term) -> Literal:
    return Literal(True, Fn(predicate, args))


def neg(predicate: str, *args: Term) -> Literal:
    return Literal(False, Fn(predicate, args))


def literal_subterms(lit: Literal) -> frozenset[Term]:
    """Union of the subterm sets of the literal's arguments; for one argument,
    its stored set itself."""
    if len(lit.args) == 1:
        return subterms(lit.args[0])
    return frozenset().union(*map(subterms, lit.args))


def literal_depth(lit: Literal) -> int:
    """The depth of the deepest argument; 1 for a 0-ary atom."""
    return max(lit.term.depth - 1, 1)


def apply_to_literal(lit: Literal, theta: Substitution) -> Literal:
    return Literal(lit.positive, apply_to_term(lit.term, theta))


class _view:
    """A clause view computed on its first read and stored in the node's
    instance dict, which later reads find before this descriptor. There is no
    lock: nodes are interned, so threads that race compute equal values. A
    view that raises stores nothing and raises on every read."""

    def __init__(self, compute):
        self.compute = compute
        self.__doc__ = compute.__doc__

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, node, owner=None):
        if node is None:
            return self
        value = node.__dict__[self.name] = self.compute(node)
        return value


class Clause(_Node):
    """A finite duplicate-free set of literals, read as a disjunction.

    A clause is definite iff it has exactly one positive literal; that literal
    is the head and the negated literals form the body. The set view is
    primary; the head/body view is derived.
    """

    # The instance dict holds the views cached below and the canonical text
    # `syntax.render_clause` stores.
    __slots__ = ("literals", "__dict__")

    def __new__(cls, literals: Iterable[Literal]) -> "Clause":
        key = (frozenset(literals),)
        node = _interned.get(key, _DEAD)()
        return cls._intern(key) if node is None else node

    def _fill(self, literals: frozenset[Literal]) -> None:
        _set(self, "literals", literals)

    def __repr__(self) -> str:
        return f"Clause(literals={self.literals!r})"

    def __iter__(self) -> Iterator[Literal]:
        return iter(self.literals)

    def __len__(self) -> int:
        return len(self.literals)

    # The views below are cached on the node: a replay or an lgg that
    # rebuilds an equal clause reads them.
    @_view
    def positives(self) -> tuple[Literal, ...]:
        return tuple(l for l in self.literals if l.positive)

    @_view
    def negatives(self) -> tuple[Literal, ...]:
        return tuple(l for l in self.literals if not l.positive)

    @property
    def is_definite(self) -> bool:
        return len(self.positives) == 1

    @_view
    def head(self) -> Literal:
        pos = self.positives
        if len(pos) != 1:
            raise ValueError(f"clause is not definite: {self}")
        return pos[0]

    @_view
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
            and self.head.term.ground
        )

    @property
    def is_unit(self) -> bool:
        return len(self.literals) == 1

    @_view
    def unbound_head_variables(self) -> frozenset[Var]:
        """Head variables that occur in no body literal. Defined for definite
        clauses only."""
        body = (term_variables(l.term) for l in self.body)
        return term_variables(self.head.term).difference(*body)

    @property
    def range_restricted(self) -> bool:
        """Every head variable occurs in the body (facts qualify vacuously)."""
        return not self.unbound_head_variables

    def variables(self) -> frozenset[Var]:
        return frozenset().union(*(term_variables(l.term) for l in self.literals))

    def max_depth(self) -> int:
        return max((literal_depth(l) for l in self.literals), default=1)

    def is_tautology(self) -> bool:
        return any(l.negated() in self.literals for l in self.literals)


def fact(lit: Literal) -> Clause:
    return Clause((lit,))


def apply_to_clause(c: Clause, theta: Substitution) -> Clause:
    """Apply theta to every literal; the result set is deduplicated."""
    return Clause(apply_to_literal(l, theta) for l in c.literals)


class HornProgram(_Node):
    """A finite set of definite clauses. Ground unit clauses are facts.
    `range_restricted` (every clause is) is recorded when the node is built,
    since every model query asks it."""

    __slots__ = ("clauses", "range_restricted")

    def __new__(cls, clauses: Iterable[Clause] = ()) -> "HornProgram":
        key = (frozenset(clauses), HornProgram)
        node = _interned.get(key, _DEAD)()
        return cls._intern(key) if node is None else node

    def __reduce__(self):
        return (HornProgram, (self.clauses,))

    def _fill(self, clauses: frozenset[Clause], _kind: type) -> None:
        for c in clauses:
            if not c.is_definite:
                raise ValueError(f"non-definite clause in Horn program: {c}")
        _set(self, "clauses", clauses)
        _set(self, "range_restricted", all(c.range_restricted for c in clauses))

    def __repr__(self) -> str:
        return f"HornProgram(clauses={self.clauses!r})"

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

    def signature(self) -> frozenset[tuple[str, int]]:
        """Functor symbols (name, arity) occurring in the program's terms."""
        return term_signature(a for c in self.clauses for l in c.literals for a in l.args)


@dataclass(frozen=True)
class ExampleStream:
    """Ordered arrivals of ground positive literals."""

    arrivals: tuple[Literal, ...]

    def __init__(self, arrivals: Iterable[Literal]):
        arr = tuple(arrivals)
        for a in arr:
            if not a.positive:
                raise ValueError(f"example is not positive: {a}")
            if not a.term.ground:
                raise ValueError(f"example is not ground: {a}")
        object.__setattr__(self, "arrivals", arr)

    def __iter__(self) -> Iterator[Literal]:
        return iter(self.arrivals)

    def __len__(self) -> int:
        return len(self.arrivals)

    def max_depth(self) -> int:
        return max((literal_depth(a) for a in self.arrivals), default=1)
