"""
Text syntax: parsing and canonical rendering of terms, clauses and programs.

Grammar (UTF-8 text):
  program file    = sequence of clauses, each terminated by "."
  fact            = atom
  rule            = head ":-" body1, ..., bodyk
  atom            = lowercase functor, optionally with parenthesized args
  variables       = uppercase-initial identifiers
  "%"             = line comment
  stream file     = one ground atom per line, "."-terminated, arrival order
                    = line order

Rendering is deterministic and canonical: clauses are sorted by (head
predicate, arity, max term depth, rendered text) and variables are renamed
X0, X1, ... in first-occurrence order. Canonical renderings of clauses are
renaming-invariant, so string equality of canonical forms is clause variant
equality. All rendering is one term walk, on an explicit stack so that no
term is too deep for it, that names variables as it goes: by their own
names, as "*" in the skeleton sort key, or X0, X1, ... in the order the
canonical renderer meets them.

Terms are hash-consed, so a node's own-name text is a function of the node:
the first render stores it on every node it composes, and later renders of
the node, or of any term containing it, read it, as does the renaming walk
for each ground subterm. A chain such as s^30(0) is rendered once while
it lives, not once per sort. The stored texts cost the sum of their lengths
over the distinct nodes rendered: on a unary chain of depth D about
1.5 * D^2 characters, ~54 KB at D = 190 and ~6 MB at D = 2,000.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from itertools import groupby, permutations, product
from math import factorial, prod
from operator import itemgetter

from .logic import (
    Clause,
    ExampleStream,
    Fn,
    HornProgram,
    Literal,
    Term,
    Var,
)


class ParseError(ValueError):
    """Syntax or well-formedness error, with 1-based line/column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


# ---------------------------------------------------------------------------
# Tokenizer


_PUNCT = {":-": "arrow", "(": "lparen", ")": "rparen", ",": "comma", ".": "dot", ";": "semi"}
_TOKEN = re.compile(
    r"(?P<newline>\n)|[ \t\r]+|(?P<comment>%[^\n]*)|(?P<punct>:-|[(),.;])|(?P<word>\w+)|(?P<bad>.)"
)


def _tokenize(text: str) -> list[tuple[str, str, int, int]]:
    """Tokens as (kind, text, line, column). A comment does not advance the
    column, so the eof token after a trailing comment reports its start."""
    tokens = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind, tok, col = m.lastgroup, m.group(), m.start() - line_start + 1
        if kind == "newline":
            line, line_start = line + 1, m.end()
        elif kind == "comment":
            line_start += len(tok)
        elif kind == "punct":
            tokens.append((_PUNCT[tok], tok, line, col))
        elif kind == "word" and (tok[0].isalpha() or tok[0].isdigit() or tok[0] == "_"):
            tokens.append(("var" if tok[0].isupper() else "name", tok, line, col))
        elif kind is not None:  # \w also admits numerics that may not start a word
            raise ParseError(f"unexpected character {tok[0]!r}", line, col)
    tokens.append(("eof", "", line, len(text) - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> tuple[str, str, int, int]:
        return self.tokens[self.pos]

    def next(self) -> tuple[str, str, int, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> tuple[str, str, int, int]:
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {what}, found {tok[1]!r}", tok[2], tok[3])
        return tok

    def error(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok[2], tok[3])

    def parse_term(self) -> Term:
        kind, word, line, col = self.next()
        if kind == "var":
            return Var(word)
        if kind != "name":
            raise ParseError(f"expected a term, found {word!r}", line, col)
        if self.peek()[0] != "lparen":
            return Fn(word)
        self.next()
        args = [self.parse_term()]
        while self.peek()[0] == "comma":
            self.next()
            args.append(self.parse_term())
        self.expect("rparen", "')'")
        return Fn(word, tuple(args))

    def parse_atom(self) -> Literal:
        kind, word, line, col = self.peek()
        if kind != "name":
            raise ParseError(f"expected an atom, found {word!r}", line, col)
        t = self.parse_term()
        assert isinstance(t, Fn)
        return Literal(True, t)

    def parse_clause(self) -> Clause:
        head = self.parse_atom()
        kind = self.peek()[0]
        if kind == "semi":
            raise self.error("disjunctive heads are not supported")
        if kind == "dot":
            self.next()
            return Clause((head,))
        self.expect("arrow", "':-' or '.'")
        body = [self.parse_atom()]
        while self.peek()[0] == "comma":
            self.next()
            body.append(self.parse_atom())
        self.expect("dot", "'.'")
        return Clause([head] + [b.negated() for b in body])


def parse_term(text: str) -> Term:
    p = _Parser(text)
    t = p.parse_term()
    p.expect("eof", "end of input")
    return t


def parse_atom(text: str) -> Literal:
    p = _Parser(text)
    a = p.parse_atom()
    if p.peek()[0] == "dot":
        p.next()
    p.expect("eof", "end of input")
    return a


def parse_program(text: str) -> HornProgram:
    return HornProgram(parse_clauses(text))


def parse_clauses(text: str) -> list[Clause]:
    """Clauses in file order, without assembling a program."""
    p = _Parser(text)
    clauses = []
    while p.peek()[0] != "eof":
        clauses.append(p.parse_clause())
    return clauses


def parse_example_stream(text: str) -> ExampleStream:
    p = _Parser(text)
    arrivals = []
    while p.peek()[0] != "eof":
        _, _, line, col = p.peek()
        lit = p.parse_atom()
        p.expect("dot", "'.'")
        if not lit.term.ground:
            raise ParseError(f"example is not ground: {render_literal(lit)}", line, col)
        arrivals.append(lit)
    return ExampleStream(arrivals)


# ---------------------------------------------------------------------------
# Rendering


def _term_text(t: Term, name: Callable[[Var], str] | None) -> str:
    """The one rendering walk: bottom-up on one explicit stack, children left
    to right, so no term is too deep for it. `name` gives each variable
    occurrence's text, in the order the walk meets them, and a ground
    subterm is its stored own-name text. With `name` None variables keep
    their own names and every node the walk composes stores its text."""
    texts: list[str] = []
    work: list[tuple[Term, bool]] = [(t, False)]
    while work:
        u, expanded = work.pop()
        if expanded:
            k = len(u.args)
            parts = texts[len(texts) - k:]
            del texts[len(texts) - k:]
            text = f"{u.functor}({', '.join(parts)})" if parts else u.functor
            if name is None:
                object.__setattr__(u, "_text", text)  # Fn refuses plain assignment
            texts.append(text)
        elif isinstance(u, Var):
            texts.append(u.name if name is None else name(u))
        elif name is not None and u.ground:
            texts.append(render_term(u))
        elif name is None and hasattr(u, "_text"):
            texts.append(u._text)
        else:
            work.append((u, True))
            work.extend((a, False) for a in reversed(u.args))
    return texts[0]


def render_term(t: Term) -> str:
    """t's text with variables by their own names: stored on a node the
    first time it is rendered, and read from there ever after."""
    try:
        return t._text
    except AttributeError:
        return _term_text(t, None)


def render_literal(lit: Literal) -> str:
    return render_term(lit.term)


def literal_order(lit: Literal) -> tuple[bool, str]:
    """Deterministic literal sort key: positives first, then rendered text."""
    return (not lit.positive, render_literal(lit))


def _render_in_order(literals: list[Literal], name: Callable[[Var], str]) -> str:
    """Render with literals in the given order: positives first as the head
    part, negatives as the body. Non-definite clauses get a display-only
    form ('h1 ; h2 :- b') that the grammar deliberately rejects."""
    head_txt = " ; ".join(_term_text(l.term, name) for l in literals if l.positive)
    body_txt = ", ".join(_term_text(l.term, name) for l in literals if not l.positive)
    if not body_txt:
        return f"{head_txt}."
    if not head_txt:
        return f":- {body_txt}."
    return f"{head_txt} :- {body_txt}."


def _skeleton(lit: Literal) -> str:
    """Rendering with variable names erased; renaming-invariant sort key."""
    sign = "+" if lit.positive else "-"
    args = ", ".join(_term_text(a, lambda v: "*") for a in lit.args)
    return f"{sign}{lit.predicate}/{len(lit.args)}({args})"


def _renamed(literals: list[Literal]) -> tuple[tuple[int, ...], str]:
    """(occurrence pattern, rendering) with variables named X0, X1, ... as
    the walk meets them. Literals arrive positives first, so walk order is
    first-occurrence order. The pattern lists the index of every variable
    occurrence; for one literal it is renaming-invariant (q(X, Y) and
    q(Y, X) both give (0, 1))."""
    index: dict[Var, int] = {}
    pattern: list[int] = []

    def name(v: Var) -> str:
        i = index.setdefault(v, len(index))
        pattern.append(i)
        return f"X{i}"

    text = _render_in_order(literals, name)
    return tuple(pattern), text


_PERMUTE_BUDGET = 40320  # 8!: orderings tried before the structural fallback


def render_clause(c: Clause) -> str:
    """Canonical, renaming-invariant rendering, computed once per clause
    object and stored on it (a clause is immutable).

    Literals are grouped by skeleton, which carries the sign, so group order
    puts positives first. Same-skeleton literals differ only in variable
    identity, so the rendering that wins is the minimum over all
    within-group orderings under first-occurrence renaming. The minimum is
    global: a partial-prefix tie between two orderings can still bind
    variables differently and diverge in a later group.

    Past _PERMUTE_BUDGET orderings the text is deterministic but not
    renaming-invariant: each group is sorted on its literals' renamed text,
    and literals that tie there on their own-name text.
    """
    stored = vars(c)
    if "canonical_text" not in stored:
        stored["canonical_text"] = _canonical_text(c)
    return stored["canonical_text"]


def _canonical_text(c: Clause) -> str:
    keyed = sorted(((_skeleton(l), l) for l in c.literals), key=itemgetter(0))
    groups = [[l for _, l in group] for _, group in groupby(keyed, key=itemgetter(0))]
    if prod(factorial(len(g)) for g in groups) > _PERMUTE_BUDGET:
        # Clauses with this many renaming-twin literals are outside the
        # artifact's domain; settle for a deterministic structural order.
        flat = [
            lit
            for group in groups
            for lit in sorted(group, key=lambda l: (_renamed([l]), render_literal(l)))
        ]
        return _renamed(flat)[1]
    return min(
        _renamed([lit for group in choice for lit in group])[1]
        for choice in product(*(permutations(g) for g in groups))
    )


def render_program(p: HornProgram) -> str:
    """Clauses sorted by (head predicate, arity, depth, rendering), newline
    separated, no trailing newline. Variant-equal clauses render identically
    and are emitted once. Empty program renders as ''."""
    keys = {(c.head.predicate, c.head.arity, c.max_depth(), render_clause(c)) for c in p}
    return "\n".join(key[-1] for key in sorted(keys))
