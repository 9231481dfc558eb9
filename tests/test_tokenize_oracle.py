"""Differential test: the one-pattern tokenizer against the character loop
it replaced, kept here as an oracle only. Both must agree on every token,
and on every error message with its line and column."""

from __future__ import annotations

import random

from hornlearn.syntax import ParseError, _tokenize

_PUNCT = {"(": "lparen", ")": "rparen", ",": "comma", ".": "dot", ";": "semi"}


def oracle_tokenize(text: str) -> list[tuple[str, str, int, int]]:
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "%":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == ":" and i + 1 < n and text[i + 1] == "-":
            tokens.append(("arrow", ":-", line, col))
            i += 2
            col += 2
            continue
        if ch in _PUNCT:
            tokens.append((_PUNCT[ch], ch, line, col))
            i += 1
            col += 1
            continue
        if ch.isalpha() or ch.isdigit() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            if word[0].isupper():
                tokens.append(("var", word, line, col))
            else:
                tokens.append(("name", word, line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(("eof", "", line, col))
    return tokens


# Pieces the fuzzer glues together: the syntax's own punctuation, comments,
# every whitespace the tokenizer knows, mixed-case ASCII, non-ASCII letters
# and digits (² is a digit, ½ and Ⅷ are numeric only, so they may continue a
# word but not start one), and characters that are illegal everywhere.
ALPHABET = (
    ["%", ":-", ":", "-", "(", ")", ",", ".", ";", " ", "\t", "\r", "\n", "\n", "_"]
    + list("aZqX0s9Pp")
    + ["é", "É", "ß", "Σ", "σ", "²", "½", "Ⅷ", "٣", "ǅ"]
    + ["!", "?", "'", '"', "\x0b", "\x0c", " ", "\x00", "+", "€"]
    + ["p(s(0)).", "X", "foo", "% c\n"]
)


def outcome(tokenize, text):
    try:
        return tokenize(text)
    except ParseError as exc:
        return ("error", str(exc), exc.line, exc.column)


def test_tokenizer_equals_character_loop_oracle():
    rng = random.Random(20261018)
    errors = 0
    for _ in range(100_000):
        text = "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, 12)))
        got = outcome(_tokenize, text)
        assert got == outcome(oracle_tokenize, text), repr(text)
        errors += got[0] == "error"
    assert 10_000 < errors < 90_000


def test_eof_after_a_trailing_comment_reports_the_comment_column():
    assert _tokenize("p. % note")[-1] == ("eof", "", 1, 4)
    assert _tokenize("p.\n% note\nq")[-1] == ("eof", "", 3, 2)
