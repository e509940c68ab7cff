"""Recursive-descent parser that evaluates polynomial expressions as it reads.

Grammar (loosest binding first):

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := '-' factor | power
    power  := atom ('^' INT)?
    atom   := INT ('/' INT)? | VAR | '(' expr ')'
    INT    := [0-9]+

so '^' binds tighter than unary minus, which binds tighter than '*'.
Implicit multiplication is not supported; '/' only forms integer fraction
literals like 3/4; exponents are non-negative integer literals. Literals
use the ASCII digits 0-9 only: any other digit, such as '²' or '٣', is an
unexpected character. Variables are single letters from x y z w t s u v.

There is no syntax tree. Each rule returns the MultiPoly of the text it
read, built with MultiPoly's operators over the one sorted tuple of names
the whole text uses, so no operand is ever re-keyed and the result keeps
a name whose terms cancel. A first pass over the same tokens, with every
leaf the zero polynomial, checks the syntax, so every ParseError comes
before any arithmetic and before the at-most-four-variables refusal.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import InvalidInput
from .poly import MultiPoly

ALLOWED_VARIABLES = ("s", "t", "u", "v", "w", "x", "y", "z")

# INT comes first, so a NAME never starts with an ASCII digit; _tokenize
# refuses one that starts with any other digit
_TOKEN = re.compile(r"(?P<INT>[0-9]+)|(?P<NAME>\w+)|(?P<OP>[-+*^()/])|(?P<SPACE>\s+)|(?P<BAD>.)", re.S)
_ZERO = MultiPoly.zero()


class ParseError(InvalidInput):
    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at position {position})")


def _tokenize(text: str) -> list:
    """``(kind, text, position)`` per token, kind INT, NAME, OP or a final END."""
    out = []
    for m in _TOKEN.finditer(text):
        kind, tok = m.lastgroup, m.group()
        if kind == "SPACE":
            continue
        if kind == "BAD" or (kind == "NAME" and not (tok[0].isalpha() or tok[0] == "_")):
            raise ParseError(f"unexpected character {tok[0]!r}", m.start())
        out.append((kind, tok, m.start()))
    out.append(("END", "", len(text)))
    return out


class _Parser:
    """One descent over ``tokens``. Each rule returns the polynomial it read
    over ``vars_``; with ``vars_`` None every leaf is zero, so the descent
    only checks the syntax."""

    def __init__(self, tokens: list, vars_: tuple | None):
        self.tokens = tokens
        self.k = 0
        self.vars = vars_

    def peek(self) -> tuple:
        return self.tokens[self.k]

    def advance(self) -> tuple:
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def at(self, ops: str) -> bool:
        kind, text, _ = self.peek()
        return kind == "OP" and text in ops

    def parse(self) -> MultiPoly:
        value = self.expr()
        kind, text, pos = self.peek()
        if kind != "END":
            raise ParseError(f"unexpected {text!r}", pos)
        return value

    def expr(self) -> MultiPoly:
        value = self.term()
        while self.at("+-"):
            if self.advance()[1] == "+":
                value = value + self.term()
            else:
                value = value - self.term()
        return value

    def term(self) -> MultiPoly:
        value = self.factor()
        while self.at("*"):
            self.advance()
            value = value * self.factor()
        return value

    def factor(self) -> MultiPoly:
        if self.at("-"):
            self.advance()
            return -self.factor()
        return self.power()

    def power(self) -> MultiPoly:
        base = self.atom()
        if not self.at("^"):
            return base
        self.advance()
        kind, text, pos = self.advance()
        if kind != "INT":
            raise ParseError("exponent must be a non-negative integer literal", pos)
        return base ** int(text)

    def atom(self) -> MultiPoly:
        kind, text, pos = self.advance()
        if kind == "INT":
            value = int(text)
            if self.at("/"):
                slash = self.advance()[2]
                dkind, dtext, dpos = self.advance()
                if dkind != "INT":
                    raise ParseError("'/' is only allowed between integer literals", slash)
                if int(dtext) == 0:
                    raise ParseError("zero denominator", dpos)
                value = Fraction(int(text), int(dtext))
            return _ZERO if self.vars is None else MultiPoly.constant(value, self.vars)
        if kind == "NAME":
            if text not in ALLOWED_VARIABLES:
                raise ParseError(f"unknown variable {text!r}", pos)
            return _ZERO if self.vars is None else MultiPoly.variable(text, self.vars)
        if kind == "OP" and text == "(":
            value = self.expr()
            if not self.at(")"):
                raise ParseError("expected ')'", self.peek()[2])
            self.advance()
            return value
        raise ParseError(f"unexpected {text or 'end of input'!r}", pos)


def parse_poly(text: str, allowed_vars=None) -> MultiPoly:
    """Parse and evaluate, optionally restricting the variables used. The
    result's variables are the sorted names in the text."""
    tokens = _tokenize(text)
    _Parser(tokens, None).parse()
    # over more than four names the first leaf raises InvalidInput
    names = tuple(sorted({tok for kind, tok, _ in tokens if kind == "NAME"}))
    poly = _Parser(tokens, names).parse()
    if allowed_vars is not None:
        bad = [v for v in poly.vars if poly.uses(v) and v not in allowed_vars]
        if bad:
            raise InvalidInput(
                f"expression may only use {', '.join(sorted(allowed_vars))}; found {', '.join(bad)}"
            )
    return poly
