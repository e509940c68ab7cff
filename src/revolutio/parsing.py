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

There is no syntax tree, and no FieldElement or MultiPoly per operator.
The text has no tower, so each rule returns the polynomial it read as a
dict ``{exponent tuple: int or Fraction}`` over the one sorted tuple of
names the whole text uses, keeping no zero coefficients. Sums, negation,
products with a one-term operand and powers of a one-term operand run on
the dict: they add coefficients or shift exponents. A product of two
multi-term operands and a power of a multi-term operand go through
MultiPoly's own operators, the packed kernel, the split ``MultiPoly.__mul__``
makes itself. ``parse_poly`` wraps the final dict once, with QQ
coefficients, so the result keeps a name whose terms cancel and is a
UniPoly exactly when the text has one name. A first pass over the same
tokens, with every leaf the empty dict, checks the syntax, so every
ParseError comes before any arithmetic and before the at-most-four-variables
refusal. That pass also counts nesting, each open '(' and each unary '-'
one level, and refuses text nested deeper than ``MAX_NESTING`` levels, so
deep nesting is a ParseError, not a RecursionError.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction

from .errors import InvalidInput
from .poly import MultiPoly, _sorted_vars
from .tower import QQ

ALLOWED_VARIABLES = ("s", "t", "u", "v", "w", "x", "y", "z")

#: most levels of '(' and unary '-' one text may nest; each level costs the
#: descent up to five frames, so this stays far inside the default
#: recursion limit
MAX_NESTING = 100

# INT comes first, so a NAME never starts with an ASCII digit; _tokenize
# refuses one that starts with any other digit
_TOKEN = re.compile(r"(?P<INT>[0-9]+)|(?P<NAME>\w+)|(?P<OP>[-+*^()/])|(?P<SPACE>\s+)|(?P<BAD>.)", re.S)


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
    """One descent over ``tokens``. Each rule returns a dict of the terms it
    read over ``names``, which the caller owns; with ``names`` None every
    leaf is ``{}``, so the descent only checks the syntax."""

    def __init__(self, tokens: list, names: tuple | None):
        self.tokens = tokens
        self.k = 0
        self.names = names
        self.unit = (0,) * len(names or ())
        self.depth = 0

    def peek(self) -> tuple:
        return self.tokens[self.k]

    def advance(self) -> tuple:
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def nest(self, pos: int) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", pos)

    def at(self, ops: str) -> bool:
        kind, text, _ = self.peek()
        return kind == "OP" and text in ops

    def parse(self) -> dict:
        value = self.expr()
        kind, text, pos = self.peek()
        if kind != "END":
            raise ParseError(f"unexpected {text!r}", pos)
        return value

    def expr(self) -> dict:
        value = self.term()
        while self.at("+-"):
            plus = self.advance()[1] == "+"
            for key, c in self.term().items():
                s = value.get(key, 0) + c if plus else value.get(key, 0) - c
                if s:
                    value[key] = s
                else:
                    del value[key]
        return value

    def term(self) -> dict:
        value = self.factor()
        while self.at("*"):
            self.advance()
            value = self._product(value, self.factor())
        return value

    def _product(self, a: dict, b: dict) -> dict:
        if len(a) < len(b):
            a, b = b, a
        if not b:
            return {}
        if len(b) > 1:
            return _rational_terms(_qq_poly(self.names, a) * _qq_poly(self.names, b))
        # one term: shift the exponents
        ((kb, cb),) = b.items()
        return {tuple(map(operator.add, k, kb)): c * cb for k, c in a.items()}

    def factor(self) -> dict:
        if self.at("-"):
            self.nest(self.advance()[2])
            value = {k: -c for k, c in self.factor().items()}
            self.depth -= 1
            return value
        return self.power()

    def power(self) -> dict:
        base = self.atom()
        if not self.at("^"):
            return base
        self.advance()
        kind, text, pos = self.advance()
        if kind != "INT":
            raise ParseError("exponent must be a non-negative integer literal", pos)
        n = int(text)
        if n == 0:
            return {self.unit: 1}
        if len(base) > 1:
            return _rational_terms(_qq_poly(self.names, base) ** n)
        return {tuple(e * n for e in k): c ** n for k, c in base.items()}

    def atom(self) -> dict:
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
            return {self.unit: value} if self.names is not None and value else {}
        if kind == "NAME":
            if text not in ALLOWED_VARIABLES:
                raise ParseError(f"unknown variable {text!r}", pos)
            return {} if self.names is None else {tuple(int(v == text) for v in self.names): 1}
        if kind == "OP" and text == "(":
            self.nest(pos)
            value = self.expr()
            if not self.at(")"):
                raise ParseError("expected ')'", self.peek()[2])
            self.advance()
            self.depth -= 1
            return value
        raise ParseError(f"unexpected {text or 'end of input'!r}", pos)


def _qq_poly(names: tuple, terms: dict) -> MultiPoly:
    return MultiPoly._canonical(names, {k: QQ.rational(c) for k, c in terms.items()}, QQ)


def _rational_terms(p: MultiPoly) -> dict:
    return {k: c.as_rational() for k, c in p.terms.items()}


def parse_poly(text: str, allowed_vars=None) -> MultiPoly:
    """Parse and evaluate, optionally restricting the variables used. The
    result's variables are the sorted names in the text."""
    tokens = _tokenize(text)
    _Parser(tokens, None).parse()
    names = _sorted_vars({tok for kind, tok, _ in tokens if kind == "NAME"})
    poly = _qq_poly(names, _Parser(tokens, names).parse())
    if allowed_vars is not None:
        bad = [v for v in poly.vars if poly.uses(v) and v not in allowed_vars]
        if bad:
            raise InvalidInput(
                f"expression may only use {', '.join(sorted(allowed_vars))}; found {', '.join(bad)}"
            )
    return poly
