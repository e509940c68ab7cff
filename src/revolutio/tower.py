"""Exact arithmetic in towers of simple algebraic extensions of Q.

A tower is Q[g1]/(m1)[g2]/(m2)... where each minimal polynomial is monic
and square-free over the tower below it, but not necessarily irreducible.
Square-freeness makes the quotient a product of fields, so inversion by
the extended Euclidean algorithm (``poly.invert_mod``) either succeeds or
exposes a proper factor of some minimal polynomial (raised as ZeroDivisor,
the dynamic evaluation hook). Univariate polynomials over a tower, their
division, gcd and square-free test live in ``poly`` alone.

Elements are stored as multivariate polynomials in the generators with
Fraction coefficients, reduced so the exponent of each generator stays
below the degree of its minimal polynomial. Each tower instance fills in,
on first use, the multiplication table of that power basis
(``basis_products``), which the packed polynomial products of ``poly``
reduce with.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import product
from math import lcm, prod
from operator import mul
from typing import Sequence

from .errors import InvalidInput, TowerMismatch

Rat = Fraction


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise InvalidInput(f"expected a rational, got {type(x).__name__}")


def _strip_zeros(key: tuple) -> tuple:
    """An exponent tuple without its trailing zeros."""
    n = len(key)
    while n and not key[n - 1]:
        n -= 1
    return key[:n]


@dataclass(frozen=True)
class TowerStep:
    """One extension step: a generator name, its monic minimal polynomial
    (dense coefficients over the tower below), and an optional isolating
    interval designating a real root for numeric embeddings."""

    name: str
    minpoly: tuple
    embedding: tuple | None = None

    @property
    def degree(self) -> int:
        return len(self.minpoly) - 1

    @cached_property
    def poly(self):
        """The minimal polynomial as a UniPoly over the tower below, built
        once per step by the trusted constructor."""
        from .poly import MultiPoly

        terms = {(e,): c for e, c in enumerate(self.minpoly) if not c.is_zero()}
        return MultiPoly._canonical((self.name,), terms, self.minpoly[0].tower)


class ExtensionTower:
    """An ordered tuple of extension steps; the empty tower is Q."""

    __slots__ = ("steps", "_degs", "_products")

    def __init__(self, steps: tuple = ()):
        self.steps = tuple(steps)
        self._degs = tuple(s.degree for s in self.steps)
        self._products = None

    @property
    def height(self) -> int:
        return len(self.steps)

    @property
    def parent(self) -> "ExtensionTower":
        if not self.steps:
            raise InvalidInput("the rational tower has no parent")
        return ExtensionTower(self.steps[:-1])

    def __eq__(self, other) -> bool:
        return isinstance(other, ExtensionTower) and (
            self is other or self.steps == other.steps
        )

    def __hash__(self) -> int:
        return hash(self.steps)

    def __repr__(self) -> str:
        if not self.steps:
            return "QQ"
        return "QQ[" + ", ".join(s.name for s in self.steps) + "]"

    def is_prefix_of(self, other: "ExtensionTower") -> bool:
        return self.steps == other.steps[: len(self.steps)]

    def step_index(self, name: str) -> int:
        for k, s in enumerate(self.steps):
            if s.name == name:
                return k
        raise InvalidInput(f"no tower step named {name!r}")

    def fresh_name(self, base: str) -> str:
        """``base``, or ``base2``, ``base3``, ... : the first not yet a generator."""
        names = {s.name for s in self.steps}
        name, k = base, 2
        while name in names:
            name, k = f"{base}{k}", k + 1
        return name

    # -- element constructors -------------------------------------------------

    def zero(self) -> "FieldElement":
        return FieldElement(self, {}, reduce=False)

    def one(self) -> "FieldElement":
        return self.rational(1)

    def rational(self, q) -> "FieldElement":
        q = _as_fraction(q)
        if q == 0:
            return FieldElement(self, {}, reduce=False)
        return FieldElement(self, {(0,) * self.height: q}, reduce=False)

    def gen(self, which) -> "FieldElement":
        k = which if isinstance(which, int) else self.step_index(which)
        key = tuple(1 if i == k else 0 for i in range(self.height))
        return FieldElement(self, {key: Fraction(1)})

    def basis_products(self) -> "BasisProducts":
        """How power-basis monomials multiply; computed once per tower instance."""
        if self._products is None:
            self._products = BasisProducts(self)
        return self._products

    # -- construction ---------------------------------------------------------

    def extend(self, name: str, minpoly: Sequence, embedding=None) -> "ExtensionTower":
        """Append a generator with the given monic minimal polynomial.

        ``minpoly`` is dense, constant term first; coefficients may be
        ints, Fractions, or FieldElements over this tower. The polynomial
        must be monic, of degree >= 2, and square-free over this tower.
        """
        if any(s.name == name for s in self.steps):
            raise InvalidInput(f"generator name {name!r} already in use")
        coeffs = [self._coerce_coeff(c) for c in minpoly]
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        if len(coeffs) < 3:
            raise InvalidInput("minimal polynomial must have degree >= 2")
        if coeffs[-1] != self.one():
            raise InvalidInput("minimal polynomial must be monic")
        from .poly import is_squarefree

        step = TowerStep(name=name, minpoly=tuple(coeffs), embedding=embedding)
        if not is_squarefree(step.poly):
            raise InvalidInput("minimal polynomial must be square-free over the tower below")
        return ExtensionTower(self.steps + (step,))

    def _coerce_coeff(self, c) -> "FieldElement":
        if isinstance(c, FieldElement):
            if c.tower != self:
                if c.tower.is_prefix_of(self):
                    return c.lift_to(self)
                raise TowerMismatch("minimal polynomial coefficient over a foreign tower")
            return c
        return self.rational(c)


QQ = ExtensionTower(())


def join_towers(a: ExtensionTower, b: ExtensionTower) -> ExtensionTower:
    """The larger of two towers when one is a prefix of the other."""
    if a.is_prefix_of(b):
        return b
    if b.is_prefix_of(a):
        return a
    raise TowerMismatch(f"towers {a!r} and {b!r} are not nested")


class BasisProducts:
    """Multiplication table of the power basis, for packed products.

    The basis is the monomials ``g^b`` with ``b[k] < deg m_k``. Monomial
    ``b`` has number ``sum(b[k] * radix[k])`` (mixed radix, last generator
    fastest), and ``basis`` lists the exponent tuples in that order. A
    product ``g^b * g^c`` has the unreduced exponent ``s = b + c`` with
    ``s[k] < 2 deg m_k - 1``; numbered the same way in that wider radix, the
    product of basis monomials ``i`` and ``j`` is number ``lift[i] +
    lift[j]``. ``rules[s]`` lists ``(i, c)`` with ``g^s == sum(c *
    g^basis[i]) / den``: each ``g^s`` is reduced once, through
    ``FieldElement``, and all are put over the one common denominator
    ``den``. ``cmax`` bounds ``sum(|c|)`` over any one rule.
    """

    __slots__ = ("basis", "radix", "lift", "rules", "den", "cmax")

    def __init__(self, tower: ExtensionTower):
        degs = tower._degs
        wide = [2 * d - 1 for d in degs]
        self.radix = [prod(degs[k + 1:]) for k in range(len(degs))]
        wide_radix = [prod(wide[k + 1:]) for k in range(len(degs))]
        self.basis = list(product(*(range(d) for d in degs)))
        self.lift = [sum(map(mul, b, wide_radix)) for b in self.basis]
        reduced = [FieldElement(tower, {s: Fraction(1)}).terms for s in product(*map(range, wide))]
        self.den = lcm(*(q.denominator for terms in reduced for q in terms.values()))
        self.rules = [
            [
                (sum(map(mul, b, self.radix)), q.numerator * (self.den // q.denominator))
                for b, q in terms.items()
            ]
            for terms in reduced
        ]
        self.cmax = max(sum(abs(c) for _, c in rule) for rule in self.rules)


class FieldElement:
    """An element of an extension tower, in reduced canonical form."""

    __slots__ = ("tower", "terms")

    def __init__(self, tower: ExtensionTower, terms: dict, reduce: bool = True):
        self.tower = tower
        if reduce:
            terms = _reduce_terms(tower, terms)
        self.terms = terms

    # -- structure ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_rational(self) -> bool:
        if not self.terms:
            return True
        zero_key = (0,) * self.tower.height
        return len(self.terms) == 1 and zero_key in self.terms

    def as_rational(self) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        if not self.is_rational():
            raise InvalidInput(f"{self} is not rational")
        return next(iter(self.terms.values()))

    def lift_to(self, tower: ExtensionTower) -> "FieldElement":
        """Reinterpret over a taller tower having this one as a prefix."""
        if tower == self.tower:
            return self
        if not self.tower.is_prefix_of(tower):
            raise TowerMismatch("cannot lift: not a prefix")
        pad = (0,) * (tower.height - self.tower.height)
        return FieldElement(tower, {k + pad: v for k, v in self.terms.items()}, reduce=False)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.tower.rational(other)
        if not isinstance(other, FieldElement):
            return NotImplemented
        if self.tower != other.tower:
            try:
                t = join_towers(self.tower, other.tower)
            except TowerMismatch:
                return False
            return self.lift_to(t).terms == other.lift_to(t).terms
        return self.terms == other.terms

    def __hash__(self) -> int:
        # a rational element equals its number, so it hashes like it; equal
        # elements over different towers differ only by the zero exponents
        # ``lift_to`` pads at the end, so hash without those
        if self.is_rational():
            return hash(self.as_rational())
        return hash(frozenset((_strip_zeros(k), q) for k, q in self.terms.items()))

    # -- ring operations ------------------------------------------------------

    def _coerced(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.tower.rational(other)
        if not isinstance(other, FieldElement):
            return None, None
        t = join_towers(self.tower, other.tower)
        return self.lift_to(t), other.lift_to(t)

    def __add__(self, other):
        a, b = self._coerced(other)
        if a is None:
            return NotImplemented
        terms = dict(a.terms)
        for k, v in b.terms.items():
            s = terms.get(k, Fraction(0)) + v
            if s:
                terms[k] = s
            else:
                terms.pop(k, None)
        return FieldElement(a.tower, terms, reduce=False)

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.tower, {k: -v for k, v in self.terms.items()}, reduce=False)

    def __sub__(self, other):
        a, b = self._coerced(other)
        if a is None:
            return NotImplemented
        return a + (-b)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        a, b = self._coerced(other)
        if a is None:
            return NotImplemented
        acc: dict = {}
        for ka, va in a.terms.items():
            for kb, vb in b.terms.items():
                key = tuple(x + y for x, y in zip(ka, kb))
                s = acc.get(key, Fraction(0)) + va * vb
                if s:
                    acc[key] = s
                else:
                    acc.pop(key, None)
        return FieldElement(a.tower, acc)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = self.tower.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __truediv__(self, other):
        a, b = self._coerced(other)
        if a is None:
            return NotImplemented
        return a * b.inverse()

    def __rtruediv__(self, other):
        return self.tower.rational(other) / self

    def inverse(self) -> "FieldElement":
        """Multiplicative inverse; raises ZeroDivisor when the element is a
        zero divisor in a reducible quotient (carrying the found factor)."""
        if self.is_zero():
            raise InvalidInput("inverse of zero")
        tower = self.tower
        if tower.height == 0:
            return tower.rational(1 / self.as_rational())
        from .poly import MultiPoly, invert_mod

        # a polynomial in the top generator, with coefficients over the parent
        step = tower.steps[-1]
        parent = tower.parent
        buckets: dict = {}
        for key, q in self.terms.items():
            buckets.setdefault(key[-1], {})[key[:-1]] = q
        a = MultiPoly._canonical(
            (step.name,),
            {(e,): FieldElement(parent, terms, reduce=False) for e, terms in buckets.items()},
            parent,
        )
        inv = invert_mod(a, step.poly, step.name)
        terms = {key + (e,): q for (e,), c in inv.terms.items() for key, q in c.terms.items()}
        return FieldElement(tower, terms, reduce=False)

    def sign(self) -> int:
        """Exact sign; defined for rational values only."""
        q = self.as_rational()
        return (q > 0) - (q < 0)

    # -- presentation ----------------------------------------------------------

    def __repr__(self) -> str:
        if self.is_zero():
            return "0"
        names = [s.name for s in self.tower.steps]
        parts = []
        for key in sorted(self.terms, reverse=True):
            q = self.terms[key]
            monos = [
                n if e == 1 else f"{n}^{e}"
                for n, e in zip(names, key)
                if e
            ]
            if not monos:
                parts.append(str(q))
            elif q == 1:
                parts.append("*".join(monos))
            elif q == -1:
                parts.append("-" + "*".join(monos))
            else:
                parts.append(f"{q}*" + "*".join(monos))
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out


# -- reduction ----------------------------------------------------------------


def _reduce_terms(tower: ExtensionTower, terms: dict) -> dict:
    degs = tower._degs
    work = {k: v for k, v in terms.items() if v}
    while True:
        k_viol = None
        for k in range(tower.height - 1, -1, -1):
            if any(e[k] >= degs[k] for e in work):
                k_viol = k
                break
        if k_viol is None:
            return work
        k = k_viol
        d = degs[k]
        minpoly = tower.steps[k].minpoly  # coefficients over the prefix tower
        hit = [e for e in work if e[k] >= d]
        for e in hit:
            # a previous rewrite in this pass may have cancelled this entry
            q = work.pop(e, None)
            if q is None:
                continue
            # theta_k^d == -(c_0 + ... + c_{d-1} theta_k^{d-1})
            for j in range(d):
                cj = minpoly[j]
                if cj.is_zero():
                    continue
                for pe, pq in cj.terms.items():
                    key = tuple(
                        (e[i] + pe[i]) if i < k else
                        (e[k] - d + j if i == k else e[i])
                        for i in range(len(e))
                    )
                    s = work.get(key, Fraction(0)) - q * pq
                    if s:
                        work[key] = s
                    else:
                        work.pop(key, None)
