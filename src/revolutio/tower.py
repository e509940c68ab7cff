"""Exact arithmetic in towers of simple algebraic extensions of Q.

A tower is Q[g1]/(m1)[g2]/(m2)... where each minimal polynomial is monic
and square-free over the tower below it, but not necessarily irreducible.
Square-freeness makes the quotient a product of fields, so inversion by
the extended Euclidean algorithm (``poly.invert_mod``) either succeeds or
exposes a proper factor of some minimal polynomial (raised as ZeroDivisor,
the dynamic evaluation hook). Univariate polynomials over a tower, their
division, gcd and square-free test live in ``poly`` alone.

An element is stored as one tuple of integer numerators ``num`` over one
positive integer denominator ``den``: ``num[i]`` is the coefficient of
power-basis monomial number ``i`` (``ExtensionTower.basis``, the monomials
whose exponent of each generator stays below the degree of its minimal
polynomial, last generator fastest). The form is canonical, with
``gcd(den, *num) == 1``, so equality is a tuple compare. Sums and lifts
are integer operations; products go through the tower's multiplication
table of that power basis (``basis_products``) by one routine,
``BasisProducts.product``, which the packed polynomial products of
``poly`` call too, so a product over Q is one integer product and one
gcd. ``FieldElement.terms`` is a read-only view ``{exponent tuple:
Fraction}`` for printing, JSON and hashing. One term printer,
``_format_terms``, prints elements and ``poly.MultiPoly`` alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from fractions import Fraction
from itertools import product
from math import gcd, lcm, prod
from operator import add, mul
from typing import Sequence

from .errors import InvalidInput, TowerMismatch


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


@lru_cache(maxsize=64)
def _power_basis(degs: tuple) -> tuple:
    """(basis, radix) for generator degrees ``degs``: the exponent tuples of
    the power basis in number order, and the mixed radix that numbers them,
    ``number(b) == sum(b[k] * radix[k])``."""
    radix = tuple(prod(degs[k + 1:]) for k in range(len(degs)))
    return tuple(product(*(range(d) for d in degs))), radix


@dataclass(frozen=True)
class TowerStep:
    """One extension step: a generator name, its monic minimal polynomial
    (dense coefficients over the tower below), and an optional isolating
    interval designating a real root for numeric embeddings.

    A step is made by ``ExtensionTower.extend`` over the tower its
    coefficients live on, so the step fixes the whole tower it tops; the
    tower's multiplication table is therefore built once per step."""

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

    @cached_property
    def rewrite(self) -> tuple:
        """``(lead, rule)`` with ``lead * g^d == sum(c * g_below^pe * g^j)``
        over ``(j, pe, c)`` in ``rule``: the minimal polynomial times the
        common denominator ``lead`` of its coefficients, in integers."""
        low = self.minpoly[:-1]
        lead = lcm(*(c.den for c in low))
        basis = low[0].tower.basis
        rule = [
            (j, basis[p], -n * (lead // c.den))
            for j, c in enumerate(low)
            for p, n in enumerate(c.num)
            if n
        ]
        return lead, rule

    @cached_property
    def products(self) -> "BasisProducts":
        """The multiplication table of the tower this step tops."""
        return BasisProducts(ExtensionTower(self.minpoly[0].tower.steps + (self,)))


class ExtensionTower:
    """An ordered tuple of extension steps; the empty tower is Q."""

    __slots__ = ("steps", "_degs", "_size")

    def __init__(self, steps: tuple = ()):
        self.steps = tuple(steps)
        self._degs = tuple(s.degree for s in self.steps)
        self._size = prod(self._degs)

    @property
    def height(self) -> int:
        return len(self.steps)

    @property
    def parent(self) -> "ExtensionTower":
        if not self.steps:
            raise InvalidInput("the rational tower has no parent")
        return ExtensionTower(self.steps[:-1])

    @property
    def basis(self) -> tuple:
        """The exponent tuples of the power basis, in number order."""
        return _power_basis(self._degs)[0]

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
        return _element(self, (0,) * self._size, 1)

    def one(self) -> "FieldElement":
        return self.rational(1)

    def rational(self, q) -> "FieldElement":
        q = _as_fraction(q)
        return _element(self, (q.numerator,) + (0,) * (self._size - 1), q.denominator)

    def gen(self, which) -> "FieldElement":
        k = which if isinstance(which, int) else self.step_index(which)
        num = [0] * self._size
        num[_power_basis(self._degs)[1][k]] = 1
        return _element(self, tuple(num), 1)

    def basis_products(self) -> "BasisProducts":
        """How power-basis monomials multiply; computed once per tower."""
        return self.steps[-1].products if self.steps else _RATIONAL_PRODUCTS

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
    """Multiplication table of the power basis, for products of elements
    and packed products.

    The basis is the monomials ``g^b`` with ``b[k] < deg m_k``, numbered
    ``sum(b[k] * radix[k])`` (mixed radix, last generator fastest;
    ``ExtensionTower.basis`` lists them in that order). A product ``g^b *
    g^c`` has the unreduced exponent ``s = b + c`` with ``s[k] < 2 deg m_k -
    1``; numbered the same way in that wider radix, the product of basis
    monomials ``i`` and ``j`` is number ``lift[i] + lift[j]``. ``rules[s]``
    lists ``(i, c)`` with ``g^s == sum(c * g^basis[i]) / den``: each ``g^s``
    is reduced once, and all are put over the one common denominator
    ``den``. ``cmax`` bounds ``sum(|c|)`` over any one rule.
    """

    __slots__ = ("lift", "rules", "den", "cmax")

    def __init__(self, tower: ExtensionTower):
        wide = [2 * d - 1 for d in tower._degs]
        wide_radix = [prod(wide[k + 1:]) for k in range(len(wide))]
        self.lift = [sum(map(mul, b, wide_radix)) for b in tower.basis]
        reduced = [_canonical(*_reduce_terms(tower, {s: 1}, 1)) for s in product(*map(range, wide))]
        self.den = lcm(*(den for _, den in reduced))
        self.rules = [
            [(i, n * (self.den // den)) for i, n in enumerate(num) if n] for num, den in reduced
        ]
        self.cmax = max(sum(abs(c) for _, c in rule) for rule in self.rules)

    def product(self, a, b) -> list:
        """The product of the elements with numerators ``a`` and ``b`` over
        the power basis, as numerators over ``den``; each unreduced monomial
        is reduced once. The numerators may be any ints, packed polynomials
        included."""
        lift = self.lift
        sums: dict = {}
        for i, x in enumerate(a):
            if x:
                li = lift[i]
                for j, y in enumerate(b):
                    if y:
                        s = li + lift[j]
                        sums[s] = sums.get(s, 0) + x * y
        num = [0] * len(a)
        rules = self.rules
        for s, t in sums.items():
            for i, c in rules[s]:
                num[i] += c * t
        return num


class FieldElement:
    """An element of an extension tower, in canonical form: integer
    numerators ``num`` over the power basis and one ``den > 0`` with
    ``gcd(den, *num) == 1``."""

    __slots__ = ("tower", "num", "den")

    def __init__(self, tower: ExtensionTower, terms: dict, den: int = 1):
        """The element ``sum(terms[e] * g^e) / den``; ``terms`` maps exponent
        tuples of any size to ints or Fractions, and the exponents are
        reduced modulo the minimal polynomials."""
        scale = lcm(*(q.denominator for q in terms.values()))
        work = {e: q.numerator * (scale // q.denominator) for e, q in terms.items() if q}
        num, den = _reduce_terms(tower, work, den * scale)
        self.tower = tower
        self.num, self.den = _canonical(num, den)

    @staticmethod
    def from_ints(tower: ExtensionTower, num, den: int) -> "FieldElement":
        """The element ``sum(num[i] * g^basis[i]) / den``, ``den != 0``,
        put in canonical form."""
        return _element(tower, *_canonical(num, den))

    @property
    def terms(self) -> dict:
        """A read-only view: ``{exponent tuple: Fraction}`` of the nonzero
        coefficients, in basis order."""
        basis, den = self.tower.basis, self.den
        return {basis[i]: Fraction(n, den) for i, n in enumerate(self.num) if n}

    # -- structure ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise InvalidInput(f"{self} is not rational")
        return Fraction(self.num[0], self.den)

    def lift_to(self, tower: ExtensionTower) -> "FieldElement":
        """Reinterpret over a taller tower having this one as a prefix."""
        if tower == self.tower:
            return self
        if not self.tower.is_prefix_of(tower):
            raise TowerMismatch("cannot lift: not a prefix")
        # the new generators come last and run fastest: basis number i
        # becomes i * (product of their degrees)
        num = [0] * tower._size
        num[:: tower._size // self.tower._size] = self.num
        return _element(tower, tuple(num), self.den)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.tower.rational(other)
        if not isinstance(other, FieldElement):
            return NotImplemented
        if self.tower is not other.tower and self.tower != other.tower:
            try:
                t = join_towers(self.tower, other.tower)
            except TowerMismatch:
                return False
            self, other = self.lift_to(t), other.lift_to(t)
        return self.den == other.den and self.num == other.num

    def __hash__(self) -> int:
        # a rational element equals its number, so it hashes like it; equal
        # elements over different towers differ only by the zero exponents
        # ``lift_to`` pads at the end, so hash without those
        if self.is_rational():
            return hash(Fraction(self.num[0], self.den))
        basis = self.tower.basis
        return hash((self.den, frozenset((_strip_zeros(basis[i]), n) for i, n in enumerate(self.num) if n)))

    # -- ring operations ------------------------------------------------------

    def _coerced(self, other):
        if isinstance(other, FieldElement):
            if other.tower is self.tower:
                return self, other
        elif isinstance(other, (int, Fraction)):
            return self, self.tower.rational(other)
        else:
            return None, None
        t = join_towers(self.tower, other.tower)
        return self.lift_to(t), other.lift_to(t)

    def __add__(self, other):
        a, b = self._coerced(other)
        if a is None:
            return NotImplemented
        return _sum(a, b, 1)

    __radd__ = __add__

    def __neg__(self):
        return _element(self.tower, tuple(-n for n in self.num), self.den)

    def __sub__(self, other):
        a, b = self._coerced(other)
        if a is None:
            return NotImplemented
        return _sum(a, b, -1)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        a, b = self._coerced(other)
        if a is None:
            return NotImplemented
        an, bn = a.num, b.num
        if len(an) == 1:
            n, d = an[0] * bn[0], a.den * b.den
            g = gcd(n, d)
            return _element(a.tower, (n // g,), d // g)
        table = a.tower.basis_products()
        return _element(a.tower, *_canonical(table.product(an, bn), a.den * b.den * table.den))

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
            n = self.num[0]
            return _element(tower, (self.den if n > 0 else -self.den,), abs(n))
        from .poly import MultiPoly, invert_mod

        # a polynomial in the top generator, with coefficients over the
        # parent: the top exponent runs fastest, so coefficient e is every
        # d-th numerator from e on
        step = tower.steps[-1]
        parent = tower.parent
        d = step.degree
        coeffs = {}
        for e in range(d):
            part = self.num[e::d]
            if any(part):
                coeffs[(e,)] = FieldElement.from_ints(parent, part, self.den)
        a = MultiPoly._canonical((step.name,), coeffs, parent)
        inv = invert_mod(a, step.poly, step.name)
        den = lcm(*(c.den for c in inv.terms.values()))
        num = [0] * tower._size
        for (e,), c in inv.terms.items():
            f = den // c.den
            num[e::d] = [n * f for n in c.num]
        return FieldElement.from_ints(tower, num, den)

    # -- presentation ----------------------------------------------------------

    def __repr__(self) -> str:
        names = [s.name for s in self.tower.steps]
        return _format_terms([(str(q), key) for key, q in reversed(self.terms.items())], names)


def _format_terms(pairs, names) -> str:
    """A sum as text: ``pairs`` are ``(coefficient text, exponent tuple)`` in
    print order, ``names`` the variables of the exponents. A monomial prints
    as ``g^e``, a coefficient 1 or -1 before one is dropped, ``*`` joins the
    factors, a compound coefficient is parenthesized, and a negative term
    after the first is printed as a difference."""
    parts = []
    for cs, key in pairs:
        monos = [n if e == 1 else f"{n}^{e}" for n, e in zip(names, key) if e]
        if " + " in cs or " - " in cs or (cs.startswith("-") and cs.count("-") > 1):
            cs = f"({cs})"
        if not monos:
            parts.append(cs)
        elif cs == "1":
            parts.append("*".join(monos))
        elif cs == "-1":
            parts.append("-" + "*".join(monos))
        else:
            parts.append(cs + "*" + "*".join(monos))
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += " - " + p[1:] if p.startswith("-") and not p.startswith("-(") else " + " + p
    return out


def _element(tower: ExtensionTower, num: tuple, den: int) -> FieldElement:
    """Wrap a numerator tuple and denominator that are already canonical."""
    e = object.__new__(FieldElement)
    e.tower, e.num, e.den = tower, num, den
    return e


def _canonical(num, den: int) -> tuple:
    """``(num, den)`` as a tuple over a positive denominator, with the
    common factor of ``den`` and every numerator divided out."""
    g = gcd(den, *num)
    if den < 0:
        g = -g
    if g == 1:
        return tuple(num), den
    return tuple(n // g for n in num), den // g


def _sum(a: FieldElement, b: FieldElement, sign: int) -> FieldElement:
    """a + sign * b over their shared tower."""
    ad, bd = a.den, b.den
    if ad == bd:
        num = [x + sign * y for x, y in zip(a.num, b.num)]
    else:
        num = [x * bd + sign * y * ad for x, y in zip(a.num, b.num)]
        ad *= bd
    return _element(a.tower, *_canonical(num, ad))


# -- reduction ----------------------------------------------------------------


def _reduce_terms(tower: ExtensionTower, work: dict, den: int) -> tuple:
    """``sum(work[e] * g^e) / den``, with integer values and exponents of
    any size, reduced modulo the minimal polynomials: ``(num, den)`` over
    the power basis, not yet canonical. ``work`` is consumed.

    Generators are reduced from the top down, each by long division from
    its highest exponent: ``lead * g^d`` is rewritten by the step's integer
    rule, and when ``lead != 1`` every other entry is first scaled by
    ``lead``, as is ``den``. A rewrite lowers the current generator's
    exponent and raises only those of the generators below it, so a
    reduced generator stays reduced."""
    degs = tower._degs
    for k in range(tower.height - 1, -1, -1):
        d = degs[k]
        lead, rule = tower.steps[k].rewrite
        top = max((e[k] for e in work), default=0)
        for x in range(top, d - 1, -1):
            hits = [e for e in work if e[k] == x]
            if not hits:
                continue
            if lead != 1:
                for e in work:
                    if e[k] != x:
                        work[e] *= lead
                den *= lead
            for e in hits:
                w = work.pop(e)
                head, tail = e[:k], e[k + 1:]
                for j, pe, c in rule:
                    key = tuple(map(add, head, pe)) + (x - d + j,) + tail
                    s = work.get(key, 0) + w * c
                    if s:
                        work[key] = s
                    else:
                        work.pop(key, None)
    num = [0] * tower._size
    radix = _power_basis(degs)[1]
    for e, n in work.items():
        num[sum(map(mul, e, radix))] = n
    return num, den


_RATIONAL_PRODUCTS = BasisProducts(QQ)
