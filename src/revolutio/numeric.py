"""Certified numeric evaluation of tower elements via interval bisection.

No floating-point root finding happens here: every generator carries an
exact rational isolating interval that is bisected against its minimal
polynomial until the requested output tolerance is certified. Each minimal
polynomial is kept as an integer list, so a bisection step is integer sign
tests at the interval's ends and midpoint (``poly._hsign``); isolation
counts roots with one integer Sturm chain per polynomial. Generators
without a real root have no real embedding and are rejected, which is
exactly what mesh export needs.

The embedding keeps, between refinements, the exact range of each
power-basis monomial as integers over one common denominator. An element's
enclosure is then one integer dot product: its coefficients over their
common denominator against those ranges, each coefficient taking the low or
the high end by its sign. An interval product is the exact range, so this
gives the same enclosure as multiplying out the generator intervals term by
term, and the same refinements. ``numeric_eval`` takes an element in that
integer form directly (mesh export passes its tabulated integers), and puts
a FieldElement in it first. A rational value is one correctly rounded
integer division, InvalidInput beyond the float range.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import InvalidInput, NoRealEmbedding
from .poly import UniPoly, _hsign, _int_coeffs, _squarefree_chain, _sturm_count, sturm_real_root_count
from .tower import ExtensionTower, FieldElement

Iv = tuple  # (lo, hi) with Fraction endpoints, lo <= hi


def _iv_mul(a: Iv, b: Iv) -> Iv:
    products = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return (min(products), max(products))


def _iv_pow(a: Iv, e: int) -> Iv:
    if e == 0:
        return (Fraction(1), Fraction(1))
    if e % 2 == 0 and a[0] < 0 <= a[1]:
        m = max(-a[0], a[1])
        return (Fraction(0), m ** e)
    lo, hi = a[0] ** e, a[1] ** e
    return (min(lo, hi), max(lo, hi))


def isolate_real_roots(f: UniPoly) -> list:
    """Disjoint rational intervals, one distinct real root each, sorted.

    ``f`` must be square-free with rational coefficients. A degenerate
    interval (r, r) marks an exact rational root. Bisection starts from the
    Cauchy bound ``1 + max |f_k / f_d|`` and counts roots with one Sturm
    chain for the whole call.
    """
    if f.is_constant():
        return []
    p = _int_coeffs(f)
    bound = 1 + Fraction(max(map(abs, p[:-1])), abs(p[-1]))
    chain = _squarefree_chain(p)
    out = []

    def rec(lo: Fraction, hi: Fraction):
        n = _sturm_count(chain, lo.as_integer_ratio(), hi.as_integer_ratio())
        if n == 0:
            return
        if n == 1:
            out.append((lo, hi))
            return
        mid = (lo + hi) / 2
        if not _hsign(p, *mid.as_integer_ratio()):
            out.append((mid, mid))
        rec(lo, mid)
        rec(mid, hi)

    rec(-bound, bound)
    return sorted(out, key=lambda iv: iv[0] + iv[1])


def _refine_once(p: list, iv: Iv) -> Iv:
    """Half of the isolating interval ``iv`` of a root of the integer
    polynomial ``p``, by the signs of ``p`` at its ends and midpoint."""
    lo, hi = iv
    if lo == hi:
        return iv
    mid = (lo + hi) / 2
    sm = _hsign(p, *mid.as_integer_ratio())
    if not sm:
        return (mid, mid)
    if _hsign(p, *lo.as_integer_ratio()) * sm < 0:
        return (lo, mid)
    return (mid, hi)


class RealEmbedding:
    """A designated real root (isolating interval) for each tower generator.

    For the current intervals it also keeps the exact range of each
    power-basis monomial ``g^m``, as a pair of integers over the one common
    denominator ``den``. Ranges are filled on first use and dropped by
    ``refine_all``.
    """

    def __init__(self, tower: ExtensionTower, intervals: dict, minpolys: dict):
        """``minpolys`` maps each step name to its minimal polynomial's
        integer coefficients (``_int_coeffs``), lowest degree first."""
        self.tower = tower
        self.intervals = dict(intervals)
        self._minpolys = minpolys
        self._reset_ranges()

    def _reset_ranges(self):
        # a reduced monomial has exponent below deg m_k in generator k, so
        # den_k^(deg m_k - 1) clears every denominator its range can have
        ivs = [self.intervals[step.name] for step in self.tower.steps]
        self.den = math.prod(
            math.lcm(lo.denominator, hi.denominator) ** (step.degree - 1)
            for step, (lo, hi) in zip(self.tower.steps, ivs)
        )
        self._ranges = {}

    def refine_all(self):
        for name, iv in self.intervals.items():
            self.intervals[name] = _refine_once(self._minpolys[name], iv)
        self._reset_ranges()

    def monomial_range(self, key: tuple) -> tuple:
        """Exact range ``(lo, hi)`` of the monomial with exponents ``key``
        over the current intervals, both over ``den``."""
        rng = self._ranges.get(key)
        if rng is None:
            iv = (Fraction(1), Fraction(1))
            for e, step in zip(key, self.tower.steps):
                if e:
                    iv = _iv_mul(iv, _iv_pow(self.intervals[step.name], e))
            rng = self._ranges[key] = tuple(q.numerator * (self.den // q.denominator) for q in iv)
        return rng

    def width(self) -> Fraction:
        return max((hi - lo for lo, hi in self.intervals.values()), default=Fraction(0))


def default_real_embedding(tower: ExtensionTower) -> RealEmbedding:
    """Embedding from each step's recorded hint, falling back to the greatest
    real root; NoRealEmbedding if some generator has no real root."""
    intervals, minpolys = {}, {}
    for step in tower.steps:
        mp = UniPoly.from_dense("x", [c for c in step.minpoly])
        if not mp.is_rational_poly():
            raise InvalidInput(
                f"step {step.name!r} has non-rational minimal polynomial coefficients"
            )
        minpolys[step.name] = _int_coeffs(mp)
        if step.embedding is not None:
            lo, hi = step.embedding
            ok = lo == hi and mp.eval_at(lo).is_zero()
            ok = ok or (lo < hi and sturm_real_root_count(mp, (lo, hi)) == 1)
            if not ok:
                raise InvalidInput(f"recorded embedding for {step.name!r} does not isolate a root")
            intervals[step.name] = (lo, hi)
            continue
        roots = isolate_real_roots(mp)
        if not roots:
            raise NoRealEmbedding(f"generator {step.name!r} has no real root")
        intervals[step.name] = roots[-1]
    return RealEmbedding(tower, intervals, minpolys)


def _as_float(n: int, den: int) -> float:
    """The float nearest ``n / den`` (``den > 0``): int division is correctly rounded."""
    try:
        return n / den
    except OverflowError:
        raise InvalidInput(f"value near 2^{n.bit_length() - den.bit_length()} is outside the float range") from None


def _tolerance(tol) -> Fraction:
    """``tol`` as a Fraction; InvalidInput unless it is positive."""
    if not isinstance(tol, Fraction):
        tol = Fraction(tol)
    if tol.numerator <= 0:
        raise InvalidInput("tolerance must be positive")
    return tol


class CertifiedValue:
    """A float together with a certified bound on its distance to the truth.

    The exact enclosure is kept as integers: the truth lies within
    ``radius / den`` of ``mid / den``. ``value`` is the float nearest
    ``mid / den``. ``halfwidth`` is the smallest float at least the radius
    plus the rounding error of ``value``; it is computed on first read, since
    mesh export reads only ``value``.
    """

    __slots__ = ("value", "_mid", "_radius", "_den", "_halfwidth")

    def __init__(self, mid: int, radius: int, den: int):
        self.value = _as_float(mid, den)
        self._mid, self._radius, self._den = mid, radius, den
        self._halfwidth = None

    @property
    def halfwidth(self) -> float:
        if self._halfwidth is None:
            p, q = self.value.as_integer_ratio()
            # radius/den + |p/q - mid/den| == num / den_q
            num = self._radius * q + abs(p * self._den - self._mid * q)
            den_q = self._den * q
            halfwidth = num / den_q  # correctly rounded, so at most one float short
            hp, hq = halfwidth.as_integer_ratio()
            if hp * den_q < num * hq:
                halfwidth = math.nextafter(halfwidth, math.inf)
            self._halfwidth = halfwidth
        return self._halfwidth

    def __float__(self) -> float:
        return self.value

    def __repr__(self) -> str:
        return f"CertifiedValue(value={self.value!r}, halfwidth={self.halfwidth!r})"


_MAX_REFINEMENTS = 400


def numeric_eval(value, embedding: RealEmbedding | None = None, tol=Fraction(1, 10 ** 12),
                 den: int = 1) -> CertifiedValue:
    """Certified floating approximation of a tower element.

    ``value`` is a Fraction/int (returned exactly), a FieldElement, or the
    integer form of one, which needs ``embedding``: ``(power-basis key,
    int)`` pairs whose sum is the element times the positive int ``den``. A
    FieldElement is put in that form over its coefficients' common
    denominator. Without a nonzero irrational coefficient the value is one
    division; else generator intervals are bisected until the enclosure, a
    dot product in integers of the coefficients against the embedding's
    monomial ranges (low or high end by sign), is narrower than ``tol``.
    """
    tol = _tolerance(tol)
    if isinstance(value, (int, Fraction)):
        return CertifiedValue(value.numerator, 0, value.denominator)
    tower = None
    if isinstance(value, FieldElement):
        tower, den = value.tower, math.lcm(*(q.denominator for q in value.terms.values()))
        value = [(key, q.numerator * (den // q.denominator)) for key, q in value.terms.items()]
    elif not isinstance(value, list) or embedding is None:
        raise InvalidInput("numeric_eval expects a rational, a FieldElement, or integer pairs and an embedding")
    if all(not n or not any(key) for key, n in value):
        return CertifiedValue(sum(n for _, n in value), 0, den)
    emb = embedding or default_real_embedding(tower)
    if tower is not None and emb.tower != tower:
        raise InvalidInput("embedding belongs to a different tower")
    for _ in range(_MAX_REFINEMENTS):
        lo = hi = 0
        for key, n in value:
            a, b = emb.monomial_range(key)
            if n > 0:
                lo += n * a
                hi += n * b
            else:
                lo += n * b
                hi += n * a
        d = den * emb.den
        if (hi - lo) * tol.denominator < tol.numerator * d:
            return CertifiedValue(lo + hi, hi - lo, 2 * d)
        emb.refine_all()
    raise InvalidInput("interval refinement did not converge (tolerance too small?)")
