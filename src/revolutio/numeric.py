"""Certified numeric evaluation of tower elements via interval bisection.

No floating-point root finding happens here: every generator carries an
exact rational isolating interval that is bisected against its minimal
polynomial until the requested output tolerance is certified. Each minimal
polynomial is kept as an integer list, so a bisection step is integer sign
tests at the interval's ends and midpoint (``poly._hsign``); isolation
counts roots with one integer Sturm chain per polynomial. Generators
without a real root have no real embedding and are rejected, which is
exactly what mesh export needs.

The embedding keeps each generator's interval as two integer ends over
the generator's own denominator, and between refinements, for each tuple
of power-basis keys it is asked about, the exact ranges of those monomials
as integer lists over one common denominator (integer interval products,
so the same ranges as multiplying out the Fraction intervals). An
element's enclosure is then two integer dot products of its coefficients
over their common denominator: with the ranges' ``lo + hi`` for the
midpoint and, in absolute value, with their ``hi - lo`` for the width. This
gives the same enclosure as multiplying out the generator intervals term by
term, and the same refinements. ``numeric_eval`` takes a batch of elements
in that integer form (mesh export passes one grid row of tabulated
integers) and certifies them in order in one loop, refining the one
embedding whenever a value is still too wide, exactly as consecutive single
calls would; a FieldElement is put in that form first and certified as a
batch of one. A rational value is one correctly rounded integer division,
InvalidInput beyond the float range.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import compress
from operator import mul

from .errors import InvalidInput, NoRealEmbedding
from .poly import UniPoly, _hsign, _int_coeffs, _squarefree_chain, _sturm_count, sturm_real_root_count
from .tower import ExtensionTower, FieldElement

Iv = tuple  # (lo, hi) with Fraction endpoints, lo <= hi


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

    ``intervals`` holds the Fraction intervals. For the current intervals
    the embedding also keeps each generator's interval as two integer ends
    over the generator's own denominator, and, for each tuple of
    power-basis keys it is asked about, the exact ranges of those monomials
    as integer lists over the one common denominator ``den``. The lists are
    built on first use and dropped by ``refine_all``.
    """

    def __init__(self, tower: ExtensionTower, intervals: dict, minpolys: dict):
        """``minpolys`` maps each step name to its minimal polynomial's
        integer coefficients (``_int_coeffs``), lowest degree first."""
        self.tower = tower
        self.intervals = dict(intervals)
        self._minpolys = minpolys
        self._ranges = {}
        self._reset_ranges()

    def _reset_ranges(self):
        # a reduced monomial has exponent below deg m_k in generator k, so
        # den_k^(deg m_k - 1) clears every denominator its range can have
        self._ends = []
        self.den = 1
        for step in self.tower.steps:
            lo, hi = self.intervals[step.name]
            d = math.lcm(lo.denominator, hi.denominator)
            top = step.degree - 1
            self._ends.append((lo.numerator * (d // lo.denominator), hi.numerator * (d // hi.denominator), d, top))
            self.den *= d ** top
        self._ranges.clear()

    def refine_all(self):
        for name, iv in self.intervals.items():
            self.intervals[name] = _refine_once(self._minpolys[name], iv)
        self._reset_ranges()

    def monomial_range(self, key: tuple) -> tuple:
        """Exact range ``(lo, hi)`` of the monomial with exponents ``key``
        over the current intervals, both over ``den``: an integer interval
        product, each generator's power scaled to ``d_k^(deg m_k - 1)``."""
        lo = hi = 1
        for e, (a, b, d, top) in zip(key, self._ends):
            scale = d ** (top - e)
            if not e:
                pa = pb = scale
            else:
                pa, pb = a ** e, b ** e
                if e % 2 == 0 and a < 0 < b:
                    pa, pb = 0, max(pa, pb)
                elif pa > pb:
                    pa, pb = pb, pa
                pa, pb = pa * scale, pb * scale
            products = (lo * pa, lo * pb, hi * pa, hi * pb)
            lo, hi = min(products), max(products)
        return lo, hi

    def ranges(self, keys: tuple) -> tuple:
        """The ranges of the monomials ``keys`` as two integer lists over
        ``den``, in the order of ``keys``: ``lo + hi`` and ``hi - lo`` of each."""
        got = self._ranges.get(keys)
        if got is None:
            ends = [self.monomial_range(key) for key in keys]
            got = self._ranges[keys] = ([lo + hi for lo, hi in ends], [hi - lo for lo, hi in ends])
        return got


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


def _irrational(keys: tuple, ints: list) -> bool:
    """Whether some nonzero integer sits on a monomial other than 1."""
    return any(map(any, compress(keys, ints)))


def _enclose(batch: list, emb: RealEmbedding, tol: Fraction) -> list:
    """One CertifiedValue per ``(keys, ints, den)`` in ``batch``, certified
    in order against ``emb``, which is refined whenever the current value is
    not yet narrower than ``tol`` (at most ``_MAX_REFINEMENTS`` times per
    value). A rational value has a zero-width enclosure, so it is never
    refined; it is one division."""
    tn, td = tol.numerator, tol.denominator
    ranges, eden = emb._ranges, emb.den  # refine_all clears the dict in place
    out = []
    for keys, ints, den in batch:
        refinements = 0
        while True:
            mids, widths = ranges.get(keys) or emb.ranges(keys)
            d = den * eden
            # the value's hi - lo over d: the sum of |n| * (hi - lo)
            width = sum(map(mul, map(abs, ints), widths))
            if width * td < tn * d:
                break
            emb.refine_all()
            eden = emb.den
            refinements += 1
            if refinements == _MAX_REFINEMENTS:
                raise InvalidInput("interval refinement did not converge (tolerance too small?)")
        if width or _irrational(keys, ints):
            out.append(CertifiedValue(sum(map(mul, ints, mids)), width, 2 * d))
        else:
            out.append(CertifiedValue(sum(ints), 0, den))
    return out


def numeric_eval(value, embedding: RealEmbedding | None = None, tol=Fraction(1, 10 ** 12)):
    """Certified floating approximation of tower elements.

    ``value`` is a Fraction/int or a FieldElement, giving one CertifiedValue,
    or the integer form of a batch of elements, which needs ``embedding``
    and gives a list: ``(keys, ints, den)`` triples, ``keys`` distinct
    power-basis keys and ``ints`` the matching integers, whose dot product
    with the monomials is the element times the positive int ``den``. The
    batch is certified in order against the one embedding, exactly as by
    consecutive single calls. A FieldElement is put in that form, over its
    coefficients' common denominator, and certified as a batch of one. A
    value without a nonzero irrational coefficient is one division, and a
    single one needs no embedding; any other is enclosed by the dot products
    of its integers with the embedding's monomial ranges (``lo + hi`` and
    ``hi - lo``), and the generator intervals are bisected until the
    enclosure is narrower than ``tol``.
    """
    tol = _tolerance(tol)
    if isinstance(value, list) and embedding is not None:
        return _enclose(value, embedding, tol)
    if isinstance(value, (int, Fraction)):
        return CertifiedValue(value.numerator, 0, value.denominator)
    if not isinstance(value, FieldElement):
        raise InvalidInput("numeric_eval expects a rational, a FieldElement, or integer triples and an embedding")
    den = math.lcm(*(q.denominator for q in value.terms.values()))
    keys = tuple(value.terms)
    ints = [q.numerator * (den // q.denominator) for q in value.terms.values()]
    if not _irrational(keys, ints):
        return CertifiedValue(sum(ints), 0, den)
    embedding = embedding or default_real_embedding(value.tower)
    if embedding.tower != value.tower:
        raise InvalidInput("embedding belongs to a different tower")
    return _enclose([(keys, ints, den)], embedding, tol)[0]
