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
so the same ranges as multiplying out the Fraction intervals).
``numeric_eval`` takes one grid row in column form, ``(keys, den,
columns)`` per component, and returns one float list per component. A
value's enclosure is two integer dot products: its integers with the
ranges' ``lo + hi`` for the midpoint and, in absolute value, with their
``hi - lo`` for the width, the same enclosure as multiplying out the
generator intervals term by term. When a bound on the whole row (per
component, each column's largest absolute entry times its key's width,
summed) is under the tolerance, no value is due a refinement and the
midpoints are taken column by column; otherwise the row is certified in
order, refining the one embedding whenever a value is still too wide,
exactly as consecutive one-vertex calls would. Each float is the
correctly rounded midpoint (one integer division), InvalidInput beyond
the float range; a rational value has a zero-width enclosure and is never
refined.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import repeat
from operator import mul

from .errors import InvalidInput, NoRealEmbedding
from .poly import UniPoly, _hsign, _int_coeffs, _squarefree_chain, _sturm_count, sturm_real_root_count
from .tower import ExtensionTower

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


_MAX_REFINEMENTS = 400


def numeric_eval(row: list, embedding: RealEmbedding, tol) -> list:
    """One float list per component of ``row``: at each vertex, the float
    nearest the midpoint of an exact enclosure of the component's value
    narrower than ``tol``.

    ``row`` holds ``(keys, den, columns)`` per component: distinct
    power-basis keys, a positive int ``den`` and one integer column per key,
    all of one length, one entry per vertex; at vertex ``j`` the dot product
    of the entries ``columns[m][j]`` with the monomials ``keys[m]`` is the
    value times ``den``. The enclosure is the integers' dot products with
    the embedding's monomial ranges (``lo + hi`` for twice the midpoint, in
    absolute value ``hi - lo`` for the width). When the whole row's bound,
    per component the sum over keys of the column's largest ``|entry|``
    times the key's width, is under ``tol`` for every component, no value
    is due a refinement and the midpoints are taken column by column.
    Otherwise the values are certified in order, vertex by vertex, then
    component by component, against the one ``embedding``, which is refined
    whenever the current value is not yet narrower than ``tol`` (at most
    ``_MAX_REFINEMENTS`` times per value), exactly as consecutive one-vertex
    calls would. A rational value has a zero-width enclosure, so it is never
    refined.
    """
    tol = _tolerance(tol)
    if embedding is None:
        raise InvalidInput("numeric_eval needs an embedding")
    tn, td = tol.numerator, tol.denominator
    eden = embedding.den
    spans = [embedding.ranges(keys) for keys, _, _ in row]
    if all(sum([max(map(abs, col)) * w for col, w in zip(cols, widths) if w]) * td < tn * den * eden
           for (_, den, cols), (_, widths) in zip(row, spans)):
        try:
            return [_midpoints(cols, mids, 2 * den * eden) for (_, den, cols), (mids, _) in zip(row, spans)]
        except OverflowError:
            pass  # the scan raises for the first value beyond the float range, in order
    return _scan(row, embedding, tn, td)


def _midpoints(cols: list, mids: list, d: int) -> list:
    """The floats nearest ``sum_m mids[m] * cols[m][j] / d``, column by column;
    the last column's pass also divides."""
    acc = repeat(0)
    for m, col in zip(mids[:-1], cols):
        acc = [a + m * x for a, x in zip(acc, col)]
    m = mids[-1]
    return [(a + m * x) / d for a, x in zip(acc, cols[-1])]


def _scan(row: list, embedding: RealEmbedding, tn: int, td: int) -> list:
    """``numeric_eval`` value by value, refining where a value is too wide."""
    out = [[] for _ in row]
    by_vertex = [list(zip(*cols)) for _, _, cols in row]
    for j in range(len(row[0][2][0])):
        for (keys, den, _), vertices, floats in zip(row, by_vertex, out):
            ints = vertices[j]
            refinements = 0
            while True:
                mids, widths = embedding.ranges(keys)
                d = den * embedding.den
                # the value's hi - lo over d: the sum of |n| * (hi - lo)
                width = sum(map(mul, map(abs, ints), widths))
                if width * td < tn * d:
                    break
                embedding.refine_all()
                refinements += 1
                if refinements == _MAX_REFINEMENTS:
                    raise InvalidInput("interval refinement did not converge (tolerance too small?)")
            floats.append(_as_float(sum(map(mul, ints, mids)), 2 * d))
    return out
