"""Certified numeric evaluation of tower elements via interval bisection.

No floating-point root finding happens here: every generator carries an
exact rational isolating interval that is bisected against its minimal
polynomial until the requested output tolerance is certified. Each minimal
polynomial is kept as an integer list, so a bisection step is one integer
sign test at the interval's midpoint (``poly._hsign``), the sign at its
low end carried from the step before; isolation counts roots with one
integer Sturm chain per polynomial. Generators without a real root have no
real embedding and are rejected, which is exactly what mesh export needs.

The embedding keeps each generator's interval as two integer ends over a
denominator of its own that doubles at each refinement, and between
refinements, for each tuple of power-basis keys it is asked about, the
exact ranges of those monomials as integer lists over one common
denominator (integer interval products, so the same ranges as multiplying
out the Fraction intervals). ``numeric_eval`` takes one grid row in column
form, ``(keys, den, columns)`` per component, and returns one float list
per component. The values are certified one at a time, in order (vertex
by vertex, then component by component), refining the one embedding while
the current value is too wide, exactly as consecutive one-vertex calls
would. A value's enclosure is two integer dot products with the cached
ranges: its integers, in absolute value, with their ``hi - lo`` for the
width, then, once the width is under the tolerance, with their ``lo + hi``
for the midpoint, the same enclosure as multiplying out the generator
intervals term by term. Each float is the correctly rounded midpoint
(one integer division); a value beyond the float range is InvalidInput,
before any refinement when its whole enclosure is. A rational value has a
zero-width enclosure and is never refined.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

from .errors import InvalidInput, NoRealEmbedding
from .poly import UniPoly, _hsign, _int_coeffs, _squarefree_chain, _sturm_count, sturm_real_root_count
from .tower import ExtensionTower

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


class RealEmbedding:
    """A designated real root (isolating interval) for each tower generator.

    Each generator's interval is kept as two integer ends ``a <= b`` over a
    denominator ``d`` of its own, which doubles at each refinement, with
    the sign of the minimal polynomial at ``a / d`` carried from step to
    step; ``intervals`` is a read-only Fraction view of them. For each
    tuple of power-basis keys it is asked about, the embedding also keeps
    the exact ranges of those monomials as integer lists over the one
    common denominator ``den``, built on first use and dropped by
    ``refine_all``.
    """

    def __init__(self, tower: ExtensionTower, intervals: dict, minpolys: dict):
        """``minpolys`` maps each step name to its minimal polynomial's
        integer coefficients (``_int_coeffs``), lowest degree first."""
        self.tower = tower
        # per step: (a, b, d, deg m_k - 1); a reduced monomial has exponent
        # below deg m_k in generator k, so d^(deg m_k - 1) clears every
        # denominator its range can have
        self._ends = []
        for step in tower.steps:
            lo, hi = intervals[step.name]
            d = math.lcm(lo.denominator, hi.denominator)
            a, b = lo.numerator * (d // lo.denominator), hi.numerator * (d // hi.denominator)
            self._ends.append((a, b, d, step.degree - 1))
        self._polys = [minpolys.get(step.name) for step in tower.steps]
        self._low_signs = [None] * len(self._ends)  # of m_k at a / d, taken at the first refinement
        self._ranges = {}
        self._new_ranges()

    @property
    def intervals(self) -> dict:
        """``{step name: (lo, hi)}`` with Fraction ends, a fresh dict."""
        return {step.name: (Fraction(a, d), Fraction(b, d))
                for step, (a, b, d, _) in zip(self.tower.steps, self._ends)}

    def _new_ranges(self):
        self.den = math.prod([d ** top for _, _, d, top in self._ends])
        self._ranges.clear()

    def refine_all(self):
        """Halve every generator's interval by one sign of its minimal
        polynomial, at the midpoint ``(a + b) / 2d``."""
        ends, signs = self._ends, self._low_signs
        for k, (p, (a, b, d, top)) in enumerate(zip(self._polys, ends)):
            if a == b:
                continue
            if signs[k] is None:
                signs[k] = _hsign(p, a, d)
            m, d = a + b, 2 * d
            sm = _hsign(p, m, d)
            if not sm:
                ends[k] = (m, m, d, top)
            elif signs[k] * sm < 0:
                ends[k] = (2 * a, m, d, top)
            else:
                ends[k] = (m, 2 * b, d, top)
                signs[k] = sm
        self._new_ranges()

    def monomial_range(self, key: tuple) -> tuple:
        """Exact range ``(lo, hi)`` of the monomial with exponents ``key``
        over the current intervals, both over ``den``: an integer interval
        product, each generator's power scaled to ``d_k^(deg m_k - 1)``."""
        lo = hi = 1
        for e, (a, b, d, top) in zip(key, self._ends):
            scale = d ** (top - e)
            if not e:
                lo, hi = lo * scale, hi * scale
                continue
            pa, pb = a ** e, b ** e
            if e % 2 == 0 and a < 0 < b:
                pa, pb = 0, max(pa, pb)
            elif pa > pb:
                pa, pb = pb, pa
            pa, pb = pa * scale, pb * scale
            if lo >= 0 <= pa:
                lo, hi = lo * pa, hi * pb
            else:
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
    real root of its minimal polynomial (``TowerStep.poly``, built once per
    step); NoRealEmbedding if some generator has no real root."""
    intervals, minpolys = {}, {}
    for step in tower.steps:
        mp = step.poly
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
    absolute value ``hi - lo`` for the width). The values are certified one
    at a time, in order, vertex by vertex, then component by component,
    against the one ``embedding``, which is refined whenever the current
    value is not yet narrower than ``tol`` (at most ``_MAX_REFINEMENTS``
    times per value), exactly as consecutive one-vertex calls would. A
    value whose whole enclosure rounds beyond the float range is refused
    before it is refined; a rational value has a zero-width enclosure, so
    it is never refined. A row of another shape, a component without keys
    included, is refused before any refinement.
    """
    tol = _tolerance(tol)
    if embedding is None:
        raise InvalidInput("numeric_eval needs an embedding")
    if any(not keys or len(cols) != len(keys) for keys, _, cols in row):
        raise InvalidInput("numeric_eval needs one column per key and at least one key per component")
    if len({len(col) for _, _, cols in row for col in cols}) > 1:
        raise InvalidInput("numeric_eval needs columns of one length, one entry per vertex")
    tn, td = tol.numerator, tol.denominator
    out = [[] for _ in row]
    for vertex in zip(*[zip(*cols) for _, _, cols in row]):
        for (keys, den, _), floats, ints in zip(row, out, vertex):
            floats.append(_certify(keys, den, ints, embedding, tn, td))
    return out


def _certify(keys: tuple, den: int, ints: tuple, embedding: RealEmbedding, tn: int, td: int) -> float:
    """One value of ``numeric_eval``, ``ints`` against the monomials
    ``keys`` over ``den``, refining ``embedding`` until it is narrower than
    ``tn / td``: its width first, its midpoint once the width is under."""
    for _ in range(_MAX_REFINEMENTS):
        mids, widths = embedding.ranges(keys)
        w, d = sum(map(mul, map(abs, ints), widths)), den * embedding.den
        if w * td < tn * d:
            return _as_float(sum(map(mul, ints, mids)), 2 * d)
        s = sum(map(mul, ints, mids))
        # the end nearer zero beyond the float range: so is every refinement
        try:
            (s - w if s > w else s + w if s < -w else 0) / (2 * d)
        except OverflowError:
            _as_float(s, 2 * d)
        embedding.refine_all()
    raise InvalidInput("interval refinement did not converge (tolerance too small?)")
