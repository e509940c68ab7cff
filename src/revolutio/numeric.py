"""Certified numeric evaluation of tower elements via interval bisection.

No floating-point root finding happens here: every generator carries an
exact rational isolating interval that is bisected against its minimal
polynomial (sign tests only) until the requested output tolerance is
certified. Generators without a real root have no real embedding and are
rejected, which is exactly what mesh export needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidInput, NoRealEmbedding
from .poly import UniPoly, sturm_real_root_count
from .tower import ExtensionTower, FieldElement

Iv = tuple  # (lo, hi) with Fraction endpoints, lo <= hi


def _iv_exact(q: Fraction) -> Iv:
    return (q, q)


def _iv_add(a: Iv, b: Iv) -> Iv:
    return (a[0] + b[0], a[1] + b[1])


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


def cauchy_root_bound(f: UniPoly) -> Fraction:
    """All complex roots of f lie strictly inside |x| < bound."""
    coeffs = f.rational_coeffs()
    d = max(coeffs)
    lead = abs(coeffs[d])
    rest = [abs(c) for e, c in coeffs.items() if e != d]
    return Fraction(1) + (max(rest) / lead if rest else Fraction(0))


def isolate_real_roots(f: UniPoly) -> list:
    """Disjoint rational intervals, one distinct real root each, sorted.

    ``f`` must be square-free with rational coefficients. A degenerate
    interval (r, r) marks an exact rational root.
    """
    if f.is_constant():
        return []
    bound = cauchy_root_bound(f)
    out = []

    def rec(lo: Fraction, hi: Fraction):
        n = sturm_real_root_count(f, (lo, hi))
        if n == 0:
            return
        if n == 1:
            out.append((lo, hi))
            return
        mid = (lo + hi) / 2
        if f.eval_at(mid).is_zero():
            out.append((mid, mid))
        rec(lo, mid)
        rec(mid, hi)

    rec(-bound, bound)
    return sorted(out, key=lambda iv: iv[0] + iv[1])


def _refine_once(f: UniPoly, iv: Iv) -> Iv:
    lo, hi = iv
    if lo == hi:
        return iv
    mid = (lo + hi) / 2
    fm = f.eval_at(mid)
    if fm.is_zero():
        return (mid, mid)
    if f.eval_at(lo).sign() * fm.sign() < 0:
        return (lo, mid)
    return (mid, hi)


class RealEmbedding:
    """A designated real root (isolating interval) for each tower generator."""

    def __init__(self, tower: ExtensionTower, intervals: dict):
        self.tower = tower
        self.intervals = dict(intervals)
        self._minpolys = {}
        for step in tower.steps:
            mp = UniPoly.from_dense("x", [c for c in step.minpoly])
            if not mp.is_rational_poly():
                raise InvalidInput(
                    f"step {step.name!r} has non-rational minimal polynomial "
                    "coefficients; no numeric embedding is available"
                )
            self._minpolys[step.name] = mp

    def refine_all(self):
        for name, iv in self.intervals.items():
            self.intervals[name] = _refine_once(self._minpolys[name], iv)

    def width(self) -> Fraction:
        return max((hi - lo for lo, hi in self.intervals.values()), default=Fraction(0))


def default_real_embedding(tower: ExtensionTower) -> RealEmbedding:
    """Embedding from each step's recorded hint, falling back to the greatest
    real root; NoRealEmbedding if some generator has no real root."""
    intervals = {}
    for step in tower.steps:
        mp = UniPoly.from_dense("x", [c for c in step.minpoly])
        if not mp.is_rational_poly():
            raise InvalidInput(
                f"step {step.name!r} has non-rational minimal polynomial coefficients"
            )
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
    return RealEmbedding(tower, intervals)


@dataclass(frozen=True)
class CertifiedValue:
    """A float together with a certified bound on its distance to the truth."""

    value: float
    halfwidth: float

    def __float__(self) -> float:
        return self.value


def _certified(mid: Fraction, radius: Fraction) -> CertifiedValue:
    """The float nearest ``mid``, with the smallest float halfwidth that is at
    least ``radius`` plus the rounding error of that float.

    Plain integers, not Fraction: mesh export makes one call per vertex
    coordinate, and Fraction arithmetic here costs about four times more.
    """
    value = float(mid)
    p, q = value.as_integer_ratio()
    # radius + |p/q - mid| == num / den
    num = (radius.numerator * mid.denominator * q
           + abs(p * mid.denominator - mid.numerator * q) * radius.denominator)
    den = radius.denominator * mid.denominator * q
    halfwidth = num / den  # correctly rounded, so at most one float short
    hp, hq = halfwidth.as_integer_ratio()
    if hp * den < num * hq:
        halfwidth = math.nextafter(halfwidth, math.inf)
    return CertifiedValue(value, halfwidth)


_MAX_REFINEMENTS = 400


def numeric_eval(value, embedding: RealEmbedding | None = None, tol=Fraction(1, 10 ** 12)) -> CertifiedValue:
    """Certified floating approximation of a tower element.

    ``value`` may be a Fraction/int (returned exactly) or a FieldElement;
    generator intervals are bisected until the enclosure is narrower than
    ``tol``.
    """
    tol = Fraction(tol) if not isinstance(tol, Fraction) else tol
    if tol <= 0:
        raise InvalidInput("tolerance must be positive")
    if isinstance(value, int):
        value = Fraction(value)
    if isinstance(value, Fraction):
        return _certified(value, Fraction(0))
    if not isinstance(value, FieldElement):
        raise InvalidInput("numeric_eval expects a rational or a FieldElement")
    if value.is_rational():
        return _certified(value.as_rational(), Fraction(0))
    emb = embedding or default_real_embedding(value.tower)
    if emb.tower != value.tower:
        raise InvalidInput("embedding belongs to a different tower")
    names = [s.name for s in value.tower.steps]
    for _ in range(_MAX_REFINEMENTS):
        acc = _iv_exact(Fraction(0))
        for key, q in value.terms.items():
            term = _iv_exact(q)
            for name, e in zip(names, key):
                if e:
                    term = _iv_mul(term, _iv_pow(emb.intervals[name], e))
            acc = _iv_add(acc, term)
        width = acc[1] - acc[0]
        if width < tol:
            return _certified((acc[0] + acc[1]) / 2, width / 2)
        emb.refine_all()
    raise InvalidInput("interval refinement did not converge (tolerance too small?)")
