"""Profile-square curves of surfaces of revolution about the z-axis.

The section of the surface with the plane y = 0, pushed through
[x, z] -> [x^2, z], gives the plane curve whose polynomiality governs
everything downstream. This module extracts that curve from an implicit
equation, normalizes its parametrization into the (p, a, b) form with p
square-free, and attaches the tubular companion surface
x^2 + y^2 - p(z) = 0. A curve is the plain pair (x(t), b(t)) of UniPolys,
and one with both components constant is refused wherever it enters.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .errors import (
    DegenerateProfile,
    InvalidInput,
    NotAGraph,
    NotEquivalent,
    NotPolynomialCurve,
    NotSurfaceOfRevolution,
)
from .poly import (
    MultiPoly,
    UniPoly,
    gcd_unipoly,
    rational_roots,
    resultant_eliminate,
    squarefree_decompose,
    squarefree_part,
    substitute,
)
from .tower import join_towers


def _refuse_constant(*polys: UniPoly) -> None:
    """Refuse a point: every component (numerator and denominator) constant."""
    if all(f.is_constant() for f in polys):
        raise InvalidInput("both components are constant")


def _reduce_fraction(n: UniPoly, d: UniPoly):
    if d.is_constant():
        return n, d
    g = gcd_unipoly(n, d)
    if not g.is_constant():
        n = n.divmod(g)[0]
        d = d.divmod(g)[0]
    return n, d


@dataclass(frozen=True)
class P2Decomposition:
    """The normal form [p(t) a(t)^2, b(t)] with p square-free; the degree of
    p is the surface invariant driving the real case analysis."""

    p: UniPoly
    a: UniPoly
    b: UniPoly

    @property
    def delta(self) -> int:
        return max(self.p.degree, 0)

    def __repr__(self):
        return f"P2Decomposition(p={self.p}, a={self.a}, b={self.b}, delta={self.delta})"


# -- operations ---------------------------------------------------------------


def implicit_to_p2(F: MultiPoly) -> MultiPoly:
    """Rewrite F(x, y, z) = G(x^2 + y^2, z); the result is the implicit
    equation of the profile-square curve in variables (w, z).

    G is read off the y = 0 section of F, and the rewrite is proved term by
    term: w^n z^k expands to the binomial sum of C(n, i) x^(2i) y^(2n-2i)
    z^k, whose monomials are distinct for distinct (n, k, i). So F equals
    G(x^2 + y^2, z) exactly when every term of F is one of these with that
    coefficient and F has as many terms as the expansions together.
    """
    if F.is_zero():
        raise InvalidInput("zero polynomial")
    extra = [v for v in F.vars if v not in ("x", "y", "z") and F.uses(v)]
    if extra:
        raise InvalidInput(f"unexpected variables {extra}; expected x, y, z")
    Fxyz = F.with_vars(("x", "y", "z"))
    terms = {}
    for (ex, ey, ez), c in Fxyz.terms.items():
        if ey == 0:
            if ex % 2 != 0:
                raise NotSurfaceOfRevolution("odd power of x in the y = 0 section")
            terms[(ex // 2, ez)] = c
    G = MultiPoly._canonical(("w", "z"), terms, F.tower)
    for (ex, ey, ez), c in Fxyz.terms.items():
        g = terms.get(((ex + ey) // 2, ez))
        if ex % 2 or ey % 2 or g is None or c != g * comb((ex + ey) // 2, ex // 2):
            raise NotSurfaceOfRevolution("not expressible through x^2 + y^2 and z")
    if len(Fxyz.terms) != sum(n + 1 for n, _ in terms):
        raise NotSurfaceOfRevolution("not expressible through x^2 + y^2 and z")
    return G


def _sum_of_squares() -> MultiPoly:
    x = MultiPoly.variable("x", ("x", "y", "z"))
    y = MultiPoly.variable("y", ("x", "y", "z"))
    return x * x + y * y


def p2_param_from_graph(G: MultiPoly) -> tuple:
    """Parametrize a w-linear profile-square curve c*w - g(z) as (g(t)/c, t)."""
    if G.is_zero():
        raise InvalidInput("zero polynomial")
    if G.degree_in("w") != 1:
        raise NotAGraph("degree in w is not 1")
    coeffs = G.with_vars(("w", "z")).as_unipoly_in("w")
    lead = coeffs[1]
    if not lead.is_constant():
        raise NotAGraph("leading coefficient in w depends on z")
    c = lead.constant_value()
    x = (-coeffs[0]).rename("t") * c.inverse()
    return x, UniPoly.variable("t", x.tower)


def decompose_paa(x: UniPoly, b: UniPoly) -> P2Decomposition:
    """Split x of the curve (x(t), b(t)) as p * a^2 with p square-free.

    Both components constant is InvalidInput; a constant b or a zero x is a
    DegenerateProfile. The content (including sign) of x goes into p and a
    is kept monic, so the sign of p is meaningful for the real analysis.
    """
    _refuse_constant(x, b)
    if b.is_constant():
        raise DegenerateProfile("second coordinate is constant (plane perpendicular to the axis)")
    if x.is_zero():
        raise DegenerateProfile("first coordinate is identically zero (the axis)")
    if not x.is_rational_poly():
        raise InvalidInput("decomposition requires rational coefficients")
    content, factors = squarefree_decompose(x)
    var = x.var
    p = UniPoly.constant(var, content)
    a = UniPoly.constant(var, 1)
    for f, m in factors:
        if m % 2 == 1:
            p = p * f
        a = a * f ** (m // 2)
    return P2Decomposition(p=p, a=a, b=b)


def polynomialize_rational(x_num: UniPoly, x_den: UniPoly, z_num: UniPoly, z_den: UniPoly) -> tuple:
    """The polynomial pair (x, z) of the curve [x_num/x_den, z_num/z_den]
    when it is polynomial (single point at infinity), else NotPolynomialCurve.

    A zero denominator, then two constant reduced fractions, are InvalidInput.
    Constant denominators are divided out; otherwise a Moebius map in t moves
    the pole to infinity. Properness of the input is assumed, not checked.
    """
    if x_den.is_zero() or z_den.is_zero():
        raise InvalidInput("zero denominator")
    x_num, x_den = _reduce_fraction(x_num, x_den)
    z_num, z_den = _reduce_fraction(z_num, z_den)
    _refuse_constant(x_num, x_den, z_num, z_den)
    if x_den.is_constant() and z_den.is_constant():
        return x_num * x_den.constant_value().inverse(), z_num * z_den.constant_value().inverse()
    q = _lcm_poly(x_den, z_den)
    s = squarefree_part(q)
    if s.degree != 1:
        raise NotPolynomialCurve(
            "the common denominator has several distinct roots (several points at infinity)"
        )
    r = -(s.coeff(0) * s.coeff(1).inverse())
    new = []
    for num, den in ((x_num, x_den), (z_num, z_den)):
        n_lift = _moebius_lift(num, r)
        if n_lift.is_zero():  # a zero numerator lifts to the zero polynomial
            new.append(n_lift)
            continue
        d_lift = _moebius_lift(den, r)
        gap = den.degree - num.degree
        if gap >= 0:
            n_lift = n_lift * UniPoly("t", {gap: 1}, n_lift.tower)
        else:
            d_lift = d_lift * UniPoly("t", {-gap: 1}, d_lift.tower)
        n_lift, d_lift = _reduce_fraction(n_lift, d_lift)
        if not d_lift.is_constant():
            raise NotPolynomialCurve("a pole survives the reparametrization")
        new.append(n_lift * d_lift.constant_value().inverse())
    return tuple(new)


def _lcm_poly(a: UniPoly, b: UniPoly) -> UniPoly:
    g = gcd_unipoly(a, b)
    return (a * b).divmod(g)[0].monic()


def _moebius_lift(f: UniPoly, r) -> UniPoly:
    """X^deg(f) * f(r + 1/X), a polynomial in the fresh variable t: the
    Taylor shift g(t) = f(t + r), its coefficients reversed to degree
    deg(f), since X^d * g(1/X) is the sum of g_e * X^(d - e)."""
    g = f.compose(UniPoly("t", {1: 1, 0: r}, join_towers(f.tower, r.tower)))
    d = max(f.degree, 0)
    return MultiPoly._canonical(("t",), {(d - e,): c for (e,), c in g.terms.items()}, g.tower)


def affine_equivalent(f: tuple, g: tuple) -> tuple:
    """The rationals (scale, shift) of the unique reparametrization with
    g(s) = f(scale*s + shift), if any; scale is nonzero.

    f and g are non-constant (x, z) pairs over Q, and proper (properness is
    a precondition, not checked).
    """
    fx, fz = f
    gx, gz = g
    _refuse_constant(fx, fz)
    _refuse_constant(gx, gz)
    for a, b in ((fx, gx), (fz, gz)):
        if a.degree != b.degree:
            raise NotEquivalent("component degrees differ")
    pairs = [(fx, gx), (fz, gz)]
    pivot = max(pairs, key=lambda ab: ab[0].degree)
    fp, gp = pivot
    if fp.is_constant():
        raise NotEquivalent("no non-constant component to match")
    if not all(h.is_rational_poly() for h in (fx, fz, gx, gz)):
        raise InvalidInput("affine matching is implemented for rational coefficients")
    d = fp.degree
    ratio = gp.lc().as_rational() / fp.lc().as_rational()
    xvar = UniPoly.variable("x")
    for alpha in set(rational_roots(xvar ** d - ratio)):
        a_d = fp.lc().as_rational()
        a_d1 = fp.coeff(d - 1).as_rational() if d >= 1 else Fraction(0)
        b_d1 = gp.coeff(d - 1).as_rational() if d >= 1 else Fraction(0)
        beta = (b_d1 - a_d1 * alpha ** (d - 1)) / (d * a_d * alpha ** (d - 1))
        if all(a.compose(UniPoly(a.var, {1: alpha, 0: beta})) == b.rename(a.var) for a, b in pairs):
            return alpha, beta
    raise NotEquivalent("leading-coefficient matching found no affine reparametrization")


def tubularize(d: P2Decomposition) -> MultiPoly:
    """The tubular companion surface x^2 + y^2 - p(z) = 0, as its implicit
    polynomial."""
    return _sum_of_squares() - d.p.rename("z")


# -- implicit forms for verification ------------------------------------------


def p2_implicit(x: UniPoly, b: UniPoly) -> MultiPoly:
    """An implicit equation of the curve [x(t), b(t)] in (w, z): the
    resultant Res_t(w - x(t), z - b(t)), taken by evaluation at integer
    points and interpolation (``resultant_eliminate``), with degree deg b in
    w and deg x in z. It vanishes on the curve, which is all the on-surface
    verification needs."""
    tvar = x.var
    w = MultiPoly.variable("w", ("w", tvar))
    z = MultiPoly.variable("z", ("z", tvar))
    return resultant_eliminate(w - x, z - b, tvar)


def surface_implicit(G: MultiPoly) -> MultiPoly:
    """The implicit equation F(x, y, z) = G(x^2 + y^2, z) of the surface of
    revolution whose profile-square curve is G(w, z) = 0."""
    return substitute(
        G,
        {"w": _sum_of_squares(), "z": MultiPoly.variable("z", ("x", "y", "z"))},
    )
