"""Independent symbolic verification of parametrization claims.

``verify_on_surface`` is the one gate a witness passes before it is
emitted: it raises ``InternalInvariant`` unless the witness is on the
surface, meaning the exact residual of substituting the components into
the implicit equation is the zero polynomial, and dominant, meaning its
Jacobian has generic rank 2 (some 2x2 minor is nonzero as a polynomial).
Construction functions (`sor_complex_param`, `real_verdict`,
`quadric_param`, ...) return witnesses without checking them, and nothing
here trusts them. Fiber cardinality is counted by resultant elimination
plus gcd degrees over quotient towers (splitting on zero divisors, so the
count is exact even when the eliminant does not factor over Q). v is
eliminated against one pivot equation, the one of least v-degree, rather
than from every pair: the gcd of the pivot resultants may have more roots
than that of all pair resultants, but every common u-root of the fiber is
among them, and each extra root has no common v-root, so it counts 0.

A surface of revolution F = G(x^2 + y^2, z) may be given by its
profile-square equation G(w, z), whose residual G(X*X + Y*Y, Z) is the
residual of F: G has far fewer terms than F. An equation in (x, y, z)
takes the direct substitution.

Dominance is proved by exact evaluation, never by expanding the minors.
A minor has degree at most d_u in u and d_v in v (twice the largest
component degree, less one), and each of its power-basis components is a
rational polynomial; a polynomial of those degrees that vanishes on a
(d_u + 1) x (d_v + 1) grid is zero (the grid form of the Schwartz-Zippel
lemma). So the rank is 2 exactly when some minor is nonzero at some point
of the grid {1..d_u+1} x {1..d_v+1}, over any tower, reducible or not.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm

from .errors import InternalInvariant, InvalidInput, ZeroDivisor
from .poly import (
    MultiPoly,
    _Kronecker,
    _packed_sum,
    gcd_unipoly,
    resultant_eliminate,
    squarefree_part,
    substitute,
)
from .tower import FieldElement, join_towers


#: Deterministic retry samples for fiber counting, in order.
FIBER_SAMPLES = (
    (Fraction(1), Fraction(1)),
    (Fraction(2), Fraction(1)),
    (Fraction(1), Fraction(2)),
    (Fraction(3), Fraction(2)),
    (Fraction(2), Fraction(3)),
)


def verify_on_surface(s, F: MultiPoly) -> None:
    """Return only if the witness s, a ``SurfaceParam``, lies on F = 0 and
    is dominant. F is an equation in (x, y, z), or one in (w, z) standing
    for the surface of revolution F(x^2 + y^2, z) = 0.

    Raises InternalInvariant naming the residual of substituting s into F
    when it is nonzero. Otherwise the Jacobian's generic rank is computed,
    and a rank other than 2 raises naming it.
    """
    residual = _residual(s.components, F)
    if not residual.is_zero():
        raise InternalInvariant(f"witness is off the surface: residual {residual!r}")
    rank = jacobian_generic_rank(s)
    if rank != 2:
        raise InternalInvariant(f"witness is not dominant: jacobian rank {rank}")


def _residual(comps, F: MultiPoly) -> MultiPoly:
    """F(X, Y, Z) for the components (X, Y, Z), polynomials in (u, v) over
    one tower as ``SurfaceParam.make`` builds them.

    An F in (w, z) is a profile-square equation G, and the residual is
    G(X*X + Y*Y, Z): one packed run whose leaves are X, Y, Z and G's
    coefficients, with W = X*X + Y*Y formed inside it. Any other F takes
    the direct substitution.
    """
    if F.vars != ("w", "z"):
        bindings = dict(zip(("x", "y", "z"), comps))
        return substitute(F, {v: bindings[v] for v in F.vars if v in bindings})
    X = comps[0]
    keys = list(F.terms)

    def program(k, leaves):
        x, y, z = leaves[:3]
        w = k.add(k.mul(x, x), k.mul(y, y))
        return _packed_sum(k, keys, (0, 1), [w, z], leaves[3:])

    return _Kronecker(X.vars, join_towers(F.tower, X.tower)).run(list(comps) + [F.terms[k] for k in keys], program)


#: The index pairs of the three 2x2 minors of the 3x2 Jacobian.
_MINORS = ((0, 1), (0, 2), (1, 2))


def _gradient_at(c: MultiPoly, u0, v0) -> tuple:
    """(dc/du, dc/dv) at the rational point (u0, v0), as FieldElements over
    c's tower: each term adds e * u0^(e-1) * v0^f times its coefficient's
    numerators, all in integers over the common denominator of the
    coefficients times ``q^du * s^dv`` for ``u0 = p/q``, ``v0 = r/s``, and
    no partial derivative is formed."""
    du, dv = c._degrees()
    (p, q), (r, s) = u0.as_integer_ratio(), v0.as_integer_ratio()
    pp, qq = [p ** k for k in range(du + 1)], [q ** k for k in range(du + 1)]
    rr, ss = [r ** k for k in range(dv + 1)], [s ** k for k in range(dv + 1)]
    den = lcm(*(coeff.den for coeff in c.terms.values()))
    gu = gv = [0] * c.tower._size
    for (a, b), coeff in c.terms.items():
        f = den // coeff.den
        if a:
            w = a * pp[a - 1] * qq[du - a + 1] * rr[b] * ss[dv - b] * f
            gu = [x + w * n for x, n in zip(gu, coeff.num)]
        if b:
            w = b * pp[a] * qq[du - a] * rr[b - 1] * ss[dv - b + 1] * f
            gv = [x + w * n for x, n in zip(gv, coeff.num)]
    den *= qq[du] * ss[dv]
    return FieldElement.from_ints(c.tower, gu, den), FieldElement.from_ints(c.tower, gv, den)


def _minors_vanish(grads) -> bool:
    """Whether all three 2x2 minors vanish, given the components' gradients
    at one point."""
    return all(
        (grads[i][0] * grads[j][1] - grads[j][0] * grads[i][1]).is_zero() for i, j in _MINORS
    )


def jacobian_generic_rank(s) -> int:
    """2 if some 2x2 minor of the ``SurfaceParam`` s is nonzero, 1 if the
    Jacobian is nonzero with all minors zero, 0 for a constant map.

    The minors are evaluated on the grid {1..d_u+1} x {1..d_v+1} (u = 0 is
    often singular for these witnesses); when they vanish on all of it
    they are zero polynomials, and a partial derivative is nonzero exactly
    when some term has a positive exponent in its variable.
    """
    comps = s.components
    degs = [c._degrees() for c in comps]
    d_u = 2 * max(d[0] for d in degs) - 1
    d_v = 2 * max(d[1] for d in degs) - 1
    for u0 in range(1, d_u + 2):
        for v0 in range(1, d_v + 2):
            if not _minors_vanish([_gradient_at(c, u0, v0) for c in comps]):
                return 2
    return 1 if any(any(key) for c in comps for key in c.terms) else 0


def fiber_count(s, sample) -> int | None:
    """Number of complex (u, v) with s(u, v) = s(sample) for the
    ``SurfaceParam`` s, or None when the sample is not generic enough to
    tell.

    Eliminates v by the resultants of the pivot, the equation of least
    v-degree, with each other equation, takes the square-free part of the
    gcd of the eliminants, and counts distinct v-roots per u-root by gcd
    degree over the quotient tower, splitting moduli on zero divisors.
    Distinct solutions only; multiplicity is not counted.

    The count is the one all pair resultants give. A u-root where the
    equations have a common v-root, or all vanish, makes every pair
    resultant vanish, so it is a root of the pivot resultants too. A root
    of their gcd that all pair resultants do not share has no common
    v-root and adds 0. Only when every pivot resultant is identically zero
    are the pairs without the pivot eliminated instead.
    """
    u0, v0 = (Fraction(sample[0]), Fraction(sample[1]))
    comps, tower = s.components, s.tower
    if _minors_vanish([_gradient_at(c, u0, v0) for c in comps]):
        raise InvalidInput("sample lies on the Jacobian's vanishing locus")
    eqs = []
    for c in comps:
        e = c - MultiPoly.constant(c.eval_at({"u": u0, "v": v0}), c.vars, tower)
        if not e.is_zero():  # over (u, v) and ``tower`` already
            eqs.append(e)
    with_v = [e for e in eqs if e.uses("v")]
    # with_v is not empty: the Jacobian check above needs some dc/dv != 0
    g = _u_eliminant(with_v, [e for e in eqs if not e.uses("v")])
    if g is None:
        return None
    if g.is_constant():  # a gcd of nonzero polynomials is not zero
        return 0
    g = squarefree_part(g)

    total = 0
    stack = [g.monic()]
    while stack:
        m = stack.pop()
        deg_m = m.degree
        if deg_m == 1:
            theta = -(m.coeff(0) * m.coeff(1).inverse())
            branch_tower = tower
            branch_name = None
        else:
            branch_name = tower.fresh_name("fiber_u")
            branch_tower = tower.extend(
                branch_name, [m.coeff(e) for e in range(deg_m + 1)]
            )
            theta = None  # the new generator
        try:
            nv = _common_v_root_count(with_v, branch_tower, theta)
        except ZeroDivisor as exc:
            if branch_name is not None and exc.step_name == branch_name:
                f = MultiPoly._canonical(
                    m.vars, {(e,): c for e, c in enumerate(exc.factor) if not c.is_zero()}, tower
                )
                stack.append(f.monic())
                stack.append(m.divmod(f)[0].monic())
                continue
            raise
        if nv is None:
            return None
        total += deg_m * nv
    return total


def _u_eliminant(with_v, u_only):
    """The gcd of the u-only equations and of the nonzero resultants in v
    of the pivot, the first equation of least v-degree in ``with_v``, with
    each other one; the resultants of the pairs without the pivot instead
    when every pivot resultant is identically zero. None when there is
    nothing to take the gcd of."""
    pivot, *others = sorted(with_v, key=lambda e: e.degree_in("v"))
    resultants = [resultant_eliminate(pivot, e, "v") for e in others]  # UniPolys in u
    if all(r.is_zero() for r in resultants):
        resultants = [resultant_eliminate(a, b, "v") for a, b in combinations(others, 2)]
    candidates = [e.to_unipoly("u") for e in u_only] + [r for r in resultants if not r.is_zero()]
    if not candidates:
        return None
    g = candidates[0]
    for c in candidates[1:]:
        g = gcd_unipoly(g, c)
    return g


def _common_v_root_count(with_v, branch_tower, theta) -> int | None:
    """Distinct common v-roots of the equations at the u-root theta, or
    None. theta None stands for the generator of ``branch_tower``'s
    top step: a v-coefficient c(u) = sum c_e u^e over the tower below then
    takes the value sum c_e theta^e, written down unreduced (c_e at the
    generator's exponent e) and reduced once."""

    def value(c: MultiPoly) -> FieldElement:
        if theta is not None:
            return c.eval_at({"u": theta})
        basis = branch_tower.parent.basis
        den = lcm(*(ce.den for ce in c.terms.values()))
        return FieldElement(
            branch_tower,
            {
                basis[i] + (d,): n * (den // ce.den)
                for (d,), ce in c.terms.items()
                for i, n in enumerate(ce.num)
                if n
            },
            den=den,
        )

    g = None
    for e in with_v:
        values = enumerate(value(c) for c in e.as_unipoly_in("v"))
        pe = MultiPoly._canonical(("v",), {(k,): x for k, x in values if not x.is_zero()}, branch_tower)
        g = pe if g is None else gcd_unipoly(g, pe)
    if g is None or g.is_zero():
        return None
    if g.is_constant():
        return 0
    return squarefree_part(g).degree


def fiber_count_first_valid(s):
    """Walk ``FIBER_SAMPLES`` in order; the first sample off the Jacobian
    vanishing locus that yields a count wins; (None, None) when none does."""
    for sample in FIBER_SAMPLES:
        try:
            n = fiber_count(s, sample)
        except InvalidInput:
            continue
        if n is not None:
            return n, sample
    return None, None
