"""Independent symbolic verification of parametrization claims.

Construction functions (`sor_complex_param`, `real_verdict`,
`quadric_param`, ...) return witnesses without checking them. They are
verified once, here, by the CLI and the catalog before anything is
emitted. Nothing here trusts the construction modules: on-surface means
the exact residual of substituting the components into the implicit
equation is the zero polynomial, dominance means a 2x2 Jacobian minor is
nonzero as a polynomial, and fiber cardinality is counted by resultant
elimination plus gcd degrees over quotient towers (splitting on zero
divisors, so the count is exact even when the eliminant does not factor
over Q).

The residual F(X, Y, Z) of a surface of revolution is computed as
G(X*X + Y*Y, Z), the same polynomial, once ``implicit_to_p2`` has proved
F = G(x^2 + y^2, z) term by term: G has far fewer terms than F. Every
other surface takes the direct substitution.

Dominance is proved by exact evaluation, never by expanding the minors.
A minor has degree at most d_u in u and d_v in v (twice the largest
component degree, less one), and each of its power-basis components is a
rational polynomial; a polynomial of those degrees that vanishes on a
(d_u + 1) x (d_v + 1) grid is zero (the grid form of the Schwartz-Zippel
lemma). So the rank is 2 exactly when some minor is nonzero at some point
of the grid {1..d_u+1} x {1..d_v+1}, over any tower, reducible or not.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidInput, NotSurfaceOfRevolution, ZeroDivisor
from .poly import (
    MultiPoly,
    _Kronecker,
    _packed_sum,
    gcd_unipoly,
    resultant_eliminate,
    squarefree_part,
    substitute,
)
from .profile import implicit_to_p2
from .tower import FieldElement, join_towers


class _Indeterminate:
    """Sentinel: the chosen sample was non-generic; retry with another."""

    def __repr__(self):
        return "Indeterminate"

    def __bool__(self):
        return False


INDETERMINATE = _Indeterminate()

#: Deterministic retry samples for fiber counting, in order.
FIBER_SAMPLES = (
    (Fraction(1), Fraction(1)),
    (Fraction(2), Fraction(1)),
    (Fraction(1), Fraction(2)),
    (Fraction(3), Fraction(2)),
    (Fraction(2), Fraction(3)),
)


@dataclass
class VerificationReport:
    residual: MultiPoly
    on_surface: bool
    jacobian_rank: int

    def __repr__(self):
        return f"VerificationReport(on_surface={self.on_surface}, jacobian_rank={self.jacobian_rank})"


def verify_on_surface(s, F: MultiPoly) -> VerificationReport:
    """Substitute the parametrization into F and reduce; on-surface iff the
    residual is identically zero."""
    comps = s.components if hasattr(s, "components") else tuple(s)
    residual = _residual(comps, F)
    return VerificationReport(
        residual=residual,
        on_surface=residual.is_zero(),
        jacobian_rank=jacobian_generic_rank(s),
    )


def _residual(comps, F: MultiPoly) -> MultiPoly:
    """F(X, Y, Z) for the components (X, Y, Z).

    When ``implicit_to_p2`` proves F = G(x^2 + y^2, z), as it does for every
    surface of revolution, the residual is G(X*X + Y*Y, Z): one packed run
    whose leaves are X, Y, Z and G's coefficients, with W = X*X + Y*Y formed
    inside it. Any other F, such as a quadric that is not of revolution,
    takes the direct substitution; an odd power of x or y sends it there
    before any proof is tried.
    """
    G = _rotation_form(F)
    if G is None:
        bindings = dict(zip(("x", "y", "z"), comps))
        return substitute(F, {v: bindings[v] for v in F.vars if v in bindings})
    X, Y, Z = (c if isinstance(c, MultiPoly) else MultiPoly.constant(c) for c in comps)
    out_vars = tuple(sorted(set(X.vars) | set(Y.vars) | set(Z.vars)))
    tower = G.tower
    for c in (X, Y, Z):
        tower = join_towers(tower, c.tower)
    # per output variable: the degrees of X, Y, Z and W = X*X + Y*Y bound
    # those of the result, and the widths cover every leaf too
    degs = []
    for v in out_vars:
        dx, dy, dz = (dict(zip(c.vars, c._degrees())).get(v, 0) for c in (X, Y, Z))
        dw = 2 * max(dx, dy)
        degs.append(max([n * dw + k * dz for n, k in G.terms] + [dx, dy, dz]))
    keys = list(G.terms)

    def program(k, leaves):
        x, y, z = leaves[:3]
        w = k.add(k.mul(x, x), k.mul(y, y))
        return _packed_sum(k, keys, (0, 1), [w, z], leaves[3:])

    return _Kronecker(out_vars, degs, tower).run([X, Y, Z] + [G.terms[k] for k in keys], program)


def _rotation_form(F: MultiPoly):
    """G in (w, z) with F = G(x^2 + y^2, z), proved by ``implicit_to_p2``,
    or None when F has an odd power of x or y or the proof fails."""
    odd = [F.vars.index(v) for v in ("x", "y") if v in F.vars]
    if any(key[i] % 2 for key in F.terms for i in odd):
        return None
    try:
        return implicit_to_p2(F)
    except (InvalidInput, NotSurfaceOfRevolution):
        return None


UV = ("u", "v")

#: The index pairs of the three 2x2 minors of the 3x2 Jacobian.
_MINORS = ((0, 1), (0, 2), (1, 2))


def _uv_components(s) -> tuple:
    comps = s.components if hasattr(s, "components") else tuple(s)
    return tuple(c if c.vars == UV else c.with_vars(UV) for c in comps)


def _gradient_at(c: MultiPoly, u0, v0) -> tuple:
    """(dc/du, dc/dv) at the rational point (u0, v0), as FieldElements over
    c's tower: each term adds e * u0^(e-1) * v0^f times its coefficient's
    power-basis entries, and no partial derivative is formed."""
    du, dv = c._degrees()
    pu = [u0 ** k for k in range(du + 1)]
    pv = [v0 ** k for k in range(dv + 1)]
    gu: dict = {}
    gv: dict = {}
    for (a, b), coeff in c.terms.items():
        if a:
            w = a * pu[a - 1] * pv[b]
            for key, q in coeff.terms.items():
                gu[key] = gu.get(key, 0) + w * q
        if b:
            w = b * pu[a] * pv[b - 1]
            for key, q in coeff.terms.items():
                gv[key] = gv.get(key, 0) + w * q
    return tuple(
        FieldElement(c.tower, {k: q for k, q in g.items() if q}, reduce=False)
        for g in (gu, gv)
    )


def _minors_vanish(grads) -> bool:
    """Whether all three 2x2 minors vanish, given the components' gradients
    at one point."""
    return all(
        (grads[i][0] * grads[j][1] - grads[j][0] * grads[i][1]).is_zero() for i, j in _MINORS
    )


def jacobian_generic_rank(s) -> int:
    """2 if some 2x2 minor is nonzero, 1 if the Jacobian is nonzero with all
    minors zero, 0 for a constant map.

    The minors are evaluated on the grid {1..d_u+1} x {1..d_v+1} (u = 0 is
    often singular for these witnesses); when they vanish on all of it
    they are zero polynomials, and a partial derivative is nonzero exactly
    when some term has a positive exponent in its variable.
    """
    comps = _uv_components(s)
    degs = [c._degrees() for c in comps]
    d_u = 2 * max(d[0] for d in degs) - 1
    d_v = 2 * max(d[1] for d in degs) - 1
    for u0 in range(1, d_u + 2):
        for v0 in range(1, d_v + 2):
            if not _minors_vanish([_gradient_at(c, u0, v0) for c in comps]):
                return 2
    return 1 if any(any(key) for c in comps for key in c.terms) else 0


def fiber_count(s, sample) -> object:
    """Number of complex (u, v) with s(u, v) = s(sample), or INDETERMINATE.

    Eliminates v by pairwise resultants, takes the square-free part of the
    gcd of the eliminants, and counts distinct v-roots per u-root by gcd
    degree over the quotient tower, splitting moduli on zero divisors.
    Distinct solutions only; multiplicity is not counted.
    """
    u0, v0 = (Fraction(sample[0]), Fraction(sample[1]))
    comps = _uv_components(s)
    tower = comps[0].tower
    for c in comps[1:]:
        tower = join_towers(tower, c.tower)
    if _minors_vanish([_gradient_at(c, u0, v0) for c in comps]):
        raise InvalidInput("sample lies on the Jacobian's vanishing locus")
    eqs = []
    for c in comps:
        e = c - MultiPoly.constant(c.eval_at({"u": u0, "v": v0}), c.vars, tower)
        if not e.is_zero():  # over (u, v) and ``tower`` already
            eqs.append(e)
    with_v = [e for e in eqs if e.uses("v")]
    u_only = [e for e in eqs if not e.uses("v")]
    if not with_v:
        return INDETERMINATE
    candidates = [e.to_unipoly("u") for e in u_only]
    for i in range(len(with_v)):
        for j in range(i + 1, len(with_v)):
            r = resultant_eliminate(with_v[i], with_v[j], "v")  # a UniPoly in u
            if not r.is_zero():
                candidates.append(r)
    if not candidates:
        return INDETERMINATE
    g = candidates[0]
    for c in candidates[1:]:
        g = gcd_unipoly(g, c)
    if g.is_zero() or g.is_constant():
        return 0 if g.is_constant() and not g.is_zero() else INDETERMINATE
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
        if nv is INDETERMINATE:
            return INDETERMINATE
        total += deg_m * nv
    return total


def _common_v_root_count(with_v, branch_tower, theta) -> object:
    """Distinct common v-roots of the equations at the u-root theta, or
    INDETERMINATE. theta None stands for the generator of ``branch_tower``'s
    top step: a v-coefficient c(u) = sum c_e u^e over the tower below then
    takes the value sum c_e theta^e, written down unreduced (c_e at the
    generator's exponent e) and reduced once."""

    def value(c: MultiPoly) -> FieldElement:
        if theta is not None:
            return c.eval_at({"u": theta})
        return FieldElement(
            branch_tower, {key + (d,): q for (d,), ce in c.terms.items() for key, q in ce.terms.items()}
        )

    g = None
    for e in with_v:
        values = enumerate(value(c) for c in e.as_unipoly_in("v"))
        pe = MultiPoly._canonical(("v",), {(k,): x for k, x in values if not x.is_zero()}, branch_tower)
        g = pe if g is None else gcd_unipoly(g, pe)
    if g is None or g.is_zero():
        return INDETERMINATE
    if g.is_constant():
        return 0
    return squarefree_part(g).degree


def fiber_count_first_valid(s, samples=FIBER_SAMPLES):
    """Walk the deterministic sample list; the first sample off the Jacobian
    vanishing locus that yields a determinate count wins."""
    for sample in samples:
        try:
            n = fiber_count(s, sample)
        except InvalidInput:
            continue
        if n is not INDETERMINATE:
            return n, sample
    return INDETERMINATE, None


def rational_residual(F: MultiPoly, components) -> MultiPoly:
    """Cleared-denominator residual of F composed with a rational
    parametrization given as (numerator, denominator) pairs; zero iff the
    rational map satisfies F identically."""
    names = ("x", "y", "z")
    nums = {}
    dens = {}
    for name, (n, d) in zip(names, components):
        nums[name], dens[name] = n, d
    Fa = F.with_vars(tuple(sorted(set(F.vars) | set(names))))
    idx = {v: i for i, v in enumerate(Fa.vars)}
    maxe = {v: 0 for v in names}
    for key in Fa.terms:
        for v in names:
            maxe[v] = max(maxe[v], key[idx[v]])
    total = None
    for key, c in Fa.terms.items():
        term = MultiPoly.constant(c)
        for v in names:
            e = key[idx[v]]
            term = term * nums[v] ** e * dens[v] ** (maxe[v] - e)
        total = term if total is None else total + term
    return total if total is not None else MultiPoly.zero()
