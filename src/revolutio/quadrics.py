"""Exact classification of real quadrics and polynomiality verdicts.

The class is read off the ranks and absolute signatures of the 4x4
homogeneous matrix and its quadratic-part 3x3 block, both computed
exactly from the characteristic polynomial of the matrix scaled to
integers (Faddeev-LeVerrier over Z): ranks from its trailing zeros,
signatures from its sign changes by Descartes' rule (legitimate because
symmetric matrices have real spectra). Witness construction is
deliberately limited to diagonal quadratic parts, which covers every
canonical representative at zero radical cost; verdicts need no witness
and work for any quadric. A verdict is the pair (over C, over R) of the
table below; ``quadric_report`` adds the class and an unverified witness.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .complexparam import SurfaceParam, cone_components, tower_sqrt
from .errors import InternalInvariant, InvalidInput, NotPolynomial, Unsupported
from .poly import MultiPoly, _sign_changes
from .realparam import hyperboloid_components, sphere_witness
from .tower import QQ

XYZ = ("x", "y", "z")
UV = ("u", "v")

ELLIPSOID = "ellipsoid"
HYP1 = "hyperboloid-one-sheet"
HYP2 = "hyperboloid-two-sheets"
E_PARABOLOID = "elliptic-paraboloid"
H_PARABOLOID = "hyperbolic-paraboloid"
CONE = "cone"
E_CYLINDER = "elliptic-cylinder"
H_CYLINDER = "hyperbolic-cylinder"
P_CYLINDER = "parabolic-cylinder"
EMPTY = "empty/imaginary"
REDUCIBLE = "degenerate-reducible"

#: verdict table: class -> (polynomial over C, polynomial over R)
VERDICTS = {
    CONE: (True, "yes"),
    E_CYLINDER: (False, "no"),
    H_CYLINDER: (False, "no"),
    P_CYLINDER: (True, "yes"),
    ELLIPSOID: (True, "no"),
    HYP1: (True, "yes"),
    HYP2: (True, "yes-nonproper"),
    H_PARABOLOID: (True, "yes"),
    E_PARABOLOID: (True, "yes"),
    EMPTY: (False, "no-real-points"),
}


def _coefficient_data(F: MultiPoly):
    if F.total_degree != 2:
        raise InvalidInput("a quadric has total degree exactly 2")
    bad = [v for v in F.vars if v not in XYZ and F.uses(v)]
    if bad:
        raise InvalidInput(f"unexpected variables {bad}")
    Fa = F.with_vars(XYZ)
    quad = {v: Fraction(0) for v in XYZ}
    lin = {v: Fraction(0) for v in XYZ}
    cross = {}
    const = Fraction(0)
    for key, c in Fa.terms.items():
        if not c.is_rational():
            raise InvalidInput("quadric classification expects rational coefficients")
        q = c.as_rational()
        support = [(v, e) for v, e in zip(XYZ, key) if e]
        total = sum(e for _, e in support)
        if total == 0:
            const = q
        elif total == 1:
            lin[support[0][0]] = q
        elif len(support) == 1:
            quad[support[0][0]] = q
        else:
            cross[(support[0][0], support[1][0])] = q
    return quad, lin, cross, const


def quadric_matrices(F: MultiPoly):
    """The symmetric 4x4 matrix of F and its 3x3 quadratic block, exact."""
    quad, lin, cross, const = _coefficient_data(F)
    idx = {v: i for i, v in enumerate(XYZ)}
    a4 = [[Fraction(0)] * 4 for _ in range(4)]
    for v in XYZ:
        a4[idx[v]][idx[v]] = quad[v]
        a4[idx[v]][3] = a4[3][idx[v]] = lin[v] / 2
    for (v, w), q in cross.items():
        a4[idx[v]][idx[w]] = a4[idx[w]][idx[v]] = q / 2
    a4[3][3] = const
    a3 = [row[:3] for row in a4[:3]]
    return a4, a3


def _charpoly(a) -> list:
    """Coefficients [1, c1, ..., cn] of det(tI - A) for an integer matrix A,
    by Faddeev-LeVerrier; the divisions are exact, as every c_k is an
    integer."""
    n = len(a)
    m = [[0] * n for _ in range(n)]
    coeffs = [1]
    for k in range(1, n + 1):
        for i in range(n):
            m[i][i] += coeffs[-1]
        m = [[sum(a[i][l] * m[l][j] for l in range(n)) for j in range(n)] for i in range(n)]
        coeffs.append(-sum(m[i][i] for i in range(n)) // k)
    return coeffs


def _eigen_sign_counts(a) -> tuple:
    """(positive, negative, zero) eigenvalue counts of a symmetric rational
    matrix, by Descartes' rule, exact on a real-rooted polynomial, on the
    characteristic polynomial of the integer matrix ``den * a``: a positive
    scale keeps every eigenvalue's sign."""
    den = lcm(*(q.denominator for row in a for q in row))
    coeffs = _charpoly([[q.numerator * (den // q.denominator) for q in row] for row in a])
    zero = len(coeffs) - 1 - max(k for k, c in enumerate(coeffs) if c)
    pos = _sign_changes(coeffs)
    neg = _sign_changes(-c if k % 2 else c for k, c in enumerate(coeffs))
    return pos, neg, zero


def classify_quadric(F: MultiPoly) -> str:
    """One of the class labels above, from exact rank/signature data."""
    a4, a3 = quadric_matrices(F)
    p4, n4, z4 = _eigen_sign_counts(a4)
    p3, n3, z3 = _eigen_sign_counts(a3)
    rank4, rank3 = 4 - z4, 3 - z3
    if n3 > p3 or (n3 == p3 and n4 > p4):
        p3, n3, p4, n4 = n3, p3, n4, p4
    if rank4 <= 2:
        return REDUCIBLE
    if rank3 == 3:
        if rank4 == 4:
            if p3 == 3:
                return ELLIPSOID if p4 == 3 else EMPTY
            return HYP1 if p4 == 2 else HYP2
        return CONE if p3 == 2 else EMPTY  # p3 == 3 is a single real point
    if rank3 == 2:
        if rank4 == 4:
            return E_PARABOLOID if p3 == 2 else H_PARABOLOID
        if p3 == 1:
            return H_CYLINDER
        return E_CYLINDER if p4 == 2 else EMPTY
    # rank3 == 1
    return P_CYLINDER


def quadric_verdict(quadric_class: str) -> tuple:
    """(polynomial over C, polynomial over R) per class: the nine-row table
    plus empty."""
    if quadric_class == REDUCIBLE:
        raise Unsupported("reducible quadrics are out of scope")
    return VERDICTS[quadric_class]


def quadric_param(F: MultiPoly, quadric_class: str | None = None) -> SurfaceParam:
    """Witness parametrization for a quadric with diagonal quadratic part.

    Completing squares plus per-variable square-root scalings reduce to a
    catalog representative, and the result is mapped back. The caller
    verifies it (see verify.py).
    """
    cls = quadric_class or classify_quadric(F)
    over_c, _ = quadric_verdict(cls)
    if not over_c:
        raise NotPolynomial(f"refused: {cls} admits no polynomial parametrization")
    quad, lin, cross, const = _coefficient_data(F)
    if any(q != 0 for q in cross.values()):
        raise Unsupported("cross terms present: only diagonal quadratic parts are parametrized")
    shifts = {v: Fraction(0) for v in XYZ}
    d_const = const
    lin2 = dict(lin)
    for v in XYZ:
        if quad[v] != 0 and lin[v] != 0:
            shifts[v] = lin[v] / (2 * quad[v])
            d_const -= lin[v] * lin[v] / (4 * quad[v])
            lin2[v] = Fraction(0)
    if cls in (E_PARABOLOID, H_PARABOLOID, P_CYLINDER):
        comps = _solved_linear_witness(quad, lin2, d_const)
    else:
        comps = _central_witness(quad, d_const, cls)
    comps = {v: comps[v] - shifts[v] for v in XYZ}
    return SurfaceParam.make(
        [comps["x"], comps["y"], comps["z"]],
        provenance=(f"quadric catalog witness for {cls}",),
        properness=_WITNESS_FLAGS[cls],
    )


_WITNESS_FLAGS = {
    E_PARABOLOID: "proper",
    H_PARABOLOID: "proper",
    P_CYLINDER: "proper",
    CONE: "unknown",
    ELLIPSOID: "unknown",
    HYP1: "proper",
    HYP2: "non-proper-degree-2",
}


def _solved_linear_witness(quad, lin, d_const):
    """Graph-style witness: solve the surface for one linear variable."""
    solved = next(v for v in XYZ if quad[v] == 0 and lin[v] != 0)
    params = iter(
        (MultiPoly.variable("u", UV), MultiPoly.variable("v", UV))
    )
    comps = {}
    for v in XYZ:
        if v != solved:
            comps[v] = next(params)
    expr = MultiPoly.constant(d_const, UV)
    for v in XYZ:
        if v == solved:
            continue
        if quad[v] != 0:
            expr = expr + quad[v] * comps[v] * comps[v]
        if lin[v] != 0:
            expr = expr + lin[v] * comps[v]
    comps[solved] = expr * (-Fraction(1) / lin[solved])
    return comps


def _central_witness(quad, d_const, cls):
    """Cone / ellipsoid / hyperboloid witnesses via per-variable scalings."""
    flip = 1
    if sum(1 for v in XYZ if quad[v] > 0) < sum(1 for v in XYZ if quad[v] < 0):
        flip = -1
    q = {v: flip * quad[v] for v in XYZ}
    d = flip * d_const
    pos = [v for v in XYZ if q[v] > 0]
    neg = [v for v in XYZ if q[v] < 0]
    tower = QQ
    if cls == CONE:
        if d != 0 or len(pos) != 2 or len(neg) != 1:
            raise InternalInvariant("cone normalization mismatch")
        canonical = dict(zip((pos[0], pos[1], neg[0]), cone_components()))
    elif cls == ELLIPSOID:
        lam = -d
        if len(pos) != 3 or lam <= 0:
            raise InternalInvariant("ellipsoid normalization mismatch")
        s = sphere_witness()
        root, tower = tower_sqrt(s.tower, lam)
        canonical = dict(zip(XYZ, (root * c for c in s.components)))
    else:
        mu = -d
        if len(pos) != 2 or len(neg) != 1 or mu == 0:
            raise InternalInvariant("hyperboloid normalization mismatch")
        if cls != (HYP1 if mu > 0 else HYP2):
            raise InternalInvariant("classified class disagrees with normalization")
        comps = hyperboloid_components(tower, mu)
        tower = comps[0].tower
        canonical = dict(zip((pos[0], pos[1], neg[0]), comps))
    comps = {}
    for v in XYZ:
        root, tower = tower_sqrt(tower, Fraction(1) / abs(q[v]))
        comps[v] = root * canonical[v]
    return comps


def quadric_report(F: MultiPoly) -> tuple:
    """(class, polynomial over C, polynomial over R, witness), the witness
    None unless one is constructible."""
    cls = classify_quadric(F)
    over_c, over_r = quadric_verdict(cls)
    witness = None
    if over_c:
        try:
            witness = quadric_param(F, cls)
        except Unsupported:
            pass
    return cls, over_c, over_r, witness
