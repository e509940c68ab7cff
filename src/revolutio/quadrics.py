"""Exact classification of real quadrics and polynomiality verdicts.

One Lagrange reduction of the symmetric 4x4 matrix of F over Q, in
(x, y, z, h) with h the homogenizing coordinate, completes F's squares.
By Sylvester's law of inertia its pivot signs and remainder give the
ranks and signatures of the matrix and of its quadratic-part 3x3 block,
from which the class is read. For a diagonal quadratic part the same
squares are the witness's data: each pivot is a square's coefficient and
its multiplier of row h the centring shift. Witness construction is
deliberately limited to diagonal quadratic parts, which covers every
canonical representative at zero radical cost; verdicts need no witness
and work for any quadric. A verdict is the pair (over C, over R) of the
table below; ``quadric_report`` adds the class and an unverified witness.
"""

from __future__ import annotations

from fractions import Fraction

from .complexparam import SurfaceParam, cone_components, tower_sqrt
from .errors import InvalidInput, NotPolynomial, Unsupported
from .poly import MultiPoly
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


def _matrix(F: MultiPoly) -> list:
    """The symmetric 4x4 matrix of F over Q in (x, y, z, h), h the
    homogenizing coordinate."""
    if F.total_degree != 2:
        raise InvalidInput("a quadric has total degree exactly 2")
    bad = [v for v in F.vars if v not in XYZ and F.uses(v)]
    if bad:
        raise InvalidInput(f"unexpected variables {bad}")
    a = [[Fraction(0)] * 4 for _ in range(4)]
    for key, coeff in F.with_vars(XYZ).terms.items():
        if not coeff.is_rational():
            raise InvalidInput("quadric classification expects rational coefficients")
        # the monomial's two coordinates, h standing in for a missing one
        i, j = ([k for k, e in enumerate(key) for _ in range(e)] + [3, 3])[:2]
        a[i][j] = a[j][i] = coeff.as_rational() / (1 if i == j else 2)
    return a


def _reduce(a: list) -> tuple:
    """Lagrange's reduction of the symmetric 4x4 ``a``, in place, pivoting
    only inside the x, y, z block: ``(pivots, b, c)``, one ``(row, pivot,
    pivot's multiplier of row h)`` per completed square, and the remainder
    ``2h(b.x) + c h^2`` left once the block is zero, ``b`` keyed by the
    unpivoted rows. When every diagonal entry left is zero but some a_kj is
    not, x_k -> x_k + x_j makes a_kk = 2 a_kj. Only nonzero rows and
    entries are touched."""
    live, pivots = [0, 1, 2], []
    while True:
        k = next((i for i in live if a[i][i]), None)
        if k is None:
            pair = next(((i, j) for i in live for j in live if a[i][j]), None)
            if pair is None:
                return pivots, {j: a[j][3] for j in live}, a[3][3]
            k, j = pair
            for i in live + [3]:
                a[k][i] += a[j][i]
            for i in live + [3]:
                a[i][k] += a[i][j]
        p = a[k][k]
        live.remove(k)
        rows = [i for i in live + [3] if a[i][k]]
        for i in rows:
            f = a[i][k] / p
            for j in rows:
                a[i][j] -= f * a[k][j]
        pivots.append((k, p, a[3][k] / p))


def _inertia(pivots, b, c) -> tuple:
    """(positive, negative) counts of the quadratic part's signature, then
    of the whole matrix's, by Sylvester's law of inertia: the pivot signs,
    then the remainder's, one of each when b != 0, else the sign of c."""
    p3 = sum(1 for _, p, _ in pivots if p > 0)
    n3 = len(pivots) - p3
    if any(b.values()):
        return p3, n3, p3 + 1, n3 + 1
    return p3, n3, p3 + (c > 0), n3 + (c < 0)


def _classify(pivots, b, c) -> str:
    p3, n3, p4, n4 = _inertia(pivots, b, c)
    rank4, rank3 = p4 + n4, p3 + n3
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


def classify_quadric(F: MultiPoly) -> str:
    """One of the class labels above, from the signature of one Lagrange
    reduction."""
    return _classify(*_reduce(_matrix(F)))


def quadric_verdict(quadric_class: str) -> tuple:
    """(polynomial over C, polynomial over R) per class: the nine-row table
    plus empty."""
    if quadric_class == REDUCIBLE:
        raise Unsupported("reducible quadrics are out of scope")
    return VERDICTS[quadric_class]


def quadric_param(F: MultiPoly) -> SurfaceParam:
    """Witness parametrization for a quadric with diagonal quadratic part.

    The Lagrange reduction that classifies F completes its squares: each
    pivot is a square's coefficient and its multiplier of row h the shift
    that centres it. Per-variable square-root scalings then reduce to a
    catalog representative, and the result is mapped back. The caller
    verifies it (see verify.py).
    """
    pivots, b, c = _reduce(_matrix(F))
    cls = _classify(pivots, b, c)
    over_c, _ = quadric_verdict(cls)
    if not over_c:
        raise NotPolynomial(f"refused: {cls} admits no polynomial parametrization")
    if any(sum(map(bool, key)) > 1 for key in F.terms):
        raise Unsupported("cross terms present: only diagonal quadratic parts are parametrized")
    quad = dict.fromkeys(XYZ, Fraction(0))
    shifts, lin = dict(quad), dict(quad)
    for k, p, m in pivots:
        quad[XYZ[k]], shifts[XYZ[k]] = p, m
    for j, half in b.items():
        lin[XYZ[j]] = 2 * half
    if cls in (E_PARABOLOID, H_PARABOLOID, P_CYLINDER):
        comps = _solved_linear_witness(quad, lin, c)
    else:
        comps = _central_witness(quad, c, cls)
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
        canonical = dict(zip((pos[0], pos[1], neg[0]), cone_components()))
    elif cls == ELLIPSOID:
        s = sphere_witness()
        root, tower = tower_sqrt(s.tower, -d)
        canonical = dict(zip(XYZ, (root * c for c in s.components)))
    else:
        comps = hyperboloid_components(tower, -d)
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
            witness = quadric_param(F)
        except Unsupported:
            pass
    return cls, over_c, over_r, witness
