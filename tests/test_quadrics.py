"""Quadric classification, the verdict table, and catalog witnesses."""

import random
from fractions import Fraction

import pytest

from revolutio import (
    InvalidInput,
    MultiPoly,
    NotPolynomial,
    Unsupported,
    classify_quadric,
    quadric_param,
    quadric_report,
    quadric_verdict,
    substitute,
    verify_on_surface,
)

X = MultiPoly.variable("x", ("x", "y", "z"))
Y = MultiPoly.variable("y", ("x", "y", "z"))
Z = MultiPoly.variable("z", ("x", "y", "z"))

CANONICAL = {
    "cone": X ** 2 + Y ** 2 - Z ** 2,
    "elliptic-cylinder": X ** 2 + Y ** 2 - 1,
    "hyperbolic-cylinder": X ** 2 - Y ** 2 - 1,
    "parabolic-cylinder": X ** 2 - Z,
    "ellipsoid": X ** 2 + Y ** 2 + Z ** 2 - 1,
    "hyperboloid-one-sheet": X ** 2 + Y ** 2 - Z ** 2 - 1,
    "hyperboloid-two-sheets": X ** 2 + Y ** 2 - Z ** 2 + 1,
    "hyperbolic-paraboloid": X ** 2 - Y ** 2 - Z,
    "elliptic-paraboloid": X ** 2 + Y ** 2 - Z,
}

#: the nine-row verdict table: (polynomial over C, polynomial over R)
GOLDEN_TABLE = {
    "cone": (True, "yes"),
    "elliptic-cylinder": (False, "no"),
    "hyperbolic-cylinder": (False, "no"),
    "parabolic-cylinder": (True, "yes"),
    "ellipsoid": (True, "no"),
    "hyperboloid-one-sheet": (True, "yes"),
    "hyperboloid-two-sheets": (True, "yes-nonproper"),
    "hyperbolic-paraboloid": (True, "yes"),
    "elliptic-paraboloid": (True, "yes"),
}


class TestClassification:
    @pytest.mark.parametrize("label", sorted(CANONICAL))
    def test_canonical_forms(self, label):
        assert classify_quadric(CANONICAL[label]) == label

    def test_more_forms(self):
        assert classify_quadric(X ** 2 + Y ** 2 + Z ** 2 + 1) == "empty/imaginary"
        assert classify_quadric(X ** 2 + Y ** 2 + 1) == "empty/imaginary"
        assert classify_quadric(X ** 2 + Y ** 2 + Z ** 2) == "empty/imaginary"  # one point
        assert classify_quadric(X ** 2 - Y ** 2) == "degenerate-reducible"
        assert classify_quadric(X ** 2 - 1) == "degenerate-reducible"
        assert classify_quadric(4 * X ** 2 + Y ** 2 + Z ** 2 - 1) == "ellipsoid"
        assert classify_quadric(2 * Z ** 2 - X ** 2 - Y ** 2 - 5) == "hyperboloid-two-sheets"
        assert classify_quadric(-(X ** 2) - Y ** 2 - Z ** 2 + 1) == "ellipsoid"

    def test_degree_enforced(self):
        with pytest.raises(InvalidInput):
            classify_quadric(X ** 3 - Y)
        with pytest.raises(InvalidInput):
            classify_quadric(X - Y)

    def test_sign_flip_invariance(self):
        for label, F in CANONICAL.items():
            assert classify_quadric(-F) == label


class TestEigenSignCounts:
    def test_against_sympy(self):
        # random symmetric rational 3x3 and 4x4 matrices, half of them
        # singular (P^T D P with zeros in D), against the signs of sympy's
        # exact real roots of the characteristic polynomial
        sympy = pytest.importorskip("sympy")
        from revolutio.quadrics import _eigen_sign_counts

        rng = random.Random(4411)
        lam = sympy.Symbol("lam")
        singular = 0
        for _ in range(40):
            n = rng.choice((3, 4))
            if rng.random() < 0.5:
                p = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
                d = [Fraction(rng.choice((0, 0, -2, 1, 3)), rng.choice((1, 2, 5))) for _ in range(n)]
                a = [[sum(p[k][i] * d[k] * p[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
            else:
                a = [[Fraction(0)] * n for _ in range(n)]
                for i in range(n):
                    for j in range(i, n):
                        a[i][j] = a[j][i] = Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 7)))
            m = sympy.Matrix(n, n, lambda i, j: sympy.Rational(a[i][j].numerator, a[i][j].denominator))
            eig = sympy.Poly(m.charpoly(lam).as_expr(), lam).real_roots()
            assert len(eig) == n
            signs = [1 if e.is_positive else -1 if e.is_negative else 0 for e in eig]
            assert all(s or e.is_zero for s, e in zip(signs, eig))
            want = (signs.count(1), signs.count(-1), signs.count(0))
            singular += want[2] > 0
            assert _eigen_sign_counts(a) == want
        assert singular > 10


class TestVerdicts:
    def test_golden_table_verbatim(self):
        for label, (over_c, over_r) in GOLDEN_TABLE.items():
            got_c, got_r = quadric_verdict(label)
            assert got_c is over_c
            assert got_r == over_r

    def test_empty(self):
        assert quadric_verdict("empty/imaginary") == (False, "no-real-points")

    def test_reducible_unsupported(self):
        with pytest.raises(Unsupported):
            quadric_verdict("degenerate-reducible")


def random_affine_conjugate(F, rng):
    """Invertible rational affine substitution of (x, y, z)."""
    while True:
        m = [[Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
        det = (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )
        if det != 0:
            break
    shift = [Fraction(rng.randint(-4, 4)) for _ in range(3)]
    imgs = {}
    for i, var in enumerate(("x", "y", "z")):
        imgs[var] = m[i][0] * X + m[i][1] * Y + m[i][2] * Z + shift[i]
    return substitute(F, imgs)


class TestAffineInvariance:
    def test_classification_stable_under_conjugation(self):
        rng = random.Random(910)
        for label, F in CANONICAL.items():
            for _ in range(5):  # the full 20-per-class run lives in acceptance
                assert classify_quadric(random_affine_conjugate(F, rng)) == label


class TestWitnesses:
    def test_paraboloid(self):
        w = quadric_param(CANONICAL["elliptic-paraboloid"])
        u = MultiPoly.variable("u", ("u", "v"))
        v = MultiPoly.variable("v", ("u", "v"))
        assert w.components == (u, v, u ** 2 + v ** 2)

    def test_scaled_ellipsoid(self):
        F = 4 * X ** 2 + Y ** 2 + Z ** 2 - 1
        w = quadric_param(F)
        verify_on_surface(w, F)
        assert any(s.name == "i" for s in w.tower.steps)

    def test_cylinder_refused(self):
        with pytest.raises(NotPolynomial):
            quadric_param(CANONICAL["elliptic-cylinder"])
        with pytest.raises(NotPolynomial):
            quadric_param(CANONICAL["hyperbolic-cylinder"])

    def test_cross_terms_unsupported(self):
        with pytest.raises(Unsupported):
            quadric_param(X * Y - Z)

    @pytest.mark.parametrize(
        "F",
        [
            CANONICAL["cone"],
            CANONICAL["parabolic-cylinder"],
            CANONICAL["hyperbolic-paraboloid"],
            CANONICAL["hyperboloid-one-sheet"],
            CANONICAL["hyperboloid-two-sheets"],
            3 * X ** 2 + 5 * Y ** 2 + Z ** 2 - 7,
            X ** 2 + 2 * Y ** 2 - 3 * Z ** 2 + 4 * X - 5,
            X ** 2 + Y ** 2 - 2 * Z ** 2,
            X ** 2 + Y + 3 * Z,
            -2 * X ** 2 - Y ** 2 + Z ** 2 - 10,
        ],
    )
    def test_witnesses_verify(self, F):
        verify_on_surface(quadric_param(F), F)

    def test_report_includes_witness_when_diagonal(self):
        cls, over_c, over_r, witness = quadric_report(CANONICAL["elliptic-paraboloid"])
        assert (cls, over_c, over_r) == ("elliptic-paraboloid", True, "yes")
        assert witness is not None
        cls, _, _, witness = quadric_report(X * Y - Z)  # hyperbolic paraboloid in rotated frame
        assert cls == "hyperbolic-paraboloid"
        assert witness is None
