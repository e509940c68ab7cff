"""Real verdicts: canonicalization, the degree 0/1/2 analysis, the
four-square identity, the conjecture predicate, and the cubic witness."""

import random
from fractions import Fraction

import pytest

import oracles

from revolutio import (
    QQ,
    InvalidInput,
    MultiPoly,
    P2Decomposition,
    UniPoly,
    conjecture_predicate,
    cubic_example,
    decompose_paa,
    jacobian_generic_rank,
    real_param_delta0,
    real_param_delta1,
    real_param_delta2,
    real_verdict,
    substitute,
    surface_implicit,
    verify_on_surface,
)
from revolutio.numeric import default_real_embedding
from revolutio.profile import p2_implicit
from revolutio.realparam import (
    _rational_quadratic_factors,
    _smallest_disc_quadratic_factor,
    one_sheet_components,
    two_sheet_components,
)
from revolutio.verify import fiber_count_first_valid

t = UniPoly.variable("t")
u = MultiPoly.variable("u", ("u", "v"))
v = MultiPoly.variable("v", ("u", "v"))


def xyz():
    return (
        MultiPoly.variable("x", ("x", "y", "z")),
        MultiPoly.variable("y", ("x", "y", "z")),
        MultiPoly.variable("z", ("x", "y", "z")),
    )


def decomp(x, b):
    return decompose_paa(x, b)


def tubular_identity_holds(verdict, p):
    """X^2 + Y^2 = p(Z) for the witness of a verdict lifted by a = 1, b = t."""
    w = verdict.witness
    return (w.x ** 2 + w.y ** 2 - substitute(p, {"t": w.z})).is_zero()


class TestCanonicalize:
    """real_param_delta2 completes the square of p to sign*z^2 + lambda."""

    def test_already_canonical(self):
        verdict = real_param_delta2(decomp(t ** 2 - 1, t))
        assert verdict.status == "real-nonproper-double-cover"
        assert verdict.witness.tower == QQ
        assert tubular_identity_holds(verdict, t ** 2 - 1)

    def test_complete_the_square_oracle(self):
        # 4z^2 + 8z = 4(z + 1)^2 - 4: sign +1, lambda = -4, scale 1/2, shift -1,
        # and sqrt(4) and sqrt(|-4|) are rational
        p = 4 * t ** 2 + 8 * t
        verdict = real_param_delta2(decomp(p, t))
        assert verdict.status == "real-nonproper-double-cover"
        assert verdict.witness.tower == QQ
        assert tubular_identity_holds(verdict, p)

    def test_negative_leading(self):
        verdict = real_param_delta2(decomp(-9 * t ** 2 + 1, t))
        assert verdict.status == "no-real-parametrization" and verdict.witness is None

    def test_roundtrip_randomized(self):
        rng = random.Random(907)
        for _ in range(50):
            c2 = rng.choice([x for x in range(-6, 7) if x])
            c1, c0 = rng.randint(-9, 9), rng.randint(-9, 9)
            p = UniPoly("t", {2: Fraction(c2), 1: Fraction(c1), 0: Fraction(c0)})
            if 4 * c2 * c0 == c1 * c1:  # not square-free
                continue
            lam = Fraction(c0) - Fraction(c1 * c1, 4 * c2)
            verdict = real_param_delta2(decomp(p, t))
            if c2 < 0:
                assert verdict.status == ("empty-real-locus" if lam < 0 else "no-real-parametrization")
                continue
            assert verdict.status == ("real-proper" if lam > 0 else "real-nonproper-double-cover")
            assert tubular_identity_holds(verdict, p)

    def test_wrong_degree(self):
        with pytest.raises(InvalidInput):
            real_param_delta2(decomp(t + 1, t))


class TestDelta1:
    def test_paraboloid(self):
        verdict = real_param_delta1(decomp(t, t))
        assert verdict.status == "real-proper"
        assert verdict.witness.components == (u, v, u ** 2 + v ** 2)

    def test_cubic_of_revolution(self):
        x, y, z = xyz()
        verdict = real_param_delta1(decomp(t ** 3, t))
        w = u ** 2 + v ** 2
        assert verdict.witness.x == w * u and verdict.witness.y == w * v and verdict.witness.z == w
        verify_on_surface(verdict.witness, x ** 2 + y ** 2 - z ** 3)

    def test_quartic_height(self):
        x, y, z = xyz()
        verdict = real_param_delta1(decomp(t, t ** 2))
        w = u ** 2 + v ** 2
        assert verdict.witness.components == (u, v, w * w)
        verify_on_surface(verdict.witness, (x ** 2 + y ** 2) ** 2 - z)

    def test_general_linear_p(self):
        x, b = (3 * t - 2) * (t ** 2 + 1) ** 2, 2 * t + 7
        d = decomp(x, b)
        verdict = real_param_delta1(d)
        assert verdict.status == "real-proper"
        verify_on_surface(verdict.witness, surface_implicit(p2_implicit(x, b)))


class TestDelta2:
    def test_sphere_no_real(self):
        verdict = real_param_delta2(decomp(1 - t ** 2, t))
        assert verdict.status == "no-real-parametrization"
        assert "compact" in verdict.reason
        assert verdict.witness is None

    def test_one_sheet_exact_components(self):
        verdict = real_param_delta2(decomp(t ** 2 + 1, t))
        assert verdict.status == "real-proper"
        A, B, C = one_sheet_components()
        assert verdict.witness.components == (A, B, C)
        x, y, z = xyz()
        verify_on_surface(verdict.witness, x ** 2 + y ** 2 - z ** 2 - 1)

    def test_one_sheet_before_lift_identity(self):
        # the unlifted scaled recipe satisfies x^2 + y^2 - z^2 = lambda
        lam = 2
        from revolutio import tower_sqrt

        root, tower = tower_sqrt(QQ, Fraction(lam))
        A, B, C = one_sheet_components(tower)
        X, Y, Z = root * A, root * B, root * C
        assert (X * X + Y * Y - Z * Z - lam).is_zero()

    def test_two_sheet_double_cover(self):
        verdict = real_param_delta2(decomp(t ** 2 - 1, t))
        assert verdict.status == "real-nonproper-double-cover"
        assert verdict.witness.properness == "non-proper-degree-2"
        Q1, Q2, Q3 = two_sheet_components()
        assert verdict.witness.components == (Q1, Q2, Q3)
        x, y, z = xyz()
        verify_on_surface(verdict.witness, x ** 2 + y ** 2 - z ** 2 + 1)
        n, sample = fiber_count_first_valid(verdict.witness)
        assert n == 2 and sample == (1, 1)

    def test_empty(self):
        verdict = real_param_delta2(decomp(-t ** 2 - 1, t))
        assert verdict.status == "empty-real-locus"

    def test_lifted_general(self):
        x, b = (t ** 2 + 3) * (t ** 2 + 1) ** 2, t - 4
        d = decomp(x, b)
        verdict = real_param_delta2(d)
        assert verdict.status == "real-proper"
        verify_on_surface(verdict.witness, surface_implicit(p2_implicit(x, b)))
        # sqrt(3) generator carries a real embedding
        default_real_embedding(verdict.witness.tower)


class TestDioph:
    def test_unit_matrix(self):
        assert oracles.dioph_identity_check(1, 0, 0, 1).is_zero()

    def test_random_rationals(self):
        rng = random.Random(908)
        for _ in range(25):
            qs = [Fraction(rng.randint(-9, 9), rng.randrange(1, 5)) for _ in range(4)]
            assert oracles.dioph_identity_check(*qs).is_zero()

    def test_full_symbolic_identity(self):
        names = ("q1", "q2", "q3", "q4")
        qs = [MultiPoly.variable(n, names) for n in names]
        assert oracles.dioph_identity_check(*qs).is_zero()

    def test_section_reproduces_two_sheet_witness(self):
        # the specific section with q1 q4 - q2 q3 = 1 must give the frozen
        # double-cover components coefficient for coefficient
        w = u * (u * v + 1)
        q1 = v - w
        q2 = 1 + v + 2 * u * v + w
        q3 = -1 + v - 2 * u * v + w
        q4 = q1
        assert (q1 * q4 - q2 * q3) == 1
        from revolutio.realparam import dioph_point

        got = dioph_point(q1, q2, q3, q4)
        expected = (
            -2 * (u ** 2 + 2 * u ** 3 * v - v ** 2 + u ** 4 * v ** 2),
            -2 * (u + v + 3 * u ** 2 * v + 2 * u * v ** 2 + 2 * u ** 3 * v ** 2),
            1 + 4 * u * v + 4 * u ** 3 * v + 2 * v ** 2 + 2 * u ** 4 * v ** 2
            + u ** 2 * (2 + 4 * v ** 2),
        )
        assert got[0] == expected[0] and got[1] == expected[1] and got[2] == expected[2]
        assert two_sheet_components() == expected


class TestDelta0:
    def test_cone(self):
        verdict = real_param_delta0(decomp(t ** 2, t))
        assert verdict.status == "real-proper"
        assert verdict.witness.components == (-2 * u * v, v ** 2 - u ** 2, u ** 2 + v ** 2)

    def test_no_real_roots_pythagorean(self):
        x, y, z = xyz()
        d = decomp((t ** 2 + 1) ** 2, t)
        verdict = real_param_delta0(d)
        assert verdict.status == "real-proper"
        A, B, C = one_sheet_components()
        assert verdict.witness.components == (2 * A * B, B * B - A * A, C)
        F = x ** 2 + y ** 2 - (z ** 2 + 1) ** 2
        verify_on_surface(verdict.witness, F)

    def test_cylinder(self):
        verdict = real_param_delta0(decomp(UniPoly.constant("t", 1), t))
        assert verdict.status == "no-real-parametrization"
        assert "cylinder" in verdict.reason

    def test_negative_constant(self):
        # [-t^2, t] decomposes with p = -1, a = t
        verdict = real_param_delta0(decomp(-(t ** 2), t))
        assert verdict.status == "empty-real-locus"

    def test_two_conjugate_pairs(self):
        # a = (t^2+1)(t^2+4): no real roots, two rational quadratic factors
        x, b = ((t ** 2 + 1) * (t ** 2 + 4)) ** 2, t
        d = decomp(x, b)
        verdict = real_param_delta0(d)
        assert verdict.status == "real-proper"
        verify_on_surface(verdict.witness, surface_implicit(p2_implicit(x, b)))

    def test_unresolved_when_no_rational_quadratic_factor(self):
        # t^4 + 1 factors only through sqrt(2)
        d = decomp((t ** 4 + 1) ** 2, t)
        verdict = real_param_delta0(d)
        assert verdict.status == "unresolved"

    def test_irrational_real_root_extension(self):
        x, b = (t ** 2 - 2) ** 2, t
        d = decomp(x, b)
        verdict = real_param_delta0(d)
        assert verdict.status == "real-proper"
        verify_on_surface(verdict.witness, surface_implicit(p2_implicit(x, b)))
        default_real_embedding(verdict.witness.tower)


class TestQuadraticFactorSearch:
    def test_factors_of_product(self):
        f = (t ** 2 + 1) * (t ** 2 + 4)
        pairs = _rational_quadratic_factors(f)
        assert (Fraction(0), Fraction(1)) in pairs
        assert (Fraction(0), Fraction(4)) in pairs

    def test_smallest_discriminant_wins(self):
        f = (t ** 2 + 1) * (t ** 2 + 4)
        assert _smallest_disc_quadratic_factor(f) == (0, 1)

    def test_general_quadratic(self):
        f = t ** 2 + t + 1
        assert _rational_quadratic_factors(f) == [(Fraction(1), Fraction(1))]

    def test_none_for_irreducible_quartic(self):
        assert _smallest_disc_quadratic_factor(t ** 4 + 1) is None


class TestConjecture:
    @pytest.mark.parametrize(
        "p,expected",
        [
            (t, "satisfied"),
            (t ** 2 + 1, "satisfied"),
            (1 - t ** 2, "violated"),
            (t ** 3 - t, "violated"),
        ],
    )
    def test_regression_pairs(self, p, expected):
        d = P2Decomposition(p, UniPoly.constant("t", 1), t)
        assert conjecture_predicate(d).status == expected

    def test_facts_exposed(self):
        d = P2Decomposition(1 - t ** 2, UniPoly.constant("t", 1), t)
        cp = conjecture_predicate(d)
        assert cp.real_root_count == 2 and cp.two_dimensional and not cp.satisfied

    def test_negative_constant_not_two_dimensional(self):
        d = P2Decomposition(UniPoly.constant("t", -2), t, t)
        cp = conjecture_predicate(d)
        assert not cp.two_dimensional


class TestCubicExample:
    def test_residual_zero(self):
        x, y, z = xyz()
        w = cubic_example()
        verify_on_surface(w, x ** 2 + y ** 2 - z ** 3 - 1)

    def test_z_at_origin(self):
        w = cubic_example()
        assert w.z.eval_at({"u": Fraction(0), "v": Fraction(0)}).is_zero()

    def test_rank_two(self):
        assert jacobian_generic_rank(cubic_example()) == 2

    def test_real_embedding_exists(self):
        default_real_embedding(cubic_example().tower)


class TestDispatch:
    def test_cubic_gets_witness(self):
        verdict = real_verdict(decomp(t ** 3 + 1, t))
        assert verdict.status == "real-proper" and verdict.witness is not None

    def test_high_degree_unresolved(self):
        verdict = real_verdict(decomp(t ** 4 + t, t))
        assert verdict.status == "unresolved"
        assert "violated" in verdict.reason or "satisfied" in verdict.reason

    def test_delta_routing(self):
        assert real_verdict(decomp(t, t)).status == "real-proper"
        assert real_verdict(decomp(1 - t ** 2, t)).status == "no-real-parametrization"
        assert real_verdict(decomp(t ** 2, t)).status == "real-proper"
