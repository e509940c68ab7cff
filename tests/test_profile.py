"""Profile-square extraction, (p, a, b) normal form, reparametrizations."""

import random
from fractions import Fraction

import pytest

import oracles

from revolutio import (
    DegenerateProfile,
    InvalidInput,
    MultiPoly,
    NotAGraph,
    NotEquivalent,
    NotPolynomialCurve,
    NotSurfaceOfRevolution,
    QQ,
    UniPoly,
    affine_equivalent,
    decompose_paa,
    gcd_unipoly,
    implicit_to_p2,
    p2_param_from_graph,
    polynomialize_rational,
    resultant_eliminate,
    substitute,
    tubularize,
)

t = UniPoly.variable("t")
s = UniPoly.variable("s")


def xyz():
    return (
        MultiPoly.variable("x", ("x", "y", "z")),
        MultiPoly.variable("y", ("x", "y", "z")),
        MultiPoly.variable("z", ("x", "y", "z")),
    )


class TestImplicitToP2:
    def test_paraboloid(self):
        x, y, z = xyz()
        G = implicit_to_p2(x ** 2 + y ** 2 - z)
        w = MultiPoly.variable("w", ("w", "z"))
        zz = MultiPoly.variable("z", ("w", "z"))
        assert G == w - zz

    def test_cubic(self):
        x, y, z = xyz()
        G = implicit_to_p2(x ** 2 + y ** 2 - z ** 3 - 1)
        w = MultiPoly.variable("w", ("w", "z"))
        zz = MultiPoly.variable("z", ("w", "z"))
        assert G == w - zz ** 3 - 1

    def test_not_sor(self):
        x, y, z = xyz()
        with pytest.raises(NotSurfaceOfRevolution):
            implicit_to_p2(x * y - z)

    def test_vanishing_section_is_not_enough(self):
        x, y, z = xyz()
        with pytest.raises(NotSurfaceOfRevolution):
            implicit_to_p2(x ** 2 + y ** 2 + x * y - z)

    def test_odd_power_of_y(self):
        x, y, z = xyz()
        with pytest.raises(NotSurfaceOfRevolution):
            implicit_to_p2(x ** 2 + y ** 3 - z)

    def test_round_trip_and_every_broken_term(self):
        # F = G(x^2 + y^2, z) rewrites back to G; dropping or doubling any
        # one term of F with a y in it breaks the rewrite (the y-free terms
        # define G itself)
        rng = random.Random(1606)
        x, y, z = xyz()
        tw = QQ.extend("r", [-2, 0, 1])
        r = tw.gen("r")
        wz = ("w", "z")
        for _ in range(12):
            terms = {
                (rng.randint(0, 3), rng.randint(0, 3)):
                    Fraction(rng.randint(-3, 3), rng.randint(1, 3)) + rng.randint(-1, 1) * r
                for _ in range(4)
            }
            G = MultiPoly(wz, terms, tw)
            if G.degree_in("w") < 1:
                continue
            F = substitute(G, {"w": x * x + y * y, "z": z})
            assert implicit_to_p2(F) == G
            for key, c in F.terms.items():
                if key[1] == 0:
                    continue
                one = MultiPoly(F.vars, {key: c}, F.tower)
                for broken in (F - one, F + one):
                    with pytest.raises(NotSurfaceOfRevolution):
                        implicit_to_p2(broken)


class TestGraphParam:
    def test_line(self):
        w = MultiPoly.variable("w", ("w", "z"))
        z = MultiPoly.variable("z", ("w", "z"))
        assert p2_param_from_graph(w - z) == (t, t)

    def test_sphere_profile(self):
        w = MultiPoly.variable("w", ("w", "z"))
        z = MultiPoly.variable("z", ("w", "z"))
        assert p2_param_from_graph(w + z ** 2 - 1) == (1 - t ** 2, t)

    def test_not_a_graph(self):
        w = MultiPoly.variable("w", ("w", "z"))
        z = MultiPoly.variable("z", ("w", "z"))
        with pytest.raises(NotAGraph):
            p2_param_from_graph(w ** 2 - z)
        with pytest.raises(NotAGraph):
            p2_param_from_graph(z * w - 1)


class TestDecompose:
    def test_paraboloid(self):
        d = decompose_paa(t, t)
        assert (d.p, d.a, d.b, d.delta) == (t, UniPoly.constant("t", 1), t, 1)

    def test_yun_oracle_cube(self):
        # t^3 = t * t^2: p = t, a = t
        d = decompose_paa(t ** 3, t)
        assert d.p == t and d.a == t and d.delta == 1

    def test_expand_and_recompose(self):
        dense = oracles.mul(oracles.power([1, 0, 1], 2), [-2, 1])
        f = UniPoly("t", {i: c for i, c in enumerate(dense)})
        d = decompose_paa(f, t + 5)
        assert d.p == t - 2 and d.a == t ** 2 + 1 and d.b == t + 5 and d.delta == 1

    def test_sphere(self):
        d = decompose_paa(1 - t ** 2, t)
        assert d.p == 1 - t ** 2 and d.a == 1 and d.delta == 2

    def test_degenerate(self):
        with pytest.raises(DegenerateProfile):
            decompose_paa(t, UniPoly.constant("t", 3))

    def test_point_refused_before_degenerate_checks(self):
        # both constant would also be a constant second coordinate
        with pytest.raises(InvalidInput, match="both components are constant"):
            decompose_paa(UniPoly.constant("t", 1), UniPoly.constant("t", 2))
        with pytest.raises(InvalidInput, match="both components are constant"):
            decompose_paa(UniPoly.zero("t"), UniPoly.zero("t"))

    def test_reconstruction_randomized(self):
        rng = random.Random(903)
        for _ in range(60):
            f = UniPoly.constant("t", rng.choice([-3, -1, 1, 2, 5]))
            for _ in range(rng.randrange(1, 4)):
                base = t + rng.randint(-4, 4)
                f = f * base ** rng.randrange(1, 4)
            d = decompose_paa(f, t)
            assert d.p * d.a * d.a == f
            assert gcd_unipoly(d.p, d.p.derivative()).is_constant()


class TestPolynomialize:
    def test_circle_refused(self):
        with pytest.raises(NotPolynomialCurve):
            polynomialize_rational(2 * s, 1 + s ** 2, 1 - s ** 2, 1 + s ** 2)

    def test_moebius_oracle(self):
        one = UniPoly.constant("s", 1)
        assert polynomialize_rational(one, s, one, s ** 2) == (t, t ** 2)

    def test_polynomial_unchanged(self):
        one = UniPoly.constant("t", 1)
        assert polynomialize_rational(t, one, t ** 3, one) == (t, t ** 3)

    def test_constant_denominators_divided_out(self):
        two, four = UniPoly.constant("s", 2), UniPoly.constant("s", 4)
        assert polynomialize_rational(s, two, s ** 3, four) == (s * Fraction(1, 2), s ** 3 * Fraction(1, 4))

    def test_refusals_in_order(self):
        one, zero = UniPoly.constant("s", 1), UniPoly.zero("s")
        # a zero denominator is named even when the components are constant
        with pytest.raises(InvalidInput, match="zero denominator"):
            polynomialize_rational(one, zero, one, one)
        with pytest.raises(InvalidInput, match="zero denominator"):
            polynomialize_rational(s, one, s, zero)
        with pytest.raises(InvalidInput, match="both components are constant"):
            polynomialize_rational(one, 2 * one, 3 * one, 4 * one)
        # constant only once the fraction is reduced: (s + 1)/(2s + 2) = 1/2
        with pytest.raises(InvalidInput, match="both components are constant"):
            polynomialize_rational(s + 1, 2 * s + 2, 3 * one, one)

    def test_surviving_pole_refused(self):
        # [t, 1/t] is the hyperbola xz = 1: two points at infinity
        one = UniPoly.constant("s", 1)
        with pytest.raises(NotPolynomialCurve):
            polynomialize_rational(s, one, one, s)

    def test_moebius_roundtrip_recovers_curve(self):
        # rationalize a proper polynomial curve by t -> r + 1/s, polynomialize
        # it back, and confirm the result is affinely equivalent to the input
        from revolutio import QQ
        from revolutio.profile import _moebius_lift

        rng = random.Random(912)
        for _ in range(30):
            fx = UniPoly(
                "t", {e: Fraction(rng.randint(-4, 4)) for e in range(rng.randrange(2, 5))}
            ) + t ** rng.randrange(2, 5)
            r = Fraction(rng.randint(-3, 3))
            original = (fx, t)
            dx = int(fx.degree)
            num_x = _moebius_lift(fx, QQ.rational(r)).rename("s")
            den_x = UniPoly("s", {dx: 1})
            num_z = UniPoly("s", {1: r, 0: 1})
            den_z = UniPoly.variable("s")
            out = polynomialize_rational(num_x, den_x, num_z, den_z)
            assert affine_equivalent(original, out) == (1, r)

    def test_output_on_same_curve(self):
        # implicit form of the input via resultant; the output must satisfy it
        one = UniPoly.constant("s", 1)
        w = MultiPoly.variable("w", ("s", "w", "z"))
        z = MultiPoly.variable("z", ("s", "w", "z"))
        sv = MultiPoly.variable("s", ("s", "w", "z"))
        implicit = resultant_eliminate(
            w * sv - 1, z * sv ** 2 - 1, "s"
        )
        x, b = polynomialize_rational(one, s, one, s ** 2)
        assert substitute(implicit, {"w": x, "z": b}).is_zero()


class TestAffineEquivalent:
    def test_recovers_scale_shift(self):
        f = (t, t ** 2)
        g = (2 * s + 1, (2 * s + 1) ** 2)
        assert affine_equivalent(f, g) == (2, 1)

    def test_identity(self):
        f = (t, t ** 2)
        assert affine_equivalent(f, f) == (1, 0)

    def test_constant_pair_refused_first_then_second(self):
        point = (UniPoly.constant("t", 1), UniPoly.constant("t", 2))
        with pytest.raises(InvalidInput, match="both components are constant"):
            affine_equivalent(point, (s, s ** 2))
        with pytest.raises(InvalidInput, match="both components are constant"):
            affine_equivalent((t, t ** 2), point)
        # the check comes before the degree comparison
        with pytest.raises(InvalidInput, match="both components are constant"):
            affine_equivalent((t, t ** 2), (UniPoly.constant("s", 1), UniPoly.constant("s", 2)))

    def test_degree_mismatch(self):
        with pytest.raises(NotEquivalent):
            affine_equivalent((t, t ** 2), (s, s ** 3))

    def test_not_equivalent_same_degrees(self):
        with pytest.raises(NotEquivalent):
            affine_equivalent((t, t ** 2), (s, s ** 2 + s))

    def test_randomized_recovery(self):
        rng = random.Random(904)
        for _ in range(50):
            alpha = Fraction(rng.choice([x for x in range(-6, 7) if x]), rng.randrange(1, 4))
            beta = Fraction(rng.randint(-6, 6), rng.randrange(1, 4))
            fx = t ** 3 + rng.randint(-3, 3) * t
            fz = t ** 2 + rng.randint(-3, 3)
            lin = UniPoly("t", {1: alpha, 0: beta})
            g = (fx.compose(lin), fz.compose(lin))
            assert affine_equivalent((fx, fz), g) == (alpha, beta)


class TestTubularize:
    def test_examples(self):
        x, y, z = xyz()
        d = decompose_paa(t, t)
        assert tubularize(d) == x ** 2 + y ** 2 - z
        d = decompose_paa(t ** 2, t)
        assert tubularize(d) == x ** 2 + y ** 2 - 1
        d = decompose_paa((t ** 2 + 1) ** 3, t)
        assert tubularize(d) == x ** 2 + y ** 2 - z ** 2 - 1
