"""The complex construction: root adjunction, the tubular base,
lifting, the closed formula, and the cylinder route."""

import random
from fractions import Fraction

import pytest

from revolutio import (
    QQ,
    DegenerateProfile,
    InvalidInput,
    MultiPoly,
    NotPolynomial,
    SurfaceParam,
    UniPoly,
    adjoin_root,
    cylinder_case_param,
    decompose_paa,
    jacobian_generic_rank,
    rotate_curve,
    sor_complex_param,
    sphere_witness,
    squarefree_part,
    sturm_real_root_count,
    substitute,
    tower_sqrt,
    tubular_base,
    tubular_lift,
    verify_on_surface,
)
from revolutio.profile import p2_implicit

t = UniPoly.variable("t")
u = MultiPoly.variable("u", ("u", "v"))
v = MultiPoly.variable("v", ("u", "v"))


def xyz():
    return (
        MultiPoly.variable("x", ("x", "y", "z")),
        MultiPoly.variable("y", ("x", "y", "z")),
        MultiPoly.variable("z", ("x", "y", "z")),
    )


class TestChooseRoot:
    """adjoin_root, the one way a root of a rational polynomial is adjoined."""

    def test_rational_root(self):
        root, tower, m = adjoin_root(t ** 3 + 1, QQ, "alpha")
        assert root == -1 and tower == QQ and m is None

    def test_extension_for_i(self):
        root, tower, m = adjoin_root(t ** 2 + 1, QQ, "alpha")
        assert [s.name for s in tower.steps] == ["alpha"] and m == t ** 2 + 1
        assert root * root == -1

    def test_extension_for_sqrt2(self):
        root, _, m = adjoin_root(t ** 2 - 2, QQ, "alpha")
        assert m == t ** 2 - 2
        assert root * root == 2

    def test_smallest_abs_tie_positive(self):
        root, _, _ = adjoin_root((t - 1) * (t + 1) * (t - 3), QQ, "alpha")
        assert root == 1
        root, _, _ = adjoin_root((t - 2) * (t + 1), QQ, "alpha")
        assert root == -1

    def test_constant_rejected(self):
        with pytest.raises(InvalidInput):
            tubular_base(UniPoly.constant("t", 1))

    def test_real_records_greatest_real_root(self):
        # t^3 - 2 has one real root, 2^(1/3); (t^2 - 2)(t^2 - 3) has four, the greatest sqrt(3)
        _, tower, m = adjoin_root(t ** 3 - 2, QQ, "beta", real=True)
        lo, hi = tower.steps[-1].embedding
        assert lo < hi and sturm_real_root_count(m, (lo, hi)) == 1
        _, tower, m = adjoin_root((t ** 2 - 2) * (t ** 2 - 3), QQ, "beta", real=True)
        lo, hi = tower.steps[-1].embedding
        assert lo ** 2 > 2 and hi ** 2 > 3 and sturm_real_root_count(m, (lo, hi)) == 1
        _, tower, _ = adjoin_root(t ** 3 - 2, QQ, "beta")
        assert tower.steps[-1].embedding is None

    def test_postcondition_randomized(self):
        rng = random.Random(905)
        for _ in range(40):
            f = t + rng.randint(-4, 4)
            for _ in range(rng.randrange(0, 2)):
                f = f * (t ** 2 + rng.randrange(1, 5))
            root, _, _ = adjoin_root(f, QQ, "alpha")
            assert f.eval_at(root).is_zero()

    def test_property_derandomized(self):
        # factors without rational roots, with and without real ones
        real_free = [t ** 2 + 1, t ** 2 + t + 1, t ** 4 + 3]
        with_real = [t ** 2 - 2, t ** 2 - 3, t ** 3 - 2, t ** 3 - 3 * t + 1]
        _, base = tower_sqrt(QQ, Fraction(7))
        base = base.extend("beta", [-5, 0, 1])
        rng = random.Random(20261019)
        for _ in range(60):
            g = UniPoly.constant("t", rng.choice([-3, -1, 2, 5]))
            for _ in range(rng.randrange(1, 3)):
                g = g * rng.choice(real_free + with_real) ** rng.randrange(1, 3)
            roots = [Fraction(rng.randint(-6, 6), rng.randrange(1, 4)) for _ in range(rng.randrange(0, 3))]
            f = g
            for r in roots:
                f = f * (t - r)
            root, tower, m = adjoin_root(f, base, "beta")
            if roots:
                assert root == min(roots, key=lambda r: (abs(r), r < 0))
                assert tower == base and m is None
                continue
            assert f.eval_at(root).is_zero() and m == squarefree_part(f)
            assert tower.steps[:-1] == base.steps and tower.steps[-1].name not in ("beta", "sqrt(7)")
            f = f * rng.choice(with_real)
            _, tower, m = adjoin_root(f, base, "beta", real=True)
            lo, hi = tower.steps[-1].embedding
            assert sturm_real_root_count(m, (lo, hi)) == 1
            assert sturm_real_root_count(m, (hi, None)) == 0


def tubular_h(s: SurfaceParam) -> MultiPoly:
    """h of the tubular base, read off its second component (v + h) / 2."""
    return 2 * s.y - v


class TestFactorH:
    """p(u v + alpha) = v * h(u, v) on the tubular base."""

    def test_linear(self):
        assert tubular_h(tubular_base(t)) == u

    def test_quadratic(self):
        assert tubular_h(tubular_base(t ** 2 - 1)) == u ** 2 * v + 2 * u

    def test_cubic_expanded(self):
        assert tubular_h(tubular_base(t ** 3 + 1)) == u ** 3 * v ** 2 - 3 * u ** 2 * v + 3 * u

    def test_identity_randomized(self):
        rng = random.Random(906)
        for _ in range(40):
            f = (t - rng.randint(-3, 3)) * (t ** 2 + rng.randrange(1, 4) * t + rng.randint(-3, 5))
            if not factor_is_squarefree(f):
                continue
            s = tubular_base(f)
            h = tubular_h(s)
            assert (v * h - substitute(f, {"t": s.z})).is_zero()
            assert s.x == s.tower.gen("i") * Fraction(1, 2) * (v - h)


class TestTubularParam:
    def test_paraboloid(self):
        x, y, z = xyz()
        s = tubular_base(decompose_paa(t, t).p)
        # x^2 + y^2 = uv = z
        assert (s.x ** 2 + s.y ** 2 - s.z).is_zero()
        verify_on_surface(s, x ** 2 + y ** 2 - z)

    def test_one_sheet_components(self):
        s = tubular_base(decompose_paa(t ** 2 - 1, t).p)
        tower = s.tower
        i = tower.gen("i")
        half = Fraction(1, 2)
        h = u ** 2 * v + 2 * u
        assert s.x == i * half * (v - h)
        assert s.y == half * (v + h)
        assert s.z == u * v + 1

    def test_cubic_z_component(self):
        s = tubular_base(decompose_paa(t ** 3 + 1, t).p)
        assert s.z == u * v - 1

    def test_alpha_adjoined_before_i(self):
        s = tubular_base(t ** 2 - 2)
        assert [st.name for st in s.tower.steps] == ["alpha", "i"]
        assert s.provenance == ("root alpha = alpha (tower-extension)", "tubular parametrization")


def factor_is_squarefree(f):
    from revolutio import gcd_unipoly

    return gcd_unipoly(f, f.derivative()).is_constant()


class TestLift:
    def test_identity_lift(self):
        s = tubular_base(decompose_paa(t, t).p)
        lifted = tubular_lift(s, UniPoly.constant("t", 1), t)
        assert lifted.components == s.components

    def test_scaling_lift(self):
        x, y, z = xyz()
        s = tubular_base(decompose_paa(t ** 3, t).p)
        lifted = tubular_lift(s, t, t)
        # [ (i/2) uv (v-u), (1/2) uv (v+u), uv ] against x^2 + y^2 - z^3
        tower = lifted.tower
        i = tower.gen("i")
        half = Fraction(1, 2)
        assert lifted.x == i * half * u * v * (v - u)
        assert lifted.y == half * u * v * (v + u)
        assert lifted.z == u * v
        verify_on_surface(lifted, x ** 2 + y ** 2 - z ** 3)

    def test_sphere_pipeline_lift_is_identity(self):
        x, y, z = xyz()
        d = decompose_paa(1 - t ** 2, t)
        s = tubular_base(d.p)
        lifted = tubular_lift(s, d.a, d.b)
        assert lifted.components == s.components
        verify_on_surface(lifted, x ** 2 + y ** 2 + z ** 2 - 1)

    def test_constant_b_rejected(self):
        s = tubular_base(decompose_paa(t, t).p)
        with pytest.raises(DegenerateProfile):
            tubular_lift(s, t, UniPoly.constant("t", 2))
        with pytest.raises(DegenerateProfile):
            tubular_lift(s.components, t, UniPoly.constant("t", 2))

    def test_tuple_base(self):
        # the paraboloid base (u, v, u^2 + v^2) on x^2 + y^2 = z, lifted by
        # a = t + 1, b = t^2: the surface of revolution with profile square
        # [t (t + 1)^2, t^2]
        lifted = tubular_lift((u, v, u * u + v * v), t + 1, t ** 2)
        w = u * u + v * v
        assert lifted.components == ((w + 1) * u, (w + 1) * v, w * w)
        assert lifted.provenance == ("lift by a = t + 1, b = t^2",)
        assert lifted.properness == "unknown"
        x, b = t * (t + 1) ** 2, t ** 2
        d = decompose_paa(x, b)
        verify_on_surface(lifted, p2_implicit(x, b))
        flagged = tubular_lift((u, v, w), t + 1, t ** 2, provenance=("p",), properness="proper")
        assert flagged.components == lifted.components
        assert (flagged.provenance, flagged.properness) == (("p",), "proper")

    def test_rotational_structure_preserved(self):
        d = decompose_paa((t ** 2 + 1) ** 2 * (t - 2), t + 5)
        s = tubular_base(d.p)
        lifted = tubular_lift(s, d.a, d.b)
        pa2 = d.p * d.a * d.a
        expected = substitute(pa2, {"t": s.z})
        assert (lifted.x ** 2 + lifted.y ** 2 - expected).is_zero()


class TestClosedFormula:
    def test_paraboloid(self):
        x, y, z = xyz()
        d = decompose_paa(t, t)
        s = sor_complex_param(d)
        verify_on_surface(s, x ** 2 + y ** 2 - z)

    def test_sphere_and_paper_witness(self):
        x, y, z = xyz()
        F = x ** 2 + y ** 2 + z ** 2 - 1
        d = decompose_paa(1 - t ** 2, t)
        s = sor_complex_param(d)
        verify_on_surface(s, F)
        # the published witness must independently pass
        verify_on_surface(sphere_witness(), F)

    def test_cylinder_refusal(self):
        d = decompose_paa(UniPoly.constant("t", 1), t)
        with pytest.raises(NotPolynomial):
            sor_complex_param(d)
        d = decompose_paa(UniPoly.constant("t", 4), t)
        with pytest.raises(NotPolynomial):
            sor_complex_param(d)

    def test_verified_against_implicitization(self):
        x, b = (t ** 2 + 1) ** 2 * (t - 2), t + 5
        d = decompose_paa(x, b)
        s = sor_complex_param(d)
        verify_on_surface(s, p2_implicit(x, b))

    def test_reducible_alpha_extension(self):
        # p = (t^2+2)(t^2+3): square-free, no rational roots; alpha generates
        # a reducible quotient and the whole pipeline must still verify
        x, b = t ** 4 + 5 * t ** 2 + 6, t
        d = decompose_paa(x, b)
        s = sor_complex_param(d)
        verify_on_surface(s, p2_implicit(x, b))


class TestCylinderRoute:
    def test_cone(self):
        x, y, z = xyz()
        d = decompose_paa(t ** 2, t)
        s = cylinder_case_param(d)
        assert s.x == -2 * u * v and s.y == v ** 2 - u ** 2 and s.z == u ** 2 + v ** 2
        verify_on_surface(s, x ** 2 + y ** 2 - z ** 2)

    def test_a_squared(self):
        x, y, z = xyz()
        d = decompose_paa(t ** 4, t)
        s = cylinder_case_param(d)
        w = u ** 2 + v ** 2
        assert s.x == -2 * u * v * w and s.y == (v ** 2 - u ** 2) * w and s.z == w
        verify_on_surface(s, x ** 2 + y ** 2 - z ** 4)

    def test_constant_a_refused(self):
        d = decompose_paa(UniPoly.constant("t", 1), t)
        with pytest.raises(NotPolynomial):
            cylinder_case_param(d)

    def test_nonsquare_constant_and_irrational_shift(self):
        # p = 2, a = t^2 - 3: needs sqrt(2) and a root of t^2 - 3
        x, b = 2 * (t ** 2 - 3) ** 2, t
        d = decompose_paa(x, b)
        s = cylinder_case_param(d)
        verify_on_surface(s, p2_implicit(x, b))


class TestTowerSqrt:
    def test_rational_square_multiple_adds_no_step(self):
        # 9/8 = (3/4)^2 * 2: sqrt(9/8) is (3/4) sqrt(2), already in QQ(sqrt 2);
        # a second generator would make the tower reducible
        root2, tower = tower_sqrt(QQ, Fraction(2))
        root, got = tower_sqrt(tower, Fraction(9, 8))
        assert got == tower
        assert root == Fraction(3, 4) * root2
        assert root * root == got.rational(Fraction(9, 8))

    def test_fresh_generator_for_a_new_square_class(self):
        _, tower = tower_sqrt(QQ, Fraction(2))
        root, got = tower_sqrt(tower, Fraction(3))
        assert [s.name for s in got.steps] == ["sqrt(2)", "sqrt(3)"]
        assert root * root == got.rational(3)

    def test_product_of_radicands_adds_no_step(self):
        # sqrt(6) = sqrt(2) sqrt(3): a third generator would make the tower
        # reducible, since x^2 - 6 splits over QQ(sqrt 2, sqrt 3)
        root2, tower = tower_sqrt(QQ, Fraction(2))
        root3, tower = tower_sqrt(tower, Fraction(3))
        root, got = tower_sqrt(tower, Fraction(6))
        assert got.height == 2
        assert root == root2.lift_to(got) * root3
        assert root * root == got.rational(6)
        root, got = tower_sqrt(tower, Fraction(27, 2))  # (3/2)^2 * 2 * 3
        assert got.height == 2 and root * root == got.rational(Fraction(27, 2))


class TestRotateCurve:
    def test_vertical_line(self):
        r = rotate_curve(UniPoly.constant("t", 1), UniPoly.zero("t"), t)
        st = ("s", "t")
        sv = MultiPoly.variable("s", st)
        tv = MultiPoly.variable("t", st)
        one = MultiPoly.constant(1, st)
        (n1, d1), (n2, d2), (n3, d3) = r
        assert n1 == 2 * sv and d1 == 1 + sv ** 2
        assert n2 == -(1 - sv ** 2) and d2 == 1 + sv ** 2
        assert n3 == tv and d3 == one

    def test_cone_residual(self):
        # the cone is homogeneous of degree 2, so den^2 F(xn/den, yn/den, zn)
        # is F(xn, yn, den*zn)
        x, y, z = xyz()
        F = x ** 2 + y ** 2 - z ** 2
        (xn, den), (yn, _), (zn, one) = rotate_curve(t, UniPoly.zero("t"), t)
        assert one == 1
        assert substitute(F, {"x": xn, "y": yn, "z": den * zn}).is_zero()
        # -t (1 - s^2) with one term's sign flipped is -t (1 + s^2): off the cone
        key = max(yn.terms)
        bad = MultiPoly(yn.vars, {**yn.terms, key: -yn.terms[key]}, yn.tower)
        assert not substitute(F, {"x": xn, "y": bad, "z": den * zn}).is_zero()

    def test_axis_flagged_degenerate(self):
        rotate_curve(UniPoly.zero("t"), UniPoly.zero("t"), t)
        # the rotated axis is [0, 0, t]: rank 1 once seen as a (u, v) map
        zero = MultiPoly.zero(("u", "v"))
        s = SurfaceParam.make([zero, zero, MultiPoly.variable("v", ("u", "v"))])
        assert jacobian_generic_rank(s) == 1
        with pytest.raises(DegenerateProfile):
            rotate_curve(t, t, UniPoly.constant("t", 1))
