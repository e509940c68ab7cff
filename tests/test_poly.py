"""Polynomial toolkit: arithmetic, gcd, Yun, roots, Sturm, substitution,
exact division, resultants. Expected values for derived cases were computed
with the dense reference implementations in oracles.py (or, where noted,
an explicit formula) and then frozen."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles

from revolutio import (
    QQ,
    InvalidInput,
    MultiPoly,
    NotDivisible,
    TowerMismatch,
    UniPoly,
    exact_divide,
    gcd_unipoly,
    invert_mod,
    is_squarefree,
    rational_roots,
    resultant_eliminate,
    squarefree_decompose,
    sturm_real_root_count,
    substitute,
)

t = UniPoly.variable("t")
u = MultiPoly.variable("u", ("u", "v"))
v = MultiPoly.variable("v", ("u", "v"))


def from_dense(dense, var="t"):
    return UniPoly(var, {i: c for i, c in enumerate(dense)})


class TestRingArithmetic:
    def test_difference_of_squares(self):
        assert (t + 1) * (t - 1) == t ** 2 - 1

    def test_imaginary_unit(self):
        qi = QQ.extend("i", [1, 0, 1])
        i = qi.gen("i")
        assert i * i == -1

    def test_cube_expansion(self):
        # oracle: repeated multiplication of (x + 1)^3 where x plays uv
        cube = oracles.power([Fraction(1), Fraction(1)], 3)
        assert cube == [1, 3, 3, 1]
        assert (u * v + 1) ** 3 + 0 == u ** 3 * v ** 3 + 3 * u ** 2 * v ** 2 + 3 * u * v + 1

    def test_ring_axioms_randomized(self):
        import random

        rng = random.Random(901)
        for _ in range(50):
            polys = []
            for _ in range(3):
                terms = {
                    (rng.randrange(3), rng.randrange(3)): Fraction(rng.randint(-5, 5))
                    for _ in range(rng.randrange(1, 4))
                }
                polys.append(MultiPoly(("u", "v"), terms))
            f, g, h = polys
            assert (f + g) + h == f + (g + h)
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h
            assert f * g == g * f


_DENSE = st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=4), max_size=5)


class TestGcd:
    def test_simple(self):
        assert gcd_unipoly(t ** 2 - 1, t - 1) == t - 1
        assert gcd_unipoly(t ** 2 + 1, t ** 2 + 2) == 1

    def test_euclid_oracle(self):
        # oracle: dense Euclidean algorithm
        got = oracles.euclid_gcd([0, -1, 0, 1], [1, -2, 1])  # t^3 - t, (t-1)^2
        assert got == [-1, 1]  # t - 1
        assert gcd_unipoly(t ** 3 - t, t ** 2 - 2 * t + 1) == t - 1

    def test_gcd_with_zero(self):
        z = UniPoly.zero("t")
        assert gcd_unipoly(3 * t + 3, z) == t + 1
        assert gcd_unipoly(z, z).is_zero()

    def test_over_extension(self):
        qi = QQ.extend("i", [1, 0, 1])
        i = qi.gen("i")
        f = (t - i) * (t + i)  # t^2 + 1 over Q(i)
        assert gcd_unipoly(f, t - i) == t - i

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(a=_DENSE, b=_DENSE, common=_DENSE, lift=st.booleans())
    @example(a=[], b=[], common=[], lift=False)
    @example(a=[Fraction(3)], b=[], common=[], lift=False)
    @example(a=[], b=[Fraction(-2), Fraction(1, 2)], common=[], lift=True)
    @example(a=[Fraction(5)], b=[Fraction(1), Fraction(1)], common=[Fraction(1)], lift=False)
    def test_rational_gcd_against_sympy(self, a, b, common, lift):
        # rational inputs take the integer primitive PRS, over QQ or lifted
        # onto a tower; the oracle is sympy's monic gcd over QQ
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("t")
        f, g = from_dense(a), from_dense(b)
        if common:
            f, g = f * from_dense(common), g * from_dense(common)
        if lift:
            tw = QQ.extend("s", [-2, 0, 1])
            f, g = f.with_tower(tw), g.with_tower(tw)
        got = gcd_unipoly(f, g)
        if f.is_zero() and g.is_zero():
            assert got.is_zero()
            return
        expected = sympy.gcd(oracles.sympy_unipoly(f, x), oracles.sympy_unipoly(g, x)).monic()
        want = [Fraction(int(c.p), int(c.q)) for c in reversed(expected.all_coeffs())]
        assert [got.coeff(e).as_rational() for e in range(got.degree + 1)] == want
        assert got.tower == f.tower

    def test_zero_divisor_surfaces_with_factor(self):
        # Euclid over Q[g]/((g^2-2)(g^2-3)) must hit the zero divisor g^2 - 2
        # and hand the caller a splitting factor of the modulus
        from revolutio import ZeroDivisor

        tw = QQ.extend("g", [6, 0, -5, 0, 1])
        g = tw.gen("g")
        f = UniPoly("t", {1: g * g - 2, 0: 1}, tw)
        with pytest.raises(ZeroDivisor) as exc:
            gcd_unipoly(t ** 2, f)
        assert exc.value.step_name == "g"
        assert len(exc.value.factor) == 3  # a quadratic factor of the quartic


def _random_dense(rng, degree, monic=False):
    dense = [Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3))) for _ in range(degree)]
    return dense + [Fraction(1) if monic else Fraction(rng.choice((-3, -1, 1, 2)), rng.choice((1, 2)))]


def random_squarefree_real(rng):
    """A square-free, non-monic rational polynomial with irrational real
    roots, plus its rational roots. Factors: c t^2 + e t - n (real roots,
    irrational unless e^2 + 4 c n is a square), q t - r, t (a root at 0,
    the first bisection midpoint) and t^2 + e t + n without real roots;
    products with a repeated factor are drawn again."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("t")
    while True:
        f = UniPoly.constant("t", Fraction(rng.choice((-7, -3, 2, 5)), rng.choice((1, 3, 4))))
        roots = []
        for _ in range(rng.randint(1, 4)):
            kind = rng.randrange(4)
            if kind == 0:
                f = f * (rng.randint(1, 4) * t ** 2 + rng.randint(-3, 3) * t - rng.choice((2, 3, 5, 7)))
            elif kind == 1:
                q, r = rng.randint(1, 3), rng.randint(-6, 6)
                f = f * (q * t - r)
                roots.append(Fraction(r, q))
            elif kind == 2:
                f = f * t
                roots.append(Fraction(0))
            else:
                f = f * (t ** 2 + rng.randint(-3, 3) * t + rng.randint(3, 9))
        sf = _sympy_poly(f, {"t": x})
        if sympy.degree(sympy.gcd(sf, sympy.diff(sf, x)), x) == 0:
            return f, sympy.Poly(sf, x), roots


def sympy_open_count(poly, lo, hi):
    """Real roots of a sympy Poly in the open interval (lo, hi), None for
    an infinite end; count_roots counts the closed interval."""
    import sympy

    if lo is not None and lo == hi:
        return 0
    lo_s = None if lo is None else sympy.Rational(lo.numerator, lo.denominator)
    hi_s = None if hi is None else sympy.Rational(hi.numerator, hi.denominator)
    ends = [e for e in (lo_s, hi_s) if e is not None and poly.eval(e) == 0]
    return poly.count_roots(lo_s, hi_s) - len(ends)


class TestInvertMod:
    def test_coprime_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        import random

        rng = random.Random(1201)
        x = sympy.Symbol("t")
        sym = {"t": x}
        checked = 0
        while checked < 30:
            m = from_dense(_random_dense(rng, rng.randint(1, 5), monic=True))
            a = from_dense(_random_dense(rng, rng.randint(0, m.degree - 1)))
            sm, sa = _sympy_poly(m, sym), _sympy_poly(a, sym)
            if sympy.degree(sympy.gcd(sa, sm), x) > 0:
                continue
            inv = invert_mod(a, m, "t")
            assert inv.degree < m.degree
            assert sympy.expand(_sympy_poly(inv, sym) - sympy.invert(sa, sm, x)) == 0
            checked += 1

    def test_common_factor_raises_the_monic_gcd(self):
        sympy = pytest.importorskip("sympy")
        from revolutio import ZeroDivisor
        import random

        rng = random.Random(1202)
        x = sympy.Symbol("t")
        sym = {"t": x}
        for _ in range(20):
            common = from_dense(_random_dense(rng, rng.randint(1, 2), monic=True))
            m = common * from_dense(_random_dense(rng, rng.randint(1, 3), monic=True))
            a = (common * from_dense(_random_dense(rng, rng.randint(0, 2)))).divmod(m)[1]
            if a.is_zero():
                continue
            with pytest.raises(ZeroDivisor) as exc:
                invert_mod(a, m, "g")
            assert exc.value.step_name == "g"
            sa, sm = _sympy_poly(a, sym), _sympy_poly(m, sym)
            expected = sympy.Poly(sympy.gcd(sa, sm), x).monic()
            got = [c.as_rational() for c in exc.value.factor]
            assert got == [Fraction(int(c.p), int(c.q)) for c in reversed(expected.all_coeffs())]

    def test_known_values(self):
        # modulo t^2 - 2: 1/t = t/2, and t^3 = 2t, so 1/t^3 = t/4
        assert invert_mod(t, t ** 2 - 2, "t") == t * Fraction(1, 2)
        assert invert_mod(t ** 3, t ** 2 - 2, "t") == t * Fraction(1, 4)


class TestIsSquarefree:
    def test_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        import random

        rng = random.Random(1203)
        x = sympy.Symbol("t")
        sym = {"t": x}
        seen = set()
        for _ in range(40):
            f = from_dense(_random_dense(rng, rng.randint(1, 3)))
            if rng.random() < 0.5:
                f = f * from_dense(_random_dense(rng, 1)) ** 2
            sf = _sympy_poly(f, sym)
            expected = sympy.degree(sympy.gcd(sf, sympy.diff(sf, x)), x) == 0
            assert is_squarefree(f) == expected
            seen.add(expected)
        assert seen == {True, False}


def _sympy_of(f):
    sympy = pytest.importorskip("sympy")
    return oracles.sympy_unipoly(f, sympy.Symbol("t"))


def _sympy_recompose(d):
    """content * prod(factor^multiplicity), multiplied out by sympy."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("t")
    content, factors = d
    out = sympy.Poly(sympy.Rational(content), x, domain="QQ")
    for f, m in factors:
        out *= oracles.sympy_unipoly(f, x) ** m
    return out


class TestSquarefreeDecompose:
    def test_pure_power(self):
        assert squarefree_decompose(t ** 3) == (1, [(t, 3)])

    def test_expand_and_recompose(self):
        # oracle: build (t^2+1)^2 (t-2) densely, decompose, recompose in sympy
        dense = oracles.mul(oracles.power([1, 0, 1], 2), [-2, 1])
        f = from_dense(dense)
        d = squarefree_decompose(f)
        assert d[1] == [(t - 2, 1), (t ** 2 + 1, 2)]
        assert _sympy_recompose(d) == _sympy_of(f)

    def test_constant(self):
        assert squarefree_decompose(UniPoly.constant("t", 5)) == (5, [])

    def test_zero_rejected(self):
        with pytest.raises(InvalidInput):
            squarefree_decompose(UniPoly.zero("t"))

    def test_content_sign(self):
        d = squarefree_decompose(1 - t ** 2)
        assert d[0] == -1
        assert _sympy_recompose(d) == _sympy_of(1 - t ** 2)

    def test_against_sympy_sqf_list(self):
        # content, monic factors and multiplicities up to 5, with negative and
        # non-integer leading coefficients and zero constant terms
        sympy = pytest.importorskip("sympy")
        import random

        rng = random.Random(1106)
        x = sympy.Symbol("t")
        mults = set()
        for _ in range(60):
            f = UniPoly.constant("t", Fraction(rng.choice((-7, -3, -1, 1, 2, 5)), rng.choice((1, 2, 3, 9))))
            for _ in range(rng.randint(0, 3)):
                f = f * from_dense(_random_dense(rng, rng.randint(1, 3))) ** rng.randint(1, 5)
            if rng.random() < 0.3:
                f = f * t ** rng.randint(1, 3)
            d = squarefree_decompose(f)
            assert _sympy_recompose(d) == _sympy_of(f)
            sf = sympy.Poly(_sympy_poly(f, {"t": x}), x, domain="QQ")
            lc = sf.LC()
            content, factors = d
            assert content == Fraction(int(lc.p), int(lc.q))
            expected = [
                ([Fraction(int(c.p), int(c.q)) for c in reversed(g.monic().all_coeffs())], m)
                for g, m in sf.sqf_list()[1]
            ]
            got = [([fac.coeff(e).as_rational() for e in range(fac.degree + 1)], m) for fac, m in factors]
            assert got == expected
            mults.update(m for _, m in factors)
        assert {1, 2, 3, 4, 5} <= mults


class TestRationalRoots:
    def test_cube(self):
        assert rational_roots(t ** 3 + 1) == [Fraction(-1)]

    def test_no_roots(self):
        assert rational_roots(t ** 2 + 1) == []

    def test_quadratic_formula_oracle(self):
        # roots of 2t^2 - 3t + 1 by the formula: (3 +- 1)/4 -> 1, 1/2
        disc = Fraction(3) ** 2 - 4 * 2 * 1
        assert disc == 1
        r1 = (3 + 1) / Fraction(4)
        r2 = (3 - 1) / Fraction(4)
        assert {r1, r2} == {Fraction(1), Fraction(1, 2)}
        assert rational_roots(2 * t ** 2 - 3 * t + 1) == [Fraction(1), Fraction(1, 2)]

    def test_multiplicity(self):
        f = (t - 1) ** 2 * (2 * t + 3)
        assert rational_roots(f) == [Fraction(1), Fraction(1), Fraction(-3, 2)]

    def test_root_at_zero(self):
        assert rational_roots(t ** 2 * (t - 5)) == [Fraction(5), Fraction(0), Fraction(0)]

    def test_huge_constant_terms_against_sympy(self):
        # |a0| above 2^64, repeated roots and a leading coefficient other than
        # +-1; trial division up to sqrt|a0| never finished on such inputs
        sympy = pytest.importorskip("sympy")
        import random

        rng = random.Random(6400)
        T = sympy.Symbol("t")
        for _ in range(25):
            expr = rng.choice((2, -3, 12)) * (T ** 2 + rng.randint(-9, 9) * T + rng.choice((2, 7)))
            for _ in range(rng.randint(1, 3)):
                q = rng.choice((1, 2, 3, 7, 2 ** 33 + 1))
                p = rng.choice((-1, 1)) * rng.randint(2 ** 64, 2 ** 80)
                expr *= (q * T - p) ** rng.randint(1, 3)
            poly = sympy.Poly(expr * sympy.Rational(rng.choice((1, 5)), rng.choice((1, 3))), T)
            assert abs(poly.TC()) > 2 ** 64 and abs(poly.LC()) != 1
            want = []
            for factor, mult in sympy.factor_list(poly)[1]:
                if factor.degree() == 1:
                    c1, c0 = factor.all_coeffs()
                    r = -c0 / c1
                    want += [Fraction(int(r.p), int(r.q))] * mult
            f = UniPoly("t", {m: Fraction(int(c.p), int(c.q)) for (m,), c in poly.terms()})
            assert rational_roots(f) == sorted(want, reverse=True)


class TestSturm:
    def test_no_real_roots(self):
        assert sturm_real_root_count(t ** 2 + 1) == 0

    def test_constructed_roots(self):
        f = (t - 1) * (t - 2) * (t - 3)
        assert sturm_real_root_count(f) == 3

    def test_sign_variation_oracle(self):
        # chain for t^2 - 2: [t^2 - 2, 2t, 2]
        # at 0: values [-2, 0, 2] -> 1 variation; at +inf: [+, +, +] -> 0
        assert oracles.sign_variations([-2, 0, 2]) == 1
        assert oracles.sign_variations([1, 1, 1]) == 0
        assert sturm_real_root_count(t ** 2 - 2, (Fraction(0), None)) == 1

    def test_open_interval_excludes_endpoint_roots(self):
        f = t * (t - 1)
        assert sturm_real_root_count(f, (Fraction(0), Fraction(1))) == 0
        assert sturm_real_root_count(f, (Fraction(-1), Fraction(1))) == 1
        assert sturm_real_root_count(f, (Fraction(-1), Fraction(2))) == 2

    def test_rejects_non_squarefree(self):
        with pytest.raises(InvalidInput):
            sturm_real_root_count(t ** 2)

    def test_degenerate_intervals(self):
        f = t ** 2 - 2
        assert sturm_real_root_count(f, (Fraction(1), Fraction(1))) == 0
        with pytest.raises(InvalidInput):
            sturm_real_root_count(f, (Fraction(2), Fraction(1)))

    def test_against_sympy(self):
        # non-monic, irrational roots, and interval ends that are roots
        import random

        rng = random.Random(2026)
        at_root = 0
        for _ in range(60):
            f, poly, roots = random_squarefree_real(rng)
            for _ in range(4):
                ends = []
                for _ in range(2):
                    pick = rng.random()
                    if pick < 0.2:
                        ends.append(None)
                    elif pick < 0.5 and roots:
                        ends.append(rng.choice(roots))
                    else:
                        ends.append(Fraction(rng.randint(-40, 40), rng.choice((1, 2, 3, 8))))
                lo, hi = ends
                if lo is not None and hi is not None and lo > hi:
                    lo, hi = hi, lo
                at_root += any(e in roots for e in (lo, hi))
                assert sturm_real_root_count(f, (lo, hi)) == sympy_open_count(poly, lo, hi)
        assert at_root > 20

    def test_zero_degree_marker(self):
        assert UniPoly.zero("t").degree == -1
        assert MultiPoly.zero(("u", "v")).total_degree == -1
        assert UniPoly.constant("t", 3).degree == 0


class TestSubstitute:
    def test_simple(self):
        assert substitute(t ** 2, {"t": u * v + 1}) == u ** 2 * v ** 2 + 2 * u * v + 1
        # a constant, zero included, comes back in the image's variables over
        # the joined tower, exactly as MultiPoly.constant would build it
        sqrt2 = QQ.extend("s", [-2, 0, 1])
        for tower in (QQ, sqrt2):
            image = MultiPoly.variable("u", ("u", "v"), tower) * v + 1
            constants = [UniPoly.constant("t", c, own) for c in (0, Fraction(-3, 2)) for own in (QQ, tower)]
            constants.append(UniPoly.constant("t", tower.gen("s") + 1 if tower.height else 5, tower))
            for const in constants:
                got = substitute(const, {"t": image})
                want = MultiPoly.constant(const.constant_value(), ("u", "v"), tower)
                assert (got.vars, got.terms, got.tower) == (want.vars, want.terms, want.tower)
                assert type(got) is MultiPoly

    def test_constant_makes_no_packed_run(self, monkeypatch):
        from revolutio import poly

        runs, run = [], poly._Kronecker.run
        monkeypatch.setattr(poly._Kronecker, "run", lambda k, *a: runs.append(1) or run(k, *a))
        got = substitute(UniPoly.constant("t", 3), {"t": MultiPoly.variable("z", ("x", "y", "z"))})
        assert runs == []
        assert got.vars == ("x", "y", "z") and got == 3

    def test_paraboloid(self):
        x = MultiPoly.variable("x", ("x", "y", "z"))
        y = MultiPoly.variable("y", ("x", "y", "z"))
        z = MultiPoly.variable("z", ("x", "y", "z"))
        F = x ** 2 + y ** 2 - z
        assert substitute(F, {"x": u, "y": v, "z": u ** 2 + v ** 2}).is_zero()

    def test_binomial_oracle(self):
        # oracle: (x - 1)^3 + 1 = x^3 - 3x^2 + 3x, with x playing uv
        dense = oracles.add(oracles.power([-1, 1], 3), [1])
        assert dense == [0, 3, -3, 1]
        got = substitute(t ** 3 + 1, {"t": u * v - 1})
        assert got == u ** 3 * v ** 3 - 3 * u ** 2 * v ** 2 + 3 * u * v

    def test_unbound_variable(self):
        with pytest.raises(InvalidInput):
            substitute(t ** 2 + t, {})

    def test_homomorphism_spot(self):
        f, g = t ** 2 + 1, 2 * t - 3
        bind = {"t": u * v + 2}
        assert substitute(f * g, bind) == substitute(f, bind) * substitute(g, bind)


class TestExactDivide:
    def test_multiply_back(self):
        q = exact_divide(u ** 2 * v ** 2 + 2 * u * v, v)
        assert q == u ** 2 * v + 2 * u
        assert q * v == u ** 2 * v ** 2 + 2 * u * v

    def test_identity(self):
        f = u * v + 7
        assert exact_divide(f, MultiPoly.constant(1, ("u", "v"))) == f

    def test_not_divisible(self):
        with pytest.raises(NotDivisible) as exc:
            exact_divide(u * v + 1, v)
        assert not exc.value.remainder.is_zero()


def _sympy_poly(p, symbols, gens=()):
    """A MultiPoly as a sympy expression; ``gens`` maps tower generators."""
    import sympy

    def coeff(c):
        return sum(
            sympy.Rational(q) * sympy.Mul(*(g ** e for g, e in zip(gens, k)))
            for k, q in c.terms.items()
        )

    return sum(
        coeff(c) * sympy.Mul(*(symbols[v] ** e for v, e in zip(p.vars, k)))
        for k, c in p.terms.items()
    )


class TestResultant:
    def test_no_common_root(self):
        r = resultant_eliminate(v - 1, v - 2, "v")
        assert r == -1

    def test_sylvester_oracle(self):
        # oracle (frozen): res_v(uv - 1, v^2 - u) = 1 - u^3, by the product
        # formula lc^deg(g) * g(1/u) = u^2 (1/u^2 - u) and by sympy's resultant
        r = resultant_eliminate(u * v - 1, v ** 2 - u, "v")
        assert r == 1 - u ** 3

    def test_sympy_cross_check(self):
        sympy = pytest.importorskip("sympy")
        us, vs = sympy.symbols("u v")
        expected = sympy.resultant(us * vs - 1, vs ** 2 - us, vs)
        assert sympy.expand(expected - (1 - us ** 3)) == 0

    def test_self_resultant_zero(self):
        f = u * v - 1
        assert resultant_eliminate(f, f, "v").is_zero()

    def test_common_factor_iff_zero_randomized(self):
        import random

        rng = random.Random(902)
        for _ in range(30):
            def rnd(var):
                return UniPoly(
                    var,
                    {e: Fraction(rng.randint(-3, 3)) for e in range(rng.randrange(1, 3) + 1)},
                ) + UniPoly(var, {rng.randrange(1, 3): 1})
            common = rnd("v").with_vars(("u", "v")) + u
            f1 = rnd("v").with_vars(("u", "v")) + u * v
            g1 = rnd("v").with_vars(("u", "v")) - u * v
            f = common * f1
            g = common * g1
            if not f.uses("v") or not g.uses("v"):
                continue
            assert resultant_eliminate(f, g, "v").is_zero()

    def test_missing_variable(self):
        with pytest.raises(InvalidInput):
            resultant_eliminate(u + 1, u - 1, "v")

    def test_zero_iff_common_factor_against_sympy(self):
        # both directions of the correspondence, with sympy's bivariate gcd
        # as the independent oracle
        sympy = pytest.importorskip("sympy")
        import random

        rng = random.Random(911)
        us, vs = sympy.symbols("u v")

        def rnd():
            terms = {
                (rng.randrange(3), rng.randrange(1, 3)): Fraction(rng.randint(-3, 3))
                for _ in range(rng.randrange(2, 4))
            }
            return MultiPoly(("u", "v"), terms)

        def to_sympy(p):
            return sum(
                sympy.Rational(c.as_rational()) * us ** k[0] * vs ** k[1]
                for k, c in p.terms.items()
            )

        for _ in range(30):
            f, g = rnd(), rnd()
            if rng.random() < 0.5:
                common = rnd()
                f, g = f * common, g * common
            if not f.uses("v") or not g.uses("v"):
                continue
            res_zero = resultant_eliminate(f, g, "v").is_zero()
            shared = sympy.degree(sympy.gcd(to_sympy(f), to_sympy(g)), vs) >= 1
            assert res_zero == shared

    # the shapes the pipeline uses, against sympy's Sylvester determinant: no
    # remaining variable, one (fiber_count and realparam's quadratic factors)
    # and two (p2_implicit). Not sympy's ``resultant``: in sympy 1.14 it has
    # the opposite sign when deg f < deg g and deg f * deg g is odd.
    def check_against_sylvester(self, f, g, var, gens=()):
        sympy = pytest.importorskip("sympy")
        from sympy.polys.subresultants_qq_zz import sylvester

        names = sorted(set(f.vars) | set(g.vars))
        symbols = dict(zip(names, sympy.symbols(names)))
        expected = sylvester(
            _sympy_poly(f, symbols, gens), _sympy_poly(g, symbols, gens), symbols[var]
        ).det()
        r = resultant_eliminate(f, g, var)
        assert r.vars == tuple(n for n in names if n != var)
        assert sympy.expand(_sympy_poly(r, symbols, gens) - expected) == 0
        return r

    @pytest.mark.parametrize("names", [("v",), ("u", "v"), ("u", "v", "w")])
    def test_random(self, names):
        import random

        rng = random.Random(4242 + len(names))
        rest = [n for n in names if n != "v"]
        for _ in range(8):
            def rnd():
                terms = {}
                for _ in range(rng.randrange(2, 5)):
                    key = {n: rng.randrange(3) for n in rest}
                    key["v"] = rng.randrange(4)
                    c = Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))
                    terms[tuple(key[n] for n in names)] = c
                terms[tuple(rng.randrange(1, 4) if n == "v" else 0 for n in names)] = Fraction(1)
                return MultiPoly(names, terms)
            f, g = rnd(), rnd()
            if f.uses("v") and g.uses("v"):
                self.check_against_sylvester(f, g, "v")

    def test_leading_coefficient_vanishes_at_first_points(self):
        # lc_v(f) = u (u-1) (u-2): the points u = 0, 1, 2 must be skipped
        f = u * (u - 1) * (u - 2) * v ** 2 + v + u
        g = v ** 3 - u * v + 2
        r = self.check_against_sylvester(f, g, "v")
        assert r.degree_in("u") == 9

    def test_sqrt2_coefficients(self):
        sympy = pytest.importorskip("sympy")
        tower = QQ.extend("s", [-2, 0, 1])
        s = tower.gen("s")
        uu = MultiPoly.variable("u", ("u", "v"), tower)
        vv = MultiPoly.variable("v", ("u", "v"), tower)
        f = vv ** 2 - s * uu * vv + 1
        g = s * vv ** 3 + uu ** 2 * vv - s - 3
        r = self.check_against_sylvester(f, g, "v", gens=(sympy.sqrt(2),))
        assert r.tower == tower
        assert not all(c.is_rational() for c in r.terms.values())

    def test_degree_meets_the_interpolation_bound(self):
        # deg_u Res <= deg_v(g) deg_u(f) + deg_v(f) deg_u(g) = 3*2 + 1*0
        r = self.check_against_sylvester(v - u ** 2, v ** 3 + 1, "v")
        assert r.degree_in("u") == 6
        # the p2_implicit shape: Res_t(w - t^2, z - t^3) = w^3 - z^2 up to sign,
        # with deg_w = 3 and deg_z = 2, both at their bounds
        names = ("t", "w", "z")
        tt, ww, zz = (MultiPoly.variable(n, names) for n in names)
        r = self.check_against_sylvester(ww - tt ** 2, zz - tt ** 3, "t")
        assert (r.degree_in("w"), r.degree_in("z")) == (3, 2)

    # an operand of degree 1 takes the closed form; the linear operand on
    # either side, with a constant or a polynomial coefficient of the variable
    @pytest.mark.parametrize("linear_first", [False, True])
    def test_linear_operand(self, linear_first):
        uvw, twz = ("u", "v", "w"), ("t", "w", "z")
        uu, vv, ww = (MultiPoly.variable(n, uvw) for n in uvw)
        tt, w2, zz = (MultiPoly.variable(n, twz) for n in twz)
        v1 = MultiPoly.variable("v", ("v",))
        for linear, other, var in (
            (u * v - 1, v ** 3 - u, "v"),
            (Fraction(2, 3) * v - u ** 2 + 5, u * v ** 4 - Fraction(1, 2) * v + u, "v"),
            (2 * v + 3, 5 * v - u, "v"),
            ((uu - ww) * vv + uu * ww, vv ** 3 - uu ** 2 * vv + ww, "v"),
            (3 * vv - uu ** 2, ww * vv ** 2 + uu * vv, "v"),
            (v1 - 3, v1 ** 2 + 1, "v"),
            (zz - tt, w2 - tt ** 7 + 2 * tt, "t"),
        ):
            f, g = (linear, other) if linear_first else (other, linear)
            self.check_against_sylvester(f, g, var)

    # Over a tower, against sympy's Sylvester determinant of the polynomials in
    # the generators, reduced by ``rem`` modulo the minimal polynomials, top
    # generator first (``TestPackedProducts._check``).
    def check_reduced_sylvester(self, f, g, var, name):
        sympy = pytest.importorskip("sympy")
        from sympy.polys.subresultants_qq_zz import sylvester

        gens = [sympy.Symbol(n) for n, _ in _towers()[name][1]]
        names = sorted(set(f.vars) | set(g.vars))
        symbols = dict(zip(names, sympy.symbols(names)))
        rest = tuple(n for n in names if n != var)
        det = sylvester(
            _sympy_poly(f, symbols, gens), _sympy_poly(g, symbols, gens), symbols[var]
        ).det(method="berkowitz")  # division-free; far faster than bareiss on these entries
        ring = gens[::-1] + [symbols[n] for n in rest]
        r = resultant_eliminate(f, g, var)
        TestPackedProducts()._check(
            r, lambda value: sympy.Poly(det, *ring, domain="QQ"), name, rest
        )
        return r

    def test_reducible_tower_returns_the_determinant(self):
        # g^2 = 1 is square-free but reducible, and lc_v(f) = g - 1 is a zero
        # divisor: a Euclidean remainder sequence over the tower would have to
        # invert it, the Sylvester determinant does not
        from revolutio import ZeroDivisor

        tower = _towers()["split"][0]
        gen = tower.gen("g")
        uu, vv = (MultiPoly.variable(n, ("u", "v"), tower) for n in "uv")
        f = (gen - 1) * vv ** 2 + vv + 2
        g = vv ** 3 + uu * vv - gen
        r = self.check_reduced_sylvester(g, f, "v", "split")
        assert not r.is_zero() and not all(c.is_rational() for c in r.terms.values())
        with pytest.raises(ZeroDivisor):
            (gen - 1).inverse()

    @pytest.mark.parametrize("names", [("v",), ("u", "v")])
    def test_random_over_two_generators(self, names):
        import random

        rng = random.Random(9300 + len(names))
        tower = _towers()["alpha_i"][0]
        products = TestPackedProducts()
        for trial in range(4):
            f = products._poly(rng, tower, names, 2, 3)
            g = products._poly(rng, tower, names, 2, 3)
            f = f + products._element(rng, tower) * MultiPoly.variable("v", names, tower) ** 2
            g = g + products._element(rng, tower) * MultiPoly.variable("v", names, tower) ** 3
            self.check_reduced_sylvester(f, g, "v", "alpha_i")

    @pytest.mark.parametrize("name", ["QQ", "sqrt2"])
    def test_huge_coefficients_of_both_signs(self, name):
        import random

        rng = random.Random(9400 + len(name))
        tower = _towers()[name][0]
        products = TestPackedProducts()
        vv = MultiPoly.variable("v", ("u", "v"), tower)
        for _ in range(3):
            f = products._poly(rng, tower, ("u", "v"), 2, 3, huge=True)
            g = products._poly(rng, tower, ("u", "v"), 2, 3, huge=True)
            f = f + products._element(rng, tower, huge=True) * vv ** 3
            g = g + products._element(rng, tower, huge=True) * vv ** 2
            self.check_reduced_sylvester(f, g, "v", name)

    @pytest.mark.parametrize("name", ["QQ", "sqrt1/3"])
    def test_denominators(self, name):
        # D_f = 15 and D_g = 14 with deg_v f = 3 and deg_v g = 1: the integer
        # determinant is divided by 15^1 * 14^3; r = sqrt(1/3) adds a
        # denominator in the final reduction as well
        tower, minpolys = _towers()[name]
        gen = tower.gen(minpolys[0][0]) if minpolys else Fraction(5, 4)
        uu, vv = (MultiPoly.variable(n, ("u", "v"), tower) for n in "uv")
        f = Fraction(1, 3) * vv ** 3 + Fraction(2, 5) * gen * uu * vv - 1
        g = Fraction(-1, 7) * gen * vv + Fraction(1, 2) * uu ** 2 + gen
        self.check_reduced_sylvester(f, g, "v", name)
        self.check_reduced_sylvester(g, f, "v", name)

    def test_leading_coefficient_vanishes_at_generator_points(self):
        # the generators are evaluated like variables, i first: lc_v(g) = i (a + 1)
        # vanishes at i = 0, and lc_v(f) = a^2 - a at a = 0 and a = 1
        tower = _towers()["alpha_i"][0]
        a, i = tower.gen("a"), tower.gen("i")
        uu, vv = (MultiPoly.variable(n, ("u", "v"), tower) for n in "uv")
        f = (a * a - a) * vv ** 2 + uu * vv - i
        g = (i * a + i) * vv ** 3 + a * vv ** 2 + uu
        self.check_reduced_sylvester(f, g, "v", "alpha_i")
        # with no variable left besides v, the generators are all there is
        v1 = MultiPoly.variable("v", ("v",), tower)
        f1 = (a * a - a) * v1 ** 2 + v1 - i
        g1 = (i * a + i) * v1 ** 3 + a
        self.check_reduced_sylvester(f1, g1, "v", "alpha_i")


    @pytest.mark.parametrize("name", ["alpha_i", "split"])
    def test_linear_operand_over_towers(self, name):
        # over the reducible tower, lc_v(g) = b - 1 is a zero divisor
        tower, minpolys = _towers()[name]
        a, b = tower.gen(minpolys[0][0]), tower.gen(minpolys[-1][0])
        uu, vv = (MultiPoly.variable(n, ("u", "v"), tower) for n in "uv")
        v1 = MultiPoly.variable("v", ("v",), tower)
        for linear, other in (
            (a * vv + b, vv ** 3 - a * uu * vv + 2),
            ((a * uu - b) * vv - 1, vv ** 3 - uu),
            ((b - 1) * vv + uu, a * vv ** 2 + b),
            ((a + b) * v1 - a * b, b * v1 ** 2 + a),
        ):
            self.check_reduced_sylvester(linear, other, "v", name)
            self.check_reduced_sylvester(other, linear, "v", name)


def _towers():
    """name -> (tower, [(generator name, minimal polynomial in that name)], bottom first)."""
    sqrt2 = QQ.extend("s", [-2, 0, 1])
    third = QQ.extend("r", [Fraction(-1, 3), 0, 1])  # r = sqrt(1/3)
    alpha = QQ.extend("a", [-3, Fraction(-1, 2), 0, 1])  # a^3 - a/2 - 3
    alpha_i = alpha.extend("i", [1, 0, 1])
    return {
        "QQ": (QQ, []),
        "sqrt2": (sqrt2, [("s", "s**2 - 2")]),
        "sqrt1/3": (third, [("r", "r**2 - 1/3")]),
        "alpha_i": (alpha_i, [("a", "a**3 - a/2 - 3"), ("i", "i**2 + 1")]),
        "split": (QQ.extend("g", [-1, 0, 1]), [("g", "g**2 - 1")]),
    }


class TestPackedProducts:
    """Products and substitutions on the packed-integer kernel, against sympy
    products of ``Poly``s reduced by ``rem`` modulo the minimal polynomials,
    top generator first."""

    @staticmethod
    def _rational(rng, huge):
        if huge:
            num = 2 ** 100 + rng.randrange(2 ** 100)
            den = rng.choice((1, 3, 2 ** 70 + 1))
        else:
            num, den = rng.randint(1, 9), rng.choice((1, 1, 2, 3))
        return Fraction(rng.choice((-1, 1)) * num, den)

    def _element(self, rng, tower, huge=False):
        from itertools import product

        from revolutio import FieldElement

        basis = list(product(*(range(s.degree) for s in tower.steps)))
        picks = rng.sample(basis, rng.randint(1, len(basis)))
        return FieldElement(tower, {b: self._rational(rng, huge) for b in picks})

    def _poly(self, rng, tower, names, degree, terms, huge=False):
        keys = {tuple(rng.randrange(degree + 1) for _ in names) for _ in range(terms)}
        return MultiPoly(names, {k: self._element(rng, tower, huge) for k in keys}, tower)

    def _check(self, got, expected, name, names):
        """``expected(value)`` builds the sympy Poly of the result, where
        ``value(p, images)`` is the Poly of a MultiPoly p with its variables
        replaced by the Polys ``images`` (default: the variables themselves)."""
        sympy = pytest.importorskip("sympy")
        tower, minpolys = _towers()[name]
        gens = [sympy.Symbol(g) for g, _ in minpolys]
        ring = gens[::-1] + [sympy.Symbol(n) for n in names]  # top generator first
        one = sympy.Poly(1, *ring, domain="QQ")
        gen_polys = [one * g for g in gens]
        variables = {n: one * sympy.Symbol(n) for n in names}

        def value(p, images=variables):
            total = one * 0
            for key, c in p.terms.items():
                coeff = one * 0
                for b, q in c.terms.items():
                    mono = one * sympy.Rational(q.numerator, q.denominator)
                    for g, e in zip(gen_polys, b):
                        mono *= g ** e
                    coeff += mono
                for v, e in zip(p.vars, key):
                    coeff *= images[v] ** e
                total += coeff
            return total

        want = expected(value)
        for g, m in reversed(minpolys):
            order = [sympy.Symbol(g)] + [x for x in ring if x.name != g]
            want = want.reorder(*order).rem(sympy.Poly(sympy.sympify(m), *order, domain="QQ"))
            want = want.reorder(*ring)
        assert got.tower == tower and got.vars == names
        assert value(got) == want

    @pytest.mark.parametrize("name", ["QQ", "sqrt2", "sqrt1/3", "alpha_i"])
    def test_products(self, name):
        import random

        rng = random.Random(7100 + len(name))
        tower = _towers()[name][0]
        names = ("u", "v", "w")
        for trial in range(6):
            f = self._poly(rng, tower, names, 3, rng.randint(1, 5), huge=trial % 2 == 1)
            g = self._poly(rng, tower, names, 3, rng.randint(1, 5), huge=trial % 3 == 1)
            self._check(f * g, lambda value: value(f) * value(g), name, names)
            self._check(g ** 3, lambda value: value(g) ** 3, name, names)

    @pytest.mark.parametrize("name", ["QQ", "sqrt2", "sqrt1/3", "alpha_i"])
    def test_substitute(self, name):
        import random

        rng = random.Random(7200 + len(name))
        tower = _towers()[name][0]
        xyz, uv = ("x", "y", "z"), ("u", "v")
        for trial in range(4):
            f = self._poly(rng, QQ if trial % 2 else tower, xyz, 2, 5, huge=trial == 1)
            images = {n: self._poly(rng, tower, uv, 2, 3, huge=trial == 2) for n in xyz}
            self._check(
                substitute(f, images),
                lambda value: value(f, {n: value(images[n]) for n in xyz}),
                name, uv,
            )

    def test_substitute_against_the_schoolbook_oracle(self):
        # w appears only as w^0 and w^3: the Horner step in w spans the gap
        # 3 from w's repeated squares
        import random

        rng = random.Random(7300)
        tower = _towers()["alpha_i"][0]
        minpolys = [
            [{(): Fraction(-3)}, {(): Fraction(-1, 2)}, {}, {(): Fraction(1)}],  # a^3 - a/2 - 3
            [{(0,): Fraction(1)}, {}, {(0,): Fraction(1)}],  # i^2 + 1
        ]
        uv = ("u", "v")

        def terms(p):
            return {k: c.terms for k, c in p.terms.items()}

        for trial in range(3):
            keys = [(3, 2), (3, 0), (0, 1), (0, 0), (3, 1)][: 2 + trial]
            f = MultiPoly(("w", "z"), {k: self._element(rng, tower) for k in keys}, tower)
            images = [self._poly(rng, tower, uv, 2, 3) for _ in "wz"]
            got = substitute(f, dict(zip("wz", images)))
            assert got.vars == uv and got.tower == tower
            assert terms(got) == oracles.poly_substitute(minpolys, terms(f), [terms(p) for p in images])

    def test_lone_high_power_costs_one_power(self, monkeypatch):
        # t^200 into 3 u v^2 takes the squares image^(2^j), j <= 7, their 2
        # combining products and the one product with the coefficient, in
        # each of the kernel's two passes
        from revolutio import poly

        f, image, calls = 5 * t ** 200, 3 * u * v ** 2, []
        mul = poly._Kronecker.mul
        monkeypatch.setattr(poly._Kronecker, "mul", lambda k, a, b: calls.append(1) or mul(k, a, b))
        got = substitute(f, {"t": image})
        assert got.vars == ("u", "v") and got.terms == {(200, 400): QQ.rational(5 * 3 ** 200)}
        assert len(calls) == 2 * (7 + 2 + 1)

    def test_huge_coefficients_of_both_signs(self):
        big = 2 ** 100 + 12345
        f = big * u - (big + 2) * v + Fraction(-big, 3)
        g = -big * u + Fraction(big, 7) * v ** 2
        got = f * g
        assert got.terms[(1, 2)].as_rational() == Fraction(big * big, 7)
        assert got.terms[(2, 0)].as_rational() == -big * big
        assert got.terms[(0, 3)].as_rational() == Fraction(-(big + 2) * big, 7)
        self._check(got, lambda value: value(f) * value(g), "QQ", ("u", "v"))

    def test_exact_cancellation_to_zero(self):
        # g^2 = 1 is square-free but reducible: (g + 1)(g - 1) multiplies zero divisors
        split = QQ.extend("g", [-1, 0, 1])
        g = split.gen("g")
        uu = MultiPoly.variable("u", ("u", "v"), split)
        product = ((g + 1) * (uu - 2 ** 120)) * ((g - 1) * (v ** 5 + 3))
        assert product.is_zero()
        assert product.vars == ("u", "v") and product.tower == split
        # the cone witness: every term of the residual cancels
        x, y, z = (MultiPoly.variable(n, ("x", "y", "z")) for n in "xyz")
        images = {"x": u ** 2 - v ** 2, "y": 2 * u * v, "z": u ** 2 + v ** 2}
        residual = substitute(x ** 2 + y ** 2 - z ** 2, images)
        assert residual.is_zero() and residual.vars == ("u", "v")

    def test_sparse_high_degree_images(self):
        # x^2 + y^2 = z^30 from x + i y = u^30, x - i y = v^30, z = u v
        qi = QQ.extend("i", [1, 0, 1])
        i = qi.gen("i")
        uu, vv = (MultiPoly.variable(n, ("u", "v"), qi) for n in "uv")
        x, y, z = (MultiPoly.variable(n, ("x", "y", "z")) for n in "xyz")
        F = x ** 2 + y ** 2 - z ** 30
        witness = {
            "x": (uu ** 30 + vv ** 30) * Fraction(1, 2),
            "y": (vv ** 30 - uu ** 30) * (i / 2),
            "z": uu * vv,
        }
        assert substitute(F, witness).is_zero()
        # sparse images whose powers do not cancel
        images = {"x": u ** 17 - 3 * v ** 11, "y": 2 * u * v ** 29, "z": u ** 7 - 3 * v ** 5}
        got = substitute(F, images)
        assert got.degree_in("u") == 210 and len(got.terms) == 31 + 3 + 1
        self._check(
            got, lambda value: value(F, {n: value(images[n]) for n in "xyz"}), "QQ", ("u", "v")
        )

    # UniPoly is a MultiPoly in the one variable t: the same kernel, plus the
    # one-term product

    def _uni(self, rng, tower, degree, terms, huge=False):
        return UniPoly(
            "t", {rng.randrange(degree + 1): self._element(rng, tower, huge) for _ in range(terms)}, tower
        )

    @pytest.mark.parametrize("name", ["QQ", "sqrt2", "sqrt1/3", "alpha_i"])
    def test_univariate_products_powers_and_compose(self, name):
        import random

        rng = random.Random(7400 + len(name))
        tower = _towers()[name][0]
        for trial in range(6):
            f = self._uni(rng, tower, 6, rng.randint(2, 6), huge=trial % 2 == 1)
            g = self._uni(rng, tower, 4, rng.randint(2, 4), huge=trial % 3 == 1)
            one_term = self._uni(rng, tower, 5, 1, huge=trial == 2)
            c = self._element(rng, tower, huge=trial == 4)
            scalar = UniPoly.constant("t", c, tower)
            for got, want in (
                (f * g, lambda value: value(f) * value(g)),
                (g ** 3, lambda value: value(g) ** 3),
                (f.compose(g), lambda value: value(f, {"t": value(g)})),
                (f * one_term, lambda value: value(f) * value(one_term)),
                (one_term * g, lambda value: value(one_term) * value(g)),
                (c * f, lambda value: value(scalar) * value(f)),
                (f * c, lambda value: value(f) * value(scalar)),
            ):
                assert isinstance(got, UniPoly) and got.var == "t"
                self._check(got, want, name, ("t",))

    def test_one_term_product_drops_zero_coefficients(self):
        # g^2 = 1 is square-free but reducible: (g - 1)(g + 1) = 0
        split = QQ.extend("g", [-1, 0, 1])
        g = split.gen("g")
        x = UniPoly.variable("t", split)
        got = (g - 1) * x * ((g + 1) * x + 1)
        assert got == (g - 1) * x
        assert got.terms == {(1,): g - 1} and got.tower == split
        self._check(got, lambda value: value((g - 1) * x) * value((g + 1) * x + 1), "split", ("t",))

    @pytest.mark.parametrize("name", ["QQ", "sqrt2", "sqrt1/3", "alpha_i"])
    def test_univariate_divmod(self, name):
        import random

        rng = random.Random(7500 + len(name))
        tower = _towers()[name][0]
        for trial in range(6):
            a = self._uni(rng, tower, 7, rng.randint(1, 6), huge=trial % 2 == 1)
            b = self._uni(rng, tower, 4, rng.randint(1, 4), huge=trial == 2)
            q, r = a.divmod(b)
            assert q * b + r == a
            assert r.degree < b.degree
            assert all(isinstance(x, UniPoly) and x.var == "t" for x in (q, r))

    def test_univariate_results_keep_the_class(self):
        sqrt2 = QQ.extend("s", [-2, 0, 1])
        f = UniPoly("x", {3: sqrt2.gen("s"), 1: 2, 0: -1}, sqrt2)
        g = UniPoly("x", {2: 1, 0: Fraction(1, 3)})
        inner = UniPoly("y", {2: 1, 1: 1})
        results = [
            f + g, f - g, f * g, f ** 2, f ** 0, -f, 3 * f, f - 1, 1 - f, *f.divmod(g),
            f.monic(), f.derivative(), f + MultiPoly.constant(2),
        ]
        for p in results:
            assert type(p) is UniPoly and p.var == "x", p
        assert type(f.compose(inner)) is UniPoly and f.compose(inner).var == "y"
        with pytest.raises(InvalidInput, match="variable mismatch: x vs y"):
            f.divmod(inner)
        st = ("s", "t")
        s_, t_ = MultiPoly.variable("s", st), MultiPoly.variable("t", st)
        res = resultant_eliminate(s_ ** 2 - t_, s_ * t_ - 1, "s")
        assert type(res) is UniPoly and res.var == "t"
        assert res == 1 - t_ ** 3  # t^2 * f(1/t), as in TestResultant
        # two variables, or none, stay MultiPoly
        assert type(f * inner) is MultiPoly and type(s_ * t_) is MultiPoly
        assert type(MultiPoly.constant(2) * 3) is MultiPoly

    # the graded layout: the top coordinate is the total degree, and a value
    # is stored from its lowest row on

    @staticmethod
    def _grades(monkeypatch) -> list:
        """The grade of every kernel run from now on, in order."""
        from revolutio import poly

        grades, unpack = [], poly._Kronecker._unpack
        monkeypatch.setattr(poly._Kronecker, "_unpack", lambda k, p: grades.append(k.grade) or unpack(k, p))
        return grades

    def _graded(self, rng, tower, names, degrees, terms, huge=False):
        """A sum of homogeneous parts, one of each total degree in
        ``degrees``, each with at least its two pure powers."""
        keys = set()
        for d in degrees:
            keys |= {(0,) * (len(names) - 1) + (d,), (d,) + (0,) * (len(names) - 1)}
            for _ in range(terms):
                head = []
                for _ in names[1:]:
                    head.append(rng.randint(0, d - sum(head)))
                rng.shuffle(head)
                keys.add(tuple(head) + (d - sum(head),))
        return MultiPoly(names, {k: self._element(rng, tower, huge) for k in keys}, tower)

    @pytest.mark.parametrize("name", ["QQ", "sqrt2", "sqrt1/3", "alpha_i", "split"])
    def test_graded_products_and_powers(self, name, monkeypatch):
        import random

        rng = random.Random(7600 + len(name))
        tower = _towers()[name][0]
        grades = self._grades(monkeypatch)
        for names in (("u", "v"), ("u", "v", "w")):
            for trial in range(3):
                huge = trial % 2 == 1
                # homogeneous operands: one row each, stored without the
                # empty rows below
                f = self._graded(rng, tower, names, [rng.randint(3, 5)], 3, huge)
                g = self._graded(rng, tower, names, [rng.randint(2, 4)], 2, huge=trial == 2)
                del grades[:]
                self._check(f * g, lambda value: value(f) * value(g), name, names)
                self._check(g ** 3, lambda value: value(g) ** 3, name, names)
                assert grades == [1, 1]
                # parts of different total degrees: each value spans several rows
                f = self._graded(rng, tower, names, [2, 5], 2, huge)
                g = self._graded(rng, tower, names, [1, 3, 4], 1)
                self._check(f * g, lambda value: value(f) * value(g), name, names)
                self._check(f ** 2, lambda value: value(f) ** 2, name, names)

    @pytest.mark.parametrize("name", ["QQ", "sqrt2", "sqrt1/3", "alpha_i", "split"])
    def test_graded_substitute(self, name, monkeypatch):
        # homogeneous images of different degrees: every term of f lands in
        # its own rows, and the Horner sums add values at different offsets
        import random

        rng = random.Random(7700 + len(name))
        tower = _towers()[name][0]
        grades = self._grades(monkeypatch)
        xyz, uv = ("x", "y", "z"), ("u", "v")
        for trial in range(3):
            f = self._poly(rng, QQ if trial % 2 else tower, xyz, 2, 6, huge=trial == 1)
            images = {n: self._graded(rng, tower, uv, [d], 2, huge=trial == 2) for n, d in zip(xyz, (2, 3, 1))}
            del grades[:]
            self._check(
                substitute(f, images),
                lambda value: value(f, {n: value(images[n]) for n in xyz}),
                name, uv,
            )
            # the widest value, f's span times the images' degrees, is below
            # the box exactly when grade 1 was chosen
            degs = [sum(k[i] * d for i, d in enumerate((2, 3, 1))) for k in f.terms]
            assert grades == [int(max(degs) - min(degs) + 1 < max(degs) + 1)]
        # images in u alone, in v alone and in both: leaves in fewer
        # variables than the run. With no constant term the widest value
        # spans total degrees 2 to 8, under the 9 rows of the box in v
        # (from y^2); the constant term widens it to 0 to 8
        images = {
            "x": self._graded(rng, tower, ("u",), [2, 3], 1),
            "y": self._graded(rng, tower, ("v",), [3, 4], 1, huge=True),
            "z": self._graded(rng, tower, uv, [1], 2),
        }
        keys = [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)]
        f = MultiPoly(xyz, {k: self._element(rng, tower) for k in keys}, tower)
        for g, grade in ((f, 1), (f + 1, 0)):
            del grades[:]
            self._check(
                substitute(g, images),
                lambda value: value(g, {n: value(images[n]) for n in xyz}),
                name, uv,
            )
            assert grades == [grade]

    @pytest.mark.parametrize("name", ["QQ", "sqrt2", "sqrt1/3", "alpha_i", "split"])
    def test_box_shaped_operands(self, name, monkeypatch):
        import random

        rng = random.Random(7800 + len(name))
        tower = _towers()[name][0]
        grades = self._grades(monkeypatch)
        uv = ("u", "v")
        for trial in range(3):
            d = rng.randint(3, 6)
            keys = [(0, 0), (d, 0), (0, d), (d, d)] + [(rng.randint(0, d), rng.randint(0, d)) for _ in range(3)]
            f = MultiPoly(uv, {k: self._element(rng, tower, trial == 1) for k in keys}, tower)
            g = self._poly(rng, tower, uv, d, 4, huge=trial == 2) + f
            del grades[:]
            self._check(f * g, lambda value: value(f) * value(g), name, uv)
            self._check(f ** 2, lambda value: value(f) ** 2, name, uv)
            assert grades == [0, 0]

    def test_grade_of_a_homogeneous_and_a_box_shaped_run(self, monkeypatch):
        h = u + 2 * v
        f, g = 1 + u ** 5 * v ** 5, 1 - u ** 5 * v ** 5
        x = MultiPoly.variable("x", ("x",))
        one_plus_x10, u10v10 = 1 + x ** 10, u ** 10 * v ** 10
        grades = self._grades(monkeypatch)
        # a homogeneous power and product: each value is one row, the 61
        # terms of h^60 in 61 slots instead of a 61 x 61 box
        h30 = h ** 30
        assert (h30 * h30).terms[(30, 30)].as_rational() == math.comb(60, 30) * 2 ** 30
        assert grades == [1, 1]
        # u^5 v^5 against 1: the product spans total degrees 0 to 20, wider
        # than the box's 11 rows of v
        assert f * g == 1 - u10v10
        assert grades == [1, 1, 0]
        # narrow leaves, wide result: each leaf spans at most 2 total
        # degrees, the result 20, so only the largest span of any value
        # shows that the box is narrower
        del grades[:]
        assert ((1 + u * v) ** 10).terms[(5, 5)].as_rational() == 252
        assert substitute(one_plus_x10, {"x": u * v}) == 1 + u10v10
        assert grades == [0, 0]

    @pytest.mark.parametrize("sign", [1, -1])
    def test_graded_huge_coefficients_of_both_signs(self, sign):
        big = 2 ** 100 + 12345
        f = sign * big * u ** 3 - (big + 2) * u * v ** 2 + Fraction(-big, 3) * v ** 3
        g = -big * u ** 2 + Fraction(big, 7) * v ** 2 + sign * (big + 4) * u * v
        got = f * g
        assert all(sum(k) == 5 for k in got.terms)
        assert got.terms[(5, 0)].as_rational() == -sign * big * big
        self._check(got, lambda value: value(f) * value(g), "QQ", ("u", "v"))
        self._check(f ** 4 - g ** 6, lambda value: value(f) ** 4 - value(g) ** 6, "QQ", ("u", "v"))

    def test_graded_exact_cancellation_to_zero(self, monkeypatch):
        split = QQ.extend("g", [-1, 0, 1])
        g = split.gen("g")
        uu, vv = (MultiPoly.variable(n, ("u", "v"), split) for n in "uv")
        f, h = (g + 1) * (uu ** 3 - 2 ** 120 * uu * vv ** 2), (g - 1) * (vv ** 4 + 3 * uu ** 2 * vv ** 2)
        # x^2 + y^2 - z^2 on x + i y = u^2, x - i y = v^2, z = u v
        qi = QQ.extend("i", [1, 0, 1])
        i = qi.gen("i")
        uu, vv = (MultiPoly.variable(n, ("u", "v"), qi) for n in "uv")
        x, y, z = (MultiPoly.variable(n, ("x", "y", "z")) for n in "xyz")
        F = x ** 2 + y ** 2 - z ** 2
        images = {"x": (uu ** 2 + vv ** 2) * Fraction(1, 2), "y": (vv ** 2 - uu ** 2) * (i / 2), "z": uu * vv}
        grades = self._grades(monkeypatch)
        product = f * h
        assert product.is_zero() and product.vars == ("u", "v") and product.tower == split
        assert substitute(F, images).is_zero()
        assert grades == [1, 1]


class TestEvalAt:
    @pytest.mark.parametrize("name", ["sqrt2", "alpha_i"])
    def test_against_uncached_product(self, name):
        # eval_at caches each variable's powers; the value must be the plain
        # sum of each term times its variable values, one product at a time
        import random

        rng = random.Random(7300 + len(name))
        tower = _towers()[name][0]
        make = TestPackedProducts()
        names = ("u", "v", "w")
        for trial in range(12):
            p = make._poly(rng, tower, names, 5, rng.randint(1, 8), huge=trial % 4 == 1)
            point = {
                "u": make._element(rng, tower, huge=trial % 3 == 2),
                "v": make._rational(rng, huge=False),
                "w": tower.gen(rng.randrange(tower.height)) + rng.randint(-2, 2),
            }
            want = tower.zero()
            for key, c in p.terms.items():
                term = c
                for var, e in zip(names, key):
                    for _ in range(e):
                        term = term * point[var]
                want = want + term
            got = p.eval_at(point)
            assert got.tower == tower and got == want


class TestWithVars:
    """``with_vars`` is the one re-keying path and the trusted constructors
    share its canonical form; the validating constructor is the oracle."""

    @staticmethod
    def _rekeyed(p, names):
        """p's terms keyed by ``names`` in the given order (the oracle's input)."""
        return {tuple(dict(zip(p.vars, k)).get(n, 0) for n in names): c for k, c in p.terms.items()}

    @staticmethod
    def _same(got, want):
        assert type(got) is (UniPoly if len(want.vars) == 1 else MultiPoly)
        assert got.vars == want.vars and got.tower == want.tower and got.terms == want.terms
        assert all(c.tower == got.tower for c in got.terms.values())

    @pytest.mark.parametrize("name", ["QQ", "sqrt2", "sqrt1/3", "alpha_i", "split"])
    def test_against_the_validating_constructor(self, name):
        import random

        rng = random.Random(7600 + len(name))
        tower = _towers()[name][0]
        taller = tower.extend(tower.fresh_name("c"), [-7, 0, 1])
        make = TestPackedProducts()
        for trial in range(12):
            names = tuple(rng.sample(("w", "u", "v"), rng.randint(1, 3)))
            p = make._poly(rng, tower, names, 4, rng.randint(1, 6), huge=trial % 4 == 1)
            # onto a superset, named in unsorted order
            wider = names + ("x",)
            wider = tuple(rng.sample(wider, len(wider)))
            self._same(p.with_vars(wider), MultiPoly(wider, self._rekeyed(p, wider), tower))
            # onto a subset that drops an unused variable
            padded = MultiPoly(names + ("x",), self._rekeyed(p, names + ("x",)), tower)
            self._same(padded.with_vars(names), MultiPoly(names, self._rekeyed(p, names), tower))
            # onto a taller tower
            self._same(p.with_vars(names, taller), MultiPoly(p.vars, dict(p.terms), taller))

    def test_refusals(self):
        sqrt2 = QQ.extend("s", [-2, 0, 1])
        p = u * v + 1
        with pytest.raises(InvalidInput, match="cannot drop used variables"):
            p.with_vars(("u",))
        with pytest.raises(InvalidInput, match="at most 4 variables"):
            p.with_vars(("u", "v", "w", "x", "y"))
        with pytest.raises(InvalidInput, match="duplicate variable"):
            p.with_vars(("u", "v", "v"))
        with pytest.raises(TowerMismatch):
            (u + sqrt2.gen("s")).with_vars(("u", "v"), QQ)
        for build in (
            lambda names: MultiPoly.zero(names),
            lambda names: MultiPoly.constant(1, names),
            lambda names: MultiPoly.variable("u", names),
        ):
            with pytest.raises(InvalidInput, match="at most 4 variables"):
                build(("u", "v", "w", "x", "y"))

    def test_trusted_constructors(self):
        sqrt2 = QQ.extend("s", [-2, 0, 1])
        s = sqrt2.gen("s")
        for zero in (0, Fraction(0), sqrt2.zero()):
            assert MultiPoly.constant(zero, ("v", "u")).is_zero()
            assert MultiPoly.constant(zero, ("v", "u")).vars == ("u", "v")
            assert UniPoly.constant("t", zero).terms == {}
        self._same(MultiPoly.variable("u", ("w", "v")), MultiPoly(("w", "v", "u"), {(0, 0, 1): 1}))
        self._same(MultiPoly.variable("u", ("w",)), MultiPoly(("w", "u"), {(0, 1): 1}))
        # a coefficient over a taller tower lifts the constant onto it
        self._same(MultiPoly.constant(s, ("u", "v")), MultiPoly(("u", "v"), {(0, 0): s}))
        self._same(UniPoly.constant("t", s), UniPoly("t", {0: s}))
        self._same(MultiPoly.zero(("v", "u"), sqrt2), MultiPoly(("u", "v"), {}, sqrt2))

    def test_one_variable_results_are_unipolys(self):
        for p in (
            MultiPoly.variable("u"),
            MultiPoly.constant(2, ("t",)),
            MultiPoly.zero(("t",)),
            (u + 1).with_vars(("u",)),
            t.with_vars(("t",)),
            (v + 2).to_unipoly(),
        ):
            assert type(p) is UniPoly, p
        assert type(t.with_vars(("t", "u"))) is MultiPoly
        assert type(MultiPoly.constant(2)) is MultiPoly


class TestRepr:
    def test_term_rules(self):
        # terms by descending total degree; a compound coefficient is
        # parenthesized, and a negative term after the first is a difference
        tower = QQ.extend("r", [-2, 0, 1]).extend("i", [1, 0, 1])
        r, i = tower.gen("r"), tower.gen("i")
        x = MultiPoly.variable("x", ("x", "y"), tower)
        y = MultiPoly.variable("y", ("x", "y"), tower)
        cases = [
            ((-r - 1) * x ** 2 - x * y + (r + 1) * y + 2, "(-r - 1)*x^2 - x*y + (r + 1)*y + 2"),
            (Fraction(1, 3) * y ** 2 - x - 1, "1/3*y^2 - x - 1"),
            ((r * i - 1) * x ** 3 - y, "(r*i - 1)*x^3 - y"),
            (MultiPoly.zero(("x", "y"), tower), "0"),
        ]
        for f, text in cases:
            assert repr(f) == text


class TestHash:
    def test_equal_polynomials_over_different_towers_hash_alike(self):
        sqrt2 = QQ.extend("s", [-2, 0, 1])
        assert UniPoly.constant("t", 3) == UniPoly.constant("t", 3, sqrt2)
        assert len({UniPoly.constant("t", 3), UniPoly.constant("t", 3, sqrt2)}) == 1
        assert len({u + v, (u + v).with_vars(("u", "v"), sqrt2)}) == 1

    def test_constant_polynomial_hashes_like_its_value(self):
        assert UniPoly.constant("t", 3) == 3 and len({UniPoly.constant("t", 3), 3}) == 1
        assert len({MultiPoly.constant(Fraction(-1, 2), ("u", "v")), Fraction(-1, 2)}) == 1
        assert len({UniPoly.zero("t"), 0}) == 1
        assert len({t + 3, 3}) == 2
