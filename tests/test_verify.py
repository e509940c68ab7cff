"""On-surface residuals, Jacobian ranks, fiber counting."""

import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from revolutio import (
    QQ,
    InternalInvariant,
    InvalidInput,
    MultiPoly,
    SurfaceParam,
    UniPoly,
    fiber_count,
    gcd_unipoly,
    jacobian_generic_rank,
    parse_poly,
    quadric_param,
    resultant_eliminate,
    sphere_witness,
    substitute,
    tubular_lift,
    verify_on_surface,
)
from revolutio import verify
from revolutio.realparam import two_sheet_components
from revolutio.verify import FIBER_SAMPLES, _residual, fiber_count_first_valid

u = MultiPoly.variable("u", ("u", "v"))
v = MultiPoly.variable("v", ("u", "v"))


def xyz():
    return (
        MultiPoly.variable("x", ("x", "y", "z")),
        MultiPoly.variable("y", ("x", "y", "z")),
        MultiPoly.variable("z", ("x", "y", "z")),
    )


def make(comps):
    return SurfaceParam.make(comps)


class TestOnSurface:
    def test_sphere_witness(self):
        x, y, z = xyz()
        F = x ** 2 + y ** 2 + z ** 2 - 1
        assert verify_on_surface(sphere_witness(), F) is None
        assert _residual(sphere_witness().components, F).is_zero()

    def test_paraboloid(self):
        x, y, z = xyz()
        assert verify_on_surface(make([u, v, u ** 2 + v ** 2]), x ** 2 + y ** 2 - z) is None

    def test_off_surface_residual(self):
        x, y, z = xyz()
        s = make([u, v, u ** 2 + v ** 2])
        F = x ** 2 + y ** 2 - z - 1
        with pytest.raises(InternalInvariant, match="residual -1"):
            verify_on_surface(s, F)
        assert _residual(s.components, F) == -1

    def test_rank_one_witness_on_the_surface_is_refused(self):
        x, y, z = xyz()
        s = make([u, 0, u ** 2])  # a parabola on the paraboloid
        assert _residual(s.components, x ** 2 + y ** 2 - z).is_zero()
        with pytest.raises(InternalInvariant, match="jacobian rank 1"):
            verify_on_surface(s, x ** 2 + y ** 2 - z)

    def test_rank_is_not_computed_off_the_surface(self, monkeypatch):
        from revolutio import verify

        def no_rank(s):
            raise AssertionError("rank computed for an off-surface witness")

        monkeypatch.setattr(verify, "jacobian_generic_rank", no_rank)
        x, y, z = xyz()
        with pytest.raises(InternalInvariant, match="residual"):
            verify_on_surface(make([u, u, u]), x ** 2 + y ** 2 - z)


def _profile_surface(x, b):
    """(G, F, complex witness) of the surface with profile square [x(t), b(t)]:
    its profile-square equation G(w, z) and F = G(x^2 + y^2, z)."""
    from revolutio import decompose_paa, sor_complex_param, surface_implicit
    from revolutio.profile import p2_implicit

    G = p2_implicit(x, b)
    return G, surface_implicit(G), sor_complex_param(decompose_paa(x, b))


class TestResidualRoute:
    """The residual through G(w, z) with F = G(x^2 + y^2, z), and the direct
    substitution into F."""

    def test_perturbed_witness_residual_is_the_direct_substitution(self):
        t = UniPoly.variable("t")
        G, F, w = _profile_surface((t ** 2 + 1) * (t ** 2 - 2) * (t - 3) ** 2, t ** 3 + t)
        X, Y, Z = w.components
        g = w.tower.gen(w.tower.steps[0].name)
        # the first two lie on F (it is symmetric in x and y), the rest do not
        cases = [(X, Y, Z), (Y, X, Z), (X + u * v, Y, Z), (X, Y - g * v, Z), (X, Y, Z + 1)]
        for n, comps in enumerate(cases):
            direct = substitute(F, dict(zip(("x", "y", "z"), comps)))
            assert _residual(comps, G) == direct
            assert direct.is_zero() == (n < 2)
            for equation in (G, F):
                if n < 2:
                    verify_on_surface(make(comps), equation)
                else:
                    with pytest.raises(InternalInvariant, match="residual"):
                        verify_on_surface(make(comps), equation)

    @pytest.mark.parametrize("which", [0, 1, 2])
    def test_one_changed_coefficient_of_a_homogeneous_witness_is_refused(self, which):
        # x^2 + y^2 = z^30: every component of the lifted witness is
        # homogeneous in (u, v), so its residual runs in the graded layout
        t = UniPoly.variable("t")
        G, F, w = _profile_surface(t ** 30, t)
        comps = w.components
        assert all(len({sum(k) for k in c.terms}) == 1 for c in comps)
        verify_on_surface(w, G)
        rng = random.Random(30 + which)
        c = comps[which]
        key = rng.choice(sorted(c.terms))
        changed = MultiPoly(c.vars, {**c.terms, key: c.terms[key] + rng.choice((-1, 1))}, c.tower)
        bad = comps[:which] + (changed,) + comps[which + 1:]
        assert _residual(bad, G) == substitute(F, dict(zip(("x", "y", "z"), bad)))
        with pytest.raises(InternalInvariant, match="residual"):
            verify_on_surface(make(bad), G)

    @pytest.mark.parametrize(
        "text, witness",
        [
            ("x*y - z", lambda F: make([u, v, u * v])),
            ("2*x^2+3*y^2+z^2-1", quadric_param),
            ("x^2+y^2+x-z", lambda F: make([u, v, u ** 2 + v ** 2 + u])),
        ],
        ids=["saddle", "ellipsoid", "shifted_paraboloid"],
    )
    def test_surfaces_not_of_revolution_take_the_direct_route(self, text, witness):
        F = parse_poly(text, allowed_vars=("x", "y", "z"))
        s = witness(F)
        verify_on_surface(s, F)
        X, Y, Z = s.components
        assert _residual((X, Y, Z + u), F) == substitute(F, {"x": X, "y": Y, "z": Z + u})
        with pytest.raises(InternalInvariant, match="residual"):
            verify_on_surface(make((X, Y, Z + u)), F)


class TestJacobianRank:
    def test_rank_two(self):
        assert jacobian_generic_rank(make([u, v, u ** 2 + v ** 2])) == 2

    def test_rank_one(self):
        assert jacobian_generic_rank(make([u, u, u])) == 1

    def test_rank_zero(self):
        assert jacobian_generic_rank(make([1, 2, 3])) == 0

    def test_invariance_under_affine_reparam(self):
        rng = random.Random(909)
        base = [u, v, u ** 2 + v ** 2]
        for _ in range(30):
            a, b, c, d = (Fraction(rng.randint(-5, 5)) for _ in range(4))
            if a * d - b * c == 0:
                continue
            e, f = Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))
            from revolutio import substitute

            uu = a * u + b * v + e
            vv = c * u + d * v + f
            comps = [substitute(cmp_, {"u": uu, "v": vv}) for cmp_ in base]
            assert jacobian_generic_rank(make(comps)) == 2


def _sympy_minors(s):
    """sympy's view of s: (the three 2x2 Jacobian minors, the six partial
    derivatives, a map from expressions to Polys reduced modulo the
    tower's minimal polynomial). Every test tower here has at most one
    step, with rational coefficients: it leads the generators, so
    ``Poly.rem`` by the monic minimal polynomial reduces it."""
    sympy = pytest.importorskip("sympy")
    U, V = sympy.symbols("u v")
    steps = s.tower.steps
    assert len(steps) <= 1
    gens = [sympy.Symbol(st.name) for st in steps]

    mods = [
        sympy.Poly(sum(sympy.Rational(c.as_rational()) * g ** e for e, c in enumerate(st.minpoly)),
                   *gens, U, V, domain="QQ")
        for g, st in zip(gens, steps)
    ]

    def reduce(p):
        if not isinstance(p, sympy.Poly):
            p = sympy.Poly(p, *gens, U, V, domain="QQ")
        for m in mods:
            p = p.rem(m)
        return p

    def as_poly(c):
        # the component's terms straight into a Poly in (generators, u, v)
        pad = (0,) * len(steps)
        return sympy.Poly.from_dict(
            {
                (*(k + pad)[:len(steps)], a, b): sympy.Rational(q.numerator, q.denominator)
                for (a, b), coeff in c.with_vars(("u", "v")).terms.items()
                for k, q in coeff.terms.items()
            } or {(0,) * (len(steps) + 2): 0},
            *gens, U, V, domain="QQ",
        )

    comps = [as_poly(c) for c in s.components]
    du = [c.diff(U) for c in comps]
    dv = [c.diff(V) for c in comps]
    minors = [reduce(du[i] * dv[j] - du[j] * dv[i]) for i, j in ((0, 1), (0, 2), (1, 2))]
    return minors, du + dv, reduce


def oracle_rank(s) -> int:
    """The generic Jacobian rank from the symbolic 2x2 minors."""
    minors, partials, _ = _sympy_minors(s)
    if any(not m.is_zero for m in minors):
        return 2
    return 1 if any(not d.is_zero for d in partials) else 0


def minors_at(s, point) -> list:
    """The three minors at a point (u, v), reduced in the tower, as Polys."""
    minors, _, reduce = _sympy_minors(s)
    U, V = pytest.importorskip("sympy").symbols("u v")
    return [reduce(m.as_expr().subs({U: point[0], V: point[1]})) for m in minors]


class TestRankCertificate:
    """The grid evaluation of jacobian_generic_rank against the symbolic minors."""

    def test_rank_two_with_every_minor_zero_at_the_first_grid_point(self):
        s = make([(u - 1) ** 2, (v - 1) ** 2, u + v])
        assert all(m.is_zero for m in minors_at(s, (1, 1)))
        assert oracle_rank(s) == jacobian_generic_rank(s) == 2

    def test_rank_one_in_both_variables(self):
        w = u + 2 * v
        s = make([w, w ** 2 - 1, 3 * w ** 3 + w])
        assert oracle_rank(s) == jacobian_generic_rank(s) == 1

    def test_rotated_axis_is_rank_one(self):
        zero = MultiPoly.zero(("u", "v"))
        s = make([zero, zero, v])
        assert oracle_rank(s) == jacobian_generic_rank(s) == 1

    def test_rank_zero(self):
        s = make([0, Fraction(1, 2), -7])
        assert oracle_rank(s) == jacobian_generic_rank(s) == 0

    def test_reducible_tower_minor_with_a_zero_divisor_factor(self):
        # QQ[a]/(a^2 - 1) is QQ x QQ; the only nonzero minor is (a - 1) u,
        # zero on the factor a = 1 and nonzero on a = -1
        tw = QQ.extend("a", [-1, 0, 1])
        a = tw.gen("a")
        s = make([u, (a - 1) * u * v + u, MultiPoly.constant(a, ("u", "v"))])
        minors = minors_at(s, (1, 1))
        reduce = _sympy_minors(s)[2]
        A = pytest.importorskip("sympy").Symbol("a")
        assert minors[1].is_zero and minors[2].is_zero
        assert not minors[0].is_zero and reduce(minors[0].as_expr() * (A + 1)).is_zero
        assert oracle_rank(s) == jacobian_generic_rank(s) == 2
        # (a - 1)(a + 1) = 0 in this ring, so this map has rank 1
        s = make([u, (a - 1) * (a + 1) * v, MultiPoly.constant(a, ("u", "v"))])
        assert oracle_rank(s) == jacobian_generic_rank(s) == 1

    def test_random_maps_against_the_symbolic_minors(self):
        rng = random.Random(1105)
        tw = QQ.extend("r", [-2, 0, 1])
        r = tw.gen("r")

        def poly(deg):
            out = MultiPoly.zero(("u", "v"))
            for i in range(deg + 1):
                for j in range(deg + 1 - i):
                    if rng.random() < 0.5:
                        c = Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3)))
                        out = out + (c + rng.randint(-1, 1) * r) * u ** i * v ** j
            return out

        seen = set()
        for _ in range(60):
            kind = rng.randrange(4)
            c1, c2 = poly(rng.randint(0, 3)), poly(rng.randint(0, 3))
            if kind == 0:
                comps = [c1, c2, poly(rng.randint(0, 3))]
            elif kind == 1:
                comps = [c1, c2, c1 ** 2 + c2]
            elif kind == 2:  # functions of one polynomial w: rank at most 1
                w = poly(rng.randint(1, 2))
                comps = [w, 3 * w ** 2 - w, r * w ** 3 + 1]
            else:
                comps = [c1, c1 * r, c1 ** 2]
            s = make(comps)
            rank = oracle_rank(s)
            assert jacobian_generic_rank(s) == rank
            seen.add(rank)
        assert seen == {0, 1, 2}


class TestFiberCount:
    def test_proper_graph(self):
        assert fiber_count(make([u, v, u ** 2 + v ** 2]), (1, 1)) == 1

    def test_two_to_one_symmetry(self):
        assert fiber_count(make([u ** 2, v, u ** 4 + v]), (1, 0)) == 2

    def test_double_cover_witness(self):
        from revolutio.realparam import two_sheet_components

        s = make(list(two_sheet_components()))
        assert fiber_count(s, (1, 1)) == 2

    def test_invalid_sample_on_jacobian_locus(self):
        s = make([u ** 2, v, u ** 4 + v])
        with pytest.raises(InvalidInput):
            fiber_count(s, (0, 0))  # du column vanishes at u = 0

    def test_v_free_witness_refused_at_the_jacobian_check(self):
        # no component uses v, so every 2x2 minor vanishes at every sample
        with pytest.raises(InvalidInput, match="Jacobian's vanishing locus"):
            fiber_count(make([u, u ** 2, u ** 3]), (1, 1))

    def test_retry_sequence(self):
        s = make([u ** 2, v, u ** 4 + v])
        n, sample = fiber_count_first_valid(s)
        assert n == 2
        assert sample in FIBER_SAMPLES

    def test_no_valid_sample_gives_none(self):
        # rank 1: every sample lies on the Jacobian's vanishing locus
        assert fiber_count_first_valid(make([u, u, u])) == (None, None)

    def test_fiber_at_least_one_on_surface(self):
        from revolutio import decompose_paa, sor_complex_param

        t = UniPoly.variable("t")
        for x_poly in (t, t ** 3, 1 - t ** 2):
            d = decompose_paa(x_poly, t)
            s = sor_complex_param(d)
            n, _ = fiber_count_first_valid(s)
            assert isinstance(n, int) and n >= 1

    def test_tower_coefficients(self):
        from revolutio import cubic_example

        n, sample = fiber_count_first_valid(cubic_example())
        assert n == 1 and sample == (1, 1)


def _all_pairs_eliminant(with_v, u_only):
    """The reference eliminant: the gcd of the u-only equations and of the
    resultant in v of every pair of equations."""
    candidates = [e.to_unipoly("u") for e in u_only]
    for i in range(len(with_v)):
        for j in range(i + 1, len(with_v)):
            r = resultant_eliminate(with_v[i], with_v[j], "v")
            if not r.is_zero():
                candidates.append(r)
    if not candidates:
        return None
    g = candidates[0]
    for c in candidates[1:]:
        g = gcd_unipoly(g, c)
    return g


def _count(s, sample):
    """fiber_count, "invalid" for a sample on the Jacobian's vanishing locus."""
    try:
        return fiber_count(s, sample)
    except InvalidInput:
        return "invalid"


def _all_pairs_count(s, sample):
    with mock.patch.object(verify, "_u_eliminant", _all_pairs_eliminant):
        return _count(s, sample)


_COEFF = st.tuples(st.integers(-3, 3), st.booleans())  # (n, times sqrt 2)


class TestPivotElimination:
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        over_sqrt2=st.booleans(),
        a=st.lists(_COEFF, min_size=1, max_size=2),
        b=st.lists(_COEFF, min_size=2, max_size=3),
        sample=st.sampled_from(FIBER_SAMPLES),
    )
    def test_same_count_as_all_pairs(self, over_sqrt2, a, b, sample):
        # two-sheet bases lifted by random (a, b): the pivot's larger gcd
        # must give the count, or None, that every pair gives
        tower = QQ.extend("s", [-2, 0, 1]) if over_sqrt2 else QQ
        root = tower.gen("s") if over_sqrt2 else 1

        def poly(coeffs):
            return UniPoly("t", {e: n * (root if r else 1) for e, (n, r) in enumerate(coeffs)}, tower)

        a, b = poly(a), poly(b)
        assume(not a.is_zero() and not b.is_constant())
        s = tubular_lift(two_sheet_components(tower), a, b)
        assert _count(s, sample) == _all_pairs_count(s, sample)

    def test_pivot_resultants_vanish_identically(self):
        # the pivot, the first of the two equations of v-degree 2, shares the
        # factor v - u with the second and v + u - 2 with the third, so only
        # the pair without it eliminates v. The fiber of (1, 1) is (1, 1),
        # (0, 0) and (-1, -1) on v = u, and the two roots of 2u^2 - u + 1 on
        # v = 2 - u
        h1, h2 = v - u, v + u - 2
        s = make([h1 * h2, h1 * (v + 2 * u ** 2 - 1), h2 * (v ** 2 + u)])
        e = s.components
        assert resultant_eliminate(e[0], e[1], "v").is_zero()
        assert resultant_eliminate(e[0], e[2], "v").is_zero()
        assert _count(s, (1, 1)) == _all_pairs_count(s, (1, 1)) == 5
