"""Randomized property suites shared by test_properties and the acceptance
gate. Each suite runs a documented number of cases from its own fixed seed:

    yun round-trip / square-freeness      seed 20260811
    decompose reconstruction p*a^2 = f    seed 20260812
    v*h = p(u v + alpha)                  seed 20260813
    substitution homomorphism             seed 20260814
    Sturm counts vs constructed roots     seed 20260815
    gcd divides both arguments            seed 20260816
    tower arithmetic vs schoolbook oracle seed 20260817

Inputs are generated small on purpose: the properties are structural and
low-degree instances already exercise every code path (carries, towers,
content signs) without inflating runtime.
"""

import random
from fractions import Fraction
from math import gcd

import oracles

from revolutio import (
    QQ,
    FieldElement,
    MultiPoly,
    UniPoly,
    decompose_paa,
    exact_divide,
    gcd_unipoly,
    squarefree_decompose,
    sturm_real_root_count,
    substitute,
    tubular_base,
)

CASES = 200

t = UniPoly.variable("t")


def _random_factor(rng):
    deg = rng.randrange(1, 3)
    if deg == 1:
        return t + rng.randint(-5, 5)
    return t ** 2 + rng.randint(-4, 4) * t + rng.randint(-4, 6)


def _random_product(rng, max_factors=3, max_mult=3):
    f = UniPoly.constant("t", rng.choice([-4, -2, -1, 1, 2, 3, 5]))
    for _ in range(rng.randrange(1, max_factors + 1)):
        f = f * _random_factor(rng) ** rng.randrange(1, max_mult + 1)
    return f


def run_yun_suite(cases=CASES):
    """Yun round-trip: content * prod f_i^m_i == f (multiplied out by sympy),
    factors pairwise coprime and square-free, multiplicities strictly
    increasing."""
    import sympy  # the recomposition oracle; a test dependency

    x = sympy.Symbol("t")
    rng = random.Random(20260811)
    for _ in range(cases):
        f = _random_product(rng)
        content, factors = squarefree_decompose(f)
        recomposed = sympy.Poly(sympy.Rational(content), x, domain="QQ")
        for fi, m in factors:
            recomposed *= oracles.sympy_unipoly(fi, x) ** m
        assert recomposed == oracles.sympy_unipoly(f, x)
        mults = [m for _, m in factors]
        assert mults == sorted(set(mults))
        for i, (fi, _) in enumerate(factors):
            assert gcd_unipoly(fi, fi.derivative()).is_constant()
            for fj, _ in factors[i + 1:]:
                assert gcd_unipoly(fi, fj).is_constant()
    return cases


def run_decompose_suite(cases=CASES):
    """decompose_paa reconstruction: p * a^2 equals the input first
    coordinate exactly, and p is square-free including its sign."""
    rng = random.Random(20260812)
    for _ in range(cases):
        f = _random_product(rng)
        d = decompose_paa(f, t + rng.randint(-3, 3))
        assert d.p * d.a * d.a == f
        assert gcd_unipoly(d.p, d.p.derivative()).is_constant()
        assert d.a.is_constant() or d.a.lc() == 1
    return cases


def run_factor_h_suite(cases=CASES):
    """X^2 + Y^2 == p(Z) on the tubular base, over Q and extensions: the
    identity v * h == p(u v + alpha) for the chosen root."""
    rng = random.Random(20260813)
    done = 0
    while done < cases:
        p = _random_factor(rng)
        for _ in range(rng.randrange(0, 2)):
            p = p * _random_factor(rng)
        if not gcd_unipoly(p, p.derivative()).is_constant():
            continue  # the base needs p(alpha) = 0 with p square-free upstream
        s = tubular_base(p)
        assert (s.x * s.x + s.y * s.y - substitute(p, {"t": s.z})).is_zero()
        done += 1
    return cases


def run_substitute_suite(cases=CASES):
    """Substitution is a ring homomorphism: images of sums and products."""
    rng = random.Random(20260814)
    u = MultiPoly.variable("u", ("u", "v"))
    v = MultiPoly.variable("v", ("u", "v"))
    for _ in range(cases):
        f = UniPoly("t", {e: Fraction(rng.randint(-4, 4)) for e in range(rng.randrange(1, 4))})
        g = UniPoly("t", {e: Fraction(rng.randint(-4, 4)) for e in range(rng.randrange(1, 4))})
        image = u * rng.randint(-2, 2) + v * rng.randint(-2, 2) + u * v + rng.randint(-3, 3)
        bind = {"t": image}
        assert substitute(f * g, bind) == substitute(f, bind) * substitute(g, bind)
        assert substitute(f + g, bind) == substitute(f, bind) + substitute(g, bind)
    return cases


def run_sturm_suite(cases=CASES):
    """Sturm counts on products of distinct rational linear factors equal the
    number of constructed roots inside the queried interval."""
    rng = random.Random(20260815)
    for _ in range(cases):
        roots = set()
        while len(roots) < rng.randrange(1, 5):
            roots.add(Fraction(rng.randint(-12, 12), rng.randrange(1, 4)))
        f = UniPoly.constant("t", 1)
        for r in roots:
            f = f * (t - r)
        lo = Fraction(rng.randint(-15, 5), rng.randrange(1, 3))
        hi = lo + Fraction(rng.randrange(1, 20), rng.randrange(1, 3))
        interval = (
            None if rng.random() < 0.2 else lo,
            None if rng.random() < 0.2 else hi,
        )
        expected = sum(
            1
            for r in roots
            if (interval[0] is None or r > interval[0]) and (interval[1] is None or r < interval[1])
        )
        assert sturm_real_root_count(f, interval) == expected
    return cases


def run_gcd_suite(cases=CASES):
    """The monic gcd divides both arguments exactly."""
    rng = random.Random(20260816)
    for _ in range(cases):
        common = _random_factor(rng)
        f = common * _random_factor(rng)
        g = common * _random_factor(rng)
        gcd = gcd_unipoly(f, g)
        assert not gcd.is_constant()  # a common factor was planted
        for h in (f, g):
            q = exact_divide(h, gcd)
            assert q * gcd == h
    return cases


#: Extension steps the tower suite draws from: name -> (minimal polynomial,
#: constant term first, with ``"-i"`` for minus the generator i). Any draw
#: the suite allows is a field: "w" (w^2 = i) needs i below it, and w and s
#: never share a tower, since w = (1 + i) / sqrt(2) would split x^2 - 2.
TOWER_STEPS = {
    "i": (1, 0, 1),
    "s": (-2, 0, 1),
    "r": (-3, 0, 1),
    "c": (-3, Fraction(-1, 2), 0, 1),
    "w": ("-i", 0, 1),
}


def _step_options(names):
    return [
        n for n in TOWER_STEPS
        if n not in names and (n != "w" or "i" in names) and not {"s", "w"} <= {n, *names}
    ]


def _extend(rng, tower, names, minpolys):
    """One more random step, on both the package tower and the oracle's."""
    name = rng.choice(_step_options(names))
    k = len(names)
    coeffs, oracle = [], []
    for c in TOWER_STEPS[name]:
        if c == "-i":
            coeffs.append(-tower.gen("i"))
            oracle.append({tuple(int(n == "i") for n in names): Fraction(-1)})
        else:
            coeffs.append(c)
            oracle.append({(0,) * k: Fraction(c)} if c else {})
    return tower.extend(name, coeffs), names + [name], minpolys + [oracle]


def _random_terms(rng, minpolys, spread=1):
    """A random element dict; ``spread`` > 1 draws exponents up to that many
    times the degrees, so the package must reduce them."""
    degs = [len(m) - 1 for m in minpolys]
    out = {}
    for _ in range(rng.randrange(0, 2 * len(oracles.tower_basis(minpolys)) + 1)):
        key = tuple(rng.randrange(spread * d) for d in degs)
        out[key] = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    return out


def _canonical(e, minpolys):
    n = len(oracles.tower_basis(minpolys))
    return len(e.num) == n and e.den > 0 and gcd(e.den, *e.num) == 1


def run_tower_suite(cases=CASES):
    """FieldElement arithmetic over random towers of height 0-3 (relative
    step x^2 - i over Q(i) included) against the schoolbook reduction of
    oracles.py: products, sums, differences, negation, inverses, the
    reducing constructor and lifts to a taller tower; every result in
    canonical form (den > 0, gcd(den, *num) == 1), and equal values equal
    and hash-equal, over one tower and across towers."""
    rng = random.Random(20260817)
    for _ in range(cases):
        tower, names, minpolys = QQ, [], []
        for _ in range(rng.randrange(4)):
            tower, names, minpolys = _extend(rng, tower, names, minpolys)
        xt = oracles.tower_reduce(minpolys, _random_terms(rng, minpolys))
        yt = oracles.tower_reduce(minpolys, _random_terms(rng, minpolys))
        x, y = FieldElement(tower, xt), FieldElement(tower, yt)
        results = [
            (x * y, oracles.tower_mul(minpolys, xt, yt)),
            (x + y, oracles.tower_add(xt, yt)),
            (x - y, oracles.tower_add(xt, oracles.tower_neg(yt))),
            (-x, oracles.tower_neg(xt)),
        ]
        unreduced = _random_terms(rng, minpolys, spread=3)
        results.append((FieldElement(tower, unreduced), oracles.tower_reduce(minpolys, unreduced)))
        if xt:
            inv = oracles.tower_inverse(minpolys, xt)
            assert inv is not None  # every drawn tower is a field
            results.append((x.inverse(), inv))
            one = x * x.inverse()
            assert one == 1 and hash(one) == hash(1)
        taller, _, tall_polys = _extend(rng, tower, names, minpolys)
        zt = oracles.tower_reduce(tall_polys, _random_terms(rng, tall_polys))
        z, xl = FieldElement(taller, zt), x.lift_to(taller)
        results += [
            (xl, oracles.tower_lift(xt, 1)),
            (x * z, oracles.tower_mul(tall_polys, oracles.tower_lift(xt, 1), zt)),
            (z + x, oracles.tower_add(zt, oracles.tower_lift(xt, 1))),
        ]
        for got, want in results:
            assert got.terms == want
            assert _canonical(got, tall_polys if got.tower == taller else minpolys)
        assert x * y == y * x and hash(x * y) == hash(y * x)
        assert (x + y) - y == x and hash((x + y) - y) == hash(x)
        assert xl == x and x == xl and hash(xl) == hash(x)
        assert (xl == z) == (oracles.tower_lift(xt, 1) == zt)
        q = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        assert tower.rational(q) == taller.rational(q) == q
        assert len({tower.rational(q), taller.rational(q), q}) == 1
    return cases


ALL_SUITES = (
    ("yun-round-trip", run_yun_suite),
    ("decompose-reconstruction", run_decompose_suite),
    ("factor-h-identity", run_factor_h_suite),
    ("substitute-homomorphism", run_substitute_suite),
    ("sturm-constructed-roots", run_sturm_suite),
    ("gcd-divides-both", run_gcd_suite),
    ("tower-arithmetic", run_tower_suite),
)
