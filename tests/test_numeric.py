"""Certified evaluation: isolating intervals, refinement, embeddings."""

import math
from fractions import Fraction

import pytest

from revolutio import QQ, InvalidInput, NoRealEmbedding, UniPoly, isolate_real_roots, numeric_eval
from revolutio.numeric import default_real_embedding

t = UniPoly.variable("t")


def test_sqrt2_positive_embedding():
    tower = QQ.extend("th", [-2, 0, 1], embedding=(Fraction(1), Fraction(2)))
    got = numeric_eval(tower.gen("th"), tol=Fraction(1, 10 ** 12))
    assert abs(got.value - 1.4142135623730951) <= 2e-12
    assert got.halfwidth <= 1e-12


def test_rational_is_exact():
    got = numeric_eval(Fraction(3, 4))
    assert got.value == 0.75 and got.halfwidth == 0.0


def test_halfwidth_covers_the_float_rounding():
    # 1/3 is no float: halfwidth is the smallest float at least |value - 1/3|
    third = numeric_eval(Fraction(1, 3))
    error = abs(Fraction(third.value) - Fraction(1, 3))
    assert error > 0
    assert Fraction(third.halfwidth) >= error
    assert Fraction(math.nextafter(third.halfwidth, 0)) < error
    # 3*sqrt(2) + 1/7 at a tolerance far below the float's rounding error;
    # the truth is bracketed exactly, to 1e-50, by integer square roots
    tower = QQ.extend("th", [-2, 0, 1], embedding=(Fraction(1), Fraction(2)))
    got = numeric_eval(3 * tower.gen("th") + Fraction(1, 7), tol=Fraction(1, 10 ** 30))
    scale = 10 ** 50
    root = math.isqrt(18 * scale ** 2)  # floor(3*sqrt(2)*scale)
    lo, hi = Fraction(root, scale) + Fraction(1, 7), Fraction(root + 1, scale) + Fraction(1, 7)
    distance = max(abs(Fraction(got.value) - lo), abs(Fraction(got.value) - hi))
    assert distance <= Fraction(got.halfwidth)


def test_polynomial_in_generator():
    tower = QQ.extend("th", [-2, 0, 1], embedding=(Fraction(1), Fraction(2)))
    th = tower.gen("th")
    got = numeric_eval(th * th + th, tol=Fraction(1, 10 ** 12))
    assert abs(got.value - (2 + 1.4142135623730951)) <= 2e-12


def test_no_real_embedding():
    tower = QQ.extend("i", [1, 0, 1])
    with pytest.raises(NoRealEmbedding):
        numeric_eval(tower.gen("i"))


def test_default_embedding_picks_greatest_root():
    tower = QQ.extend("th", [-2, 0, 1])  # roots +-sqrt(2), no hint
    got = numeric_eval(tower.gen("th"))
    assert got.value > 0


def test_isolation_counts_and_separates():
    f = (t - 1) * (t - 2) * (t + 5)
    ivs = isolate_real_roots(f)
    assert len(ivs) == 3
    roots = [Fraction(-5), Fraction(1), Fraction(2)]
    for (lo, hi), r in zip(ivs, roots):
        assert lo <= r <= hi

    assert isolate_real_roots(t ** 2 + 1) == []
    ivs = isolate_real_roots(t ** 3 - t)
    assert len(ivs) == 3
    assert any(lo == hi == 0 for lo, hi in ivs)  # exact rational root at 0


def test_isolation_against_sympy():
    # non-monic, irrational roots; a root at 0 is the first bisection midpoint,
    # so the exact (mid, mid) branch is taken
    import random

    from test_poly import random_squarefree_real, sympy_open_count

    rng = random.Random(2027)
    exact = 0
    for _ in range(60):
        f, poly, _ = random_squarefree_real(rng)
        ivs = isolate_real_roots(f)
        assert len(ivs) == poly.count_roots()
        for (lo, hi), (next_lo, _) in zip(ivs, ivs[1:]):
            assert hi <= next_lo
        for lo, hi in ivs:
            if lo == hi:
                exact += 1
                assert f.eval_at(lo).is_zero()
            else:
                assert sympy_open_count(poly, lo, hi) == 1
    assert exact > 5


def test_tolerance_positive():
    with pytest.raises(InvalidInput):
        numeric_eval(Fraction(1), tol=0)


def test_recorded_hint_is_validated():
    with pytest.raises(InvalidInput):
        tower = QQ.extend("th", [-2, 0, 1], embedding=(Fraction(5), Fraction(6)))
        default_real_embedding(tower)
