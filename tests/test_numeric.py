"""Certified evaluation: isolating intervals, refinement, embeddings."""

from fractions import Fraction

import pytest

from revolutio import QQ, InvalidInput, NoRealEmbedding, UniPoly, isolate_real_roots
from revolutio.numeric import default_real_embedding
from test_mesh import certify_one

t = UniPoly.variable("t")


def certify(value, tol=Fraction(1, 10 ** 12)):
    """``numeric_eval`` of one tower element, as a one-vertex row, against
    its tower's default embedding."""
    return certify_one(value, default_real_embedding(value.tower), tol)


def test_sqrt2_positive_embedding():
    tower = QQ.extend("th", [-2, 0, 1], embedding=(Fraction(1), Fraction(2)))
    got = certify(tower.gen("th"))
    assert abs(got - 1.4142135623730951) <= 2e-12


def test_rational_is_exact():
    assert certify(QQ.rational(Fraction(3, 4))) == 0.75


def test_polynomial_in_generator():
    tower = QQ.extend("th", [-2, 0, 1], embedding=(Fraction(1), Fraction(2)))
    th = tower.gen("th")
    got = certify(th * th + th)
    assert abs(got - (2 + 1.4142135623730951)) <= 2e-12


def test_no_real_embedding():
    tower = QQ.extend("i", [1, 0, 1])
    with pytest.raises(NoRealEmbedding):
        default_real_embedding(tower)


def test_default_embedding_picks_greatest_root():
    tower = QQ.extend("th", [-2, 0, 1])  # roots +-sqrt(2), no hint
    assert certify(tower.gen("th")) > 0


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
        certify(QQ.rational(1), tol=0)


def test_recorded_hint_is_validated():
    with pytest.raises(InvalidInput):
        tower = QQ.extend("th", [-2, 0, 1], embedding=(Fraction(5), Fraction(6)))
        default_real_embedding(tower)
