"""Extension-tower arithmetic: quotient rings, inversion, dynamic evaluation."""

from fractions import Fraction

import pytest

from revolutio import QQ, InvalidInput, TowerMismatch, ZeroDivisor
from revolutio.tower import join_towers


@pytest.fixture
def qi():
    return QQ.extend("i", [1, 0, 1])


def test_imaginary_unit_defining_relation(qi):
    i = qi.gen("i")
    assert i * i == -1
    assert i ** 3 == -i
    assert i ** 4 == 1


def test_field_inverse(qi):
    i = qi.gen("i")
    assert i.inverse() == -i
    e = qi.one() + i  # 1 + i
    assert e * e.inverse() == 1
    with pytest.raises(InvalidInput):
        qi.zero().inverse()


def test_nested_tower_arithmetic():
    t = QQ.extend("sqrt2", [-2, 0, 1]).extend("i", [1, 0, 1])
    r2 = t.gen("sqrt2")
    i = t.gen("i")
    assert r2 * r2 == 2
    assert (r2 + i) * (r2 - i) == 3
    assert (r2 * i) ** 2 == -2
    inv = (1 + r2).inverse()
    assert inv == r2 - 1
    assert (1 + r2) * inv == 1


def test_tower_prefix_join():
    t2 = QQ.extend("sqrt2", [-2, 0, 1])
    t2i = t2.extend("i", [1, 0, 1])
    assert join_towers(t2, t2i) == t2i
    other = QQ.extend("sqrt3", [-3, 0, 1])
    with pytest.raises(TowerMismatch):
        join_towers(t2, other)
    # mixed-tower arithmetic through lifting
    assert t2.gen("sqrt2") * t2i.gen("i") == t2i.gen("sqrt2") * t2i.gen("i")


def test_extend_validation():
    with pytest.raises(InvalidInput):
        QQ.extend("g", [1, 1])  # degree 1
    with pytest.raises(InvalidInput):
        QQ.extend("g", [0, 0, 2])  # not monic
    with pytest.raises(InvalidInput):
        QQ.extend("g", [0, 0, 1])  # t^2, not square-free
    t = QQ.extend("g", [-2, 0, 1])
    with pytest.raises(InvalidInput):
        t.extend("g", [1, 0, 1])  # duplicate name


def test_zero_divisor_detection_and_split():
    # theta^4 - 5 theta^2 + 6 = (theta^2 - 2)(theta^2 - 3): square-free but reducible
    t = QQ.extend("th", [6, 0, -5, 0, 1])
    th = t.gen("th")
    z = th * th - 2
    with pytest.raises(ZeroDivisor) as exc_info:
        z.inverse()
    exc = exc_info.value
    assert exc.step_name == "th"
    factor = [c.as_rational() for c in exc.factor]
    assert factor in ([Fraction(-2), Fraction(0), Fraction(1)], [Fraction(-3), Fraction(0), Fraction(1)])


@pytest.fixture
def qs():
    return QQ.extend("s", [-2, 0, 1])


def test_zero_divisor_over_a_two_step_tower(qs):
    # th^2 - 2 = (th - s)(th + s) over QQ[s]: square-free but reducible
    t = qs.extend("th", [-2, 0, 1])
    s, th = t.gen("s"), t.gen("th")
    with pytest.raises(ZeroDivisor) as exc_info:
        (th - s).inverse()
    exc = exc_info.value
    assert exc.step_name == "th"
    assert all(c.tower == qs for c in exc.factor)
    s_below = qs.gen("s")
    assert list(exc.factor) in ([-s_below, qs.one()], [s_below, qs.one()])


def test_extend_rejects_a_square_over_the_tower_below(qs):
    s = qs.gen("s")
    with pytest.raises(InvalidInput):
        qs.extend("th", [2, -2 * s, 1])  # (th - s)^2, since s^2 = 2


def test_inverse_over_a_two_step_tower(qs):
    t = qs.extend("th", [-3, 0, 1])
    s, th = t.gen("s"), t.gen("th")
    x = 3 * s + th + 1
    assert x * x.inverse() == 1


def test_reduction_with_cancellation():
    # rewriting theta^6 feeds mass into theta^4 and can cancel an existing
    # entry mid-pass; the reducer must tolerate vanished keys
    t = QQ.extend("g", [6, 0, -5, 0, 1])  # (g^2-2)(g^2-3)
    g = t.gen("g")
    e = (g ** 3 + g + 1) ** 4
    assert (e * e - (g ** 3 + g + 1) ** 8).is_zero()
    assert ((g ** 2 - 2) * (g ** 2 - 3)).is_zero()


def test_rational_detection(qi):
    i = qi.gen("i")
    e = (1 + i) * (1 - i)
    assert e.is_rational() and e.as_rational() == 2
    assert not i.is_rational()


def test_equality_and_repr(qi):
    i = qi.gen("i")
    assert i + 1 == 1 + i
    assert repr(qi.rational(Fraction(1, 2)) * i) == "1/2*i"
    assert repr(qi.zero()) == "0"
    # a coefficient 1 or -1 before a monomial is dropped, a negative term
    # after the first is a difference, a rational stands alone
    t = QQ.extend("r", [-2, 0, 1]).extend("i", [1, 0, 1])
    r, i = t.gen("r"), t.gen("i")
    cases = [
        (Fraction(-1, 2) * r * i + 3, "-1/2*r*i + 3"),
        (-r - 1, "-r - 1"),
        (-r * i + i, "-r*i + i"),
        (t.rational(-1), "-1"),
        (t.zero(), "0"),
    ]
    for e, text in cases:
        assert repr(e) == text


def test_hash_agrees_with_equality_across_towers(qi):
    # lift_to pads exponent tuples with zeros, so equal elements over a
    # tower and a taller one must hash alike
    taller = qi.extend("s", [-2, 0, 1])
    assert QQ.rational(3) == qi.rational(3) and hash(QQ.rational(3)) == hash(qi.rational(3))
    x = qi.gen("i") + Fraction(1, 2)
    assert x == x.lift_to(taller) and hash(x) == hash(x.lift_to(taller))
    assert len({QQ.rational(3), qi.rational(3), taller.rational(3), x, x.lift_to(taller)}) == 2


def test_hash_agrees_with_equality_against_numbers(qi):
    # a rational element equals its number, so it must hash like it
    assert QQ.rational(3) == 3 and len({QQ.rational(3), 3}) == 1
    assert len({qi.rational(Fraction(1, 2)), Fraction(1, 2)}) == 1
    assert len({qi.zero(), 0}) == 1
    assert len({qi.gen("i"), 3}) == 2
