"""JSON schema round-trips: identical canonical forms after decode(encode)."""

import json
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revolutio import QQ, InvalidInput, MultiPoly, UniPoly, cubic_example, sphere_witness
from revolutio.jsonio import (
    dumps,
    field_to_json,
    json_to_field,
    json_to_param,
    json_to_poly,
    json_to_tower,
    param_to_json,
    poly_to_json,
    str_to_fraction,
    tower_to_json,
)
from revolutio.tower import FieldElement


def test_field_round_trip():
    tower = QQ.extend("i", [1, 0, 1]).extend("sqrt2", [-2, 0, 1], embedding=(Fraction(1), Fraction(2)))
    e = tower.gen("i") * Fraction(3, 4) + tower.gen("sqrt2") - 2
    assert json_to_field(field_to_json(e), tower) == e


def test_tower_round_trip_with_embedding():
    tower = QQ.extend("sqrt2", [-2, 0, 1], embedding=(Fraction(1), Fraction(2))).extend("i", [1, 0, 1])
    back = json_to_tower(tower_to_json(tower))
    assert back == tower
    assert back.steps[0].embedding == (1, 2)


def test_unreduced_exponent_keys_refused():
    # encoded elements are reduced: a key "2" over sqrt(2) is no encoding,
    # in a coefficient or in a later step's minimal polynomial
    tower = QQ.extend("sqrt2", [-2, 0, 1])
    assert json_to_field({"1": "3"}, tower) == 3 * tower.gen("sqrt2")
    with pytest.raises(InvalidInput):
        json_to_field({"2": "1"}, tower)
    obj = tower_to_json(tower.extend("cbrt3", [-3, 0, 0, 1]))
    two = json_to_tower(obj)
    assert json_to_field({"0,2": "1"}, two) == two.gen("cbrt3") ** 2
    obj[1]["minpoly"][0] = {"2": "-3"}
    with pytest.raises(InvalidInput):
        json_to_tower(obj)


def test_poly_round_trip_rational():
    t = UniPoly.variable("t")
    p = Fraction(7, 3) * t ** 5 - t + Fraction(1, 2)
    obj = poly_to_json(p)
    assert json_to_poly(obj) == p


def test_poly_round_trip_tower_coefficients():
    tower = QQ.extend("i", [1, 0, 1])
    i = tower.gen("i")
    u = MultiPoly.variable("u", ("u", "v"), tower)
    v = MultiPoly.variable("v", ("u", "v"), tower)
    p = i * u * v + (1 - i) * v ** 2 - 3
    assert json_to_poly(poly_to_json(p), tower) == p


def test_param_round_trip_sphere():
    s = sphere_witness()
    back = json_to_param(param_to_json(s))
    assert back.components == s.components
    assert back.tower == s.tower
    assert back.properness == s.properness
    assert back.provenance == s.provenance


def test_param_round_trip_cubic():
    s = cubic_example()
    back = json_to_param(param_to_json(s))
    assert back.components == s.components
    assert back.tower == s.tower


def test_json_is_pure_data():
    s = cubic_example()
    text = json.dumps(param_to_json(s))
    assert json_to_param(json.loads(text)).components == s.components


# quotes, backslashes, control characters, non-ASCII, a lone surrogate and
# astral text
_CHARS = '"\\/\x00\x1f\x7f\n\t\u00e9\u2028\ud800\U0001f600ab '
_TEXT = st.text(st.sampled_from(_CHARS), max_size=6) | st.text(max_size=6)
_BIG = st.integers(2 ** 64, 2 ** 200)
_SCALARS = st.none() | st.booleans() | st.integers() | _BIG | _BIG.map(operator.neg) | _TEXT
_REPORTS = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=20,
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(value=_REPORTS)
def test_dumps_is_json_dumps_indent_2(value):
    assert dumps(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [1.5, (1, 2), {1}, {1: "a"}, {"a": [{"b": 0.0}]}])
def test_dumps_refuses_what_reports_do_not_hold(value):
    with pytest.raises(TypeError):
        dumps(value)


# -- field elements read straight to numerators, against str_to_fraction ------

TWO_GENERATORS = QQ.extend("sqrt2", [-2, 0, 1]).extend("cbrt3", [-3, 0, 0, 1])
KEYS = [f"{a},{b}" for a in range(2) for b in range(3)]


def random_literal(rng):
    """A rational literal: an optional minus, digits with leading zeros now
    and then, an optional nonzero denominator; or one of the spellings
    that only ``Fraction`` reads."""
    if rng.random() < 0.1:
        return rng.choice(["+3", " 3", "3 ", "1.5", "-0.25", "1_000", "1e3", "-0", "0/7", "007/010"])
    digits = "0" * rng.randint(0, 2) + str(rng.randint(0, 10 ** rng.randint(1, 60)))
    literal = rng.choice(["", "-"]) + digits
    if rng.random() < 0.6:
        literal += "/" + "0" * rng.randint(0, 1) + str(rng.randint(1, 10 ** rng.randint(1, 30)))
    return literal


def test_field_literals_decode_as_str_to_fraction_reads_them():
    # the same value, or the same refusal: before Python 3.11, Fraction()
    # and so str_to_fraction refuse "1_000"
    rng = random.Random(20261103)
    for _ in range(400):
        obj = {key: random_literal(rng) for key in rng.sample(KEYS, rng.randint(1, len(KEYS)))}
        try:
            terms = {tuple(map(int, key.split(","))): str_to_fraction(val) for key, val in obj.items()}
        except InvalidInput as exc:
            with pytest.raises(InvalidInput) as got:
                json_to_field(obj, TWO_GENERATORS)
            assert str(got.value) == str(exc)
        else:
            want = FieldElement(TWO_GENERATORS, terms)
            got = json_to_field(obj, TWO_GENERATORS)
            assert (got.num, got.den) == (want.num, want.den)


@pytest.mark.parametrize(
    "value", ["1/0", "1/00", "1.5", "+3", " 3", "3/-4", "٣", "0x1", "-", "", "1/2/3", "1" * 5000,
              True, 1.5, 3, None],
)
def test_field_literal_outcomes_are_those_of_str_to_fraction(value):
    # a refusal keeps its message; what Fraction reads ("1.5", "+3", " 3")
    # is read as before
    obj = {"1,0": "1/2", "0,2": value}
    try:
        q = str_to_fraction(value)
    except InvalidInput as exc:
        with pytest.raises(InvalidInput) as got:
            json_to_field(obj, TWO_GENERATORS)
        assert str(got.value) == str(exc)
    else:
        want = FieldElement(TWO_GENERATORS, {(1, 0): Fraction(1, 2), (0, 2): q})
        assert json_to_field(obj, TWO_GENERATORS) == want


def test_field_decoding_keeps_its_checks_in_order():
    # per member: the key's form, its arity, reducedness, repeats, then the value
    cases = [
        ({"1,0": "1", "x": "1/0"}, "bad exponent key 'x'"),
        ({"1,0": "1/0", "x": "1"}, "bad rational literal '1/0'"),
        ({"1": "1"}, "arity"),
        ({"2,0": "1"}, "is not reduced"),
        ({"1,0": "1", "01,0": "1/0"}, "repeats"),
        ({"1,0": "1", "01,00": "2"}, "repeats"),
    ]
    for obj, message in cases:
        with pytest.raises(InvalidInput, match=message):
            json_to_field(obj, TWO_GENERATORS)
