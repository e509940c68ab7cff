"""JSON schema round-trips: identical canonical forms after decode(encode)."""

import json
import operator
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
    tower_to_json,
)


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
