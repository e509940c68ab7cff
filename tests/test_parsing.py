"""Expression parser: precedence, literals, errors with positions."""

import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from revolutio import InvalidInput, MultiPoly, UniPoly, parse_poly
from revolutio.parsing import ALLOWED_VARIABLES, MAX_NESTING, ParseError

X = MultiPoly.variable("x", ("x", "y", "z"))
Y = MultiPoly.variable("y", ("x", "y", "z"))
Z = MultiPoly.variable("z", ("x", "y", "z"))


def test_cubic_surface():
    p = parse_poly("x^2+y^2-z^3-1")
    assert p == X ** 2 + Y ** 2 - Z ** 3 - 1
    assert p.total_degree == 3


def test_whitespace_and_simple():
    t = MultiPoly.variable("t")
    assert parse_poly("t^2 + 1") == t ** 2 + 1


def test_negative_exponent_errors_with_position():
    with pytest.raises(ParseError) as exc:
        parse_poly("x^-1")
    assert exc.value.position == 2


def test_fraction_literals():
    t = MultiPoly.variable("t")
    assert parse_poly("3/4*t") == Fraction(3, 4) * t
    assert parse_poly("1/2 + t") == t + Fraction(1, 2)
    with pytest.raises(ParseError):
        parse_poly("t/2")  # '/' only joins integer literals
    with pytest.raises(ParseError):
        parse_poly("1/0")


def test_precedence_unary_minus_vs_power():
    t = MultiPoly.variable("t")
    assert parse_poly("-t^2") == -(t ** 2)
    assert parse_poly("(-t)^2") == t ** 2
    assert parse_poly("--t^3") == t ** 3
    assert parse_poly("-2*t") == -2 * t  # unary minus binds tighter than '*'


def test_no_implicit_multiplication():
    with pytest.raises(ParseError):
        parse_poly("2x")
    with pytest.raises(ParseError):
        parse_poly("x y")


def test_unknown_variable():
    with pytest.raises(ParseError) as exc:
        parse_poly("q + 1")
    assert "unknown variable" in str(exc.value)
    with pytest.raises(ParseError):
        parse_poly("xy + 1")  # parsed as one name, not a product


def test_parentheses_and_nesting():
    t = MultiPoly.variable("t")
    assert parse_poly("(t+1)^3") == (t + 1) ** 3
    assert parse_poly("-(t - 2)*(t + 2)") == -(t ** 2 - 4)


def test_product_binds_tighter_than_sum():
    x = MultiPoly.variable("x")
    assert parse_poly("1 + 2*x") == 1 + 2 * x
    assert parse_poly("2*x^2 - x") == 2 * x ** 2 - x
    assert parse_poly("1 - x - x") == 1 - 2 * x  # '-' groups to the left
    assert parse_poly("2^3*x") == 8 * x


def test_allowed_vars_restriction():
    with pytest.raises(InvalidInput):
        parse_poly("u + x", allowed_vars=("x", "y", "z"))


def test_unbalanced_paren_position():
    with pytest.raises(ParseError):
        parse_poly("(x + 1")


def test_evaluation_total():
    # every valid text evaluates to a canonical polynomial
    p = parse_poly("(x + y)^2 - (x^2 + 2*x*y + y^2)")
    assert p.is_zero()


@pytest.mark.parametrize(
    "text, message, position",
    [
        ("x + $", "unexpected character '$'", 4),
        ("(x + 1", "expected ')'", 6),
        ("x + 1)", "unexpected ')'", 5),
        ("x y", "unexpected 'y'", 2),
        ("x^-1", "exponent must be a non-negative integer literal", 2),
        ("x^y", "exponent must be a non-negative integer literal", 2),
        ("t/2", "unexpected '/'", 1),
        ("1 / t", "'/' is only allowed between integer literals", 2),
        ("1/0", "zero denominator", 2),
        ("q + 1", "unknown variable 'q'", 0),
        ("x + x_1", "unknown variable 'x_1'", 4),
        ("ｘ + 1", "unknown variable 'ｘ'", 0),
        ("x +", "unexpected 'end of input'", 3),
        ("", "unexpected 'end of input'", 0),
    ],
)
def test_parse_error_message_and_position(text, message, position):
    with pytest.raises(ParseError) as exc:
        parse_poly(text)
    assert exc.value.position == position
    assert str(exc.value) == f"{message} (at position {position})"


@pytest.mark.parametrize(
    "text, position",
    [("x^²", 2), ("²", 0), ("x + ٣", 4), ("1٣", 1)],
)
def test_only_ascii_digits_are_literals(text, position):
    # '²' once reached int() and raised ValueError; '٣' was read as 3
    with pytest.raises(ParseError) as exc:
        parse_poly(text)
    assert exc.value.position == position
    assert str(exc.value).startswith(f"unexpected character {text[position]!r}")


def test_five_variables_refused():
    with pytest.raises(InvalidInput) as exc:
        parse_poly("x + y + z + w + t")
    assert not isinstance(exc.value, ParseError)
    assert str(exc.value) == "at most 4 variables are supported"


@pytest.mark.parametrize(
    "text, message",
    [
        # every fault of the syntax wins over the variable count
        ("x + y + z + w + t + )", "unexpected ')' (at position 20)"),
        ("s + t + u + v + w + x^y", "exponent must be a non-negative integer literal (at position 22)"),
        # a bad character wins over an earlier unknown name
        ("q + $", "unexpected character '$' (at position 4)"),
        # otherwise the leftmost fault wins
        ("(x + q", "unknown variable 'q' (at position 5)"),
        ("1/0 + q", "zero denominator (at position 2)"),
    ],
)
def test_which_fault_wins(text, message):
    with pytest.raises(ParseError) as exc:
        parse_poly(text)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "open_, close",
    [("(", ")"), ("-", ""), ("-(", ")")],
    ids=["parentheses", "unary_minus", "both"],
)
def test_nesting_budget(open_, close):
    # each '(' and each unary '-' is one level; the level past the budget
    # is refused at its own position, before any arithmetic
    per = len(open_)
    levels = MAX_NESTING // per
    assert parse_poly(open_ * levels + "x" + close * levels) == (-1) ** (levels * open_.count("-")) * parse_poly("x")
    deeper = open_ * (levels + 1) + "x" + close * (levels + 1)
    with pytest.raises(ParseError) as exc:
        parse_poly(deeper)
    assert exc.value.position == MAX_NESTING
    assert str(exc.value) == f"nesting deeper than {MAX_NESTING} levels (at position {MAX_NESTING})"


def test_vars_keep_cancelled_names():
    assert parse_poly("x - x + y").vars == ("x", "y")
    assert parse_poly("0*z + t^0").vars == ("t", "z")


def _leaves(names):
    def literal(pair):
        num, den = pair
        if den is None:
            return str(num), MultiPoly.constant(num)
        return f"{num}/{den}", MultiPoly.constant(Fraction(num, den))

    return st.one_of(
        st.sampled_from(names).map(lambda v: (v, MultiPoly.variable(v))),
        st.tuples(st.integers(0, 30), st.none() | st.integers(1, 9)).map(literal),
    )


def _extend(children):
    def binary(args):
        (ta, pa), op, sp, (tb, pb) = args
        value = {"+": pa + pb, "-": pa - pb, "*": pa * pb}[op]
        return f"({ta}{sp}{op}{sp}{tb})", value

    def power(args):
        (ta, pa), k = args
        return f"({ta})^{k}", pa ** k

    return st.one_of(
        st.tuples(children, st.sampled_from("+-*"), st.sampled_from(["", " "]), children).map(binary),
        st.tuples(children, st.integers(0, 3)).map(power),
        children.map(lambda c: (f"-{c[0]}", -c[1])),
    )


_EXPRESSIONS = st.lists(st.sampled_from(ALLOWED_VARIABLES), min_size=1, max_size=4, unique=True).flatmap(
    lambda names: st.recursive(_leaves(names), _extend, max_leaves=8)
)


_T, _X, _Y = (MultiPoly.variable(v) for v in "txy")


@settings(derandomize=True, max_examples=100, deadline=None)
@given(pair=_EXPRESSIONS)
@example(pair=("(x - x) + y", _Y))
# a product and a power of multi-term operands run on the packed kernel
@example(pair=("(t+1)^40*(t-1)^40", (_T + 1) ** 40 * (_T - 1) ** 40))
@example(pair=("(1/3*x+2/7*y-5)^9", (Fraction(1, 3) * _X + Fraction(2, 7) * _Y - 5) ** 9))
@example(pair=("(x+y)*(x-y)-x^2+y^2", MultiPoly.zero()))
@example(pair=("(x-x)^3", MultiPoly.zero()))
@example(pair=("(x-x)*(x+y)", MultiPoly.zero()))
@example(pair=("0^0", MultiPoly.constant(1)))
def test_parse_agrees_with_operators(pair):
    text, expected = pair
    got = parse_poly(text)
    assert got == expected
    assert got.vars == tuple(sorted(set(re.findall("[a-z]", text))))
    assert (type(got) is UniPoly) == (len(got.vars) == 1)


def test_syntax_is_checked_before_arithmetic():
    # expanding (t+1)^100000000 would not end; the syntax pass refuses the
    # dangling '+' first. A child process, so that a regression times out
    code = (
        "from revolutio.parsing import ParseError, parse_poly\n"
        "try:\n    parse_poly('(t+1)^100000000 +')\n"
        "except ParseError as exc:\n    print(exc)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=10, env=env)
    assert proc.stdout == "unexpected 'end of input' (at position 17)\n"
