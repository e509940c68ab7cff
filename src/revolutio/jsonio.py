"""JSON encoding of towers, polynomials, and parametrizations (schema revolutio/1).

Rationals are written as strings ("-3/4") so arbitrary precision survives
the trip; decoding reads any ASCII string that ``Fraction()`` reads, so
"1.5", "+3", " 3" and "1e3" are read too, and "1_000" from Python 3.11
on, where ``Fraction()`` reads underscores. A field element is a
map from comma-joined generator exponents to rationals ("" for the
rational tower, "1,0" for g1^1). Polynomials carry their variable list and
a term array; parametrizations embed their tower as an ordered list of
steps (name, dense minimal polynomial over the prefix tower, optional
real-root isolating interval). Encoded data is canonical, so
round-tripping reproduces structurally identical values. Decoding checks
types and shapes: a field element is a JSON object whose keys are
comma-separated runs of ASCII digits, one per generator, and whose values
are rational strings as above (ASCII, read by ``Fraction()``); an exponent
is a non-negative JSON integer; a step's name is a string and its
embedding null or two rational strings. Anything else is InvalidInput.
Encoded field elements are reduced, so each generator exponent in a key
must be below that generator's degree (a key "5" over sqrt(2) is
InvalidInput, as are the minimal polynomials' coefficients over the steps
below), and each tower step is checked as ``ExtensionTower.extend`` checks
it. A field element with two keys for the same exponents, a polynomial
with a repeated ``exponents`` and a report object with a repeated member
name (``unique_members``, the ``object_pairs_hook`` of ``json.load``) are
InvalidInput too, where a plain decode would keep the last one.

A field element is decoded straight to the numerator tuple over one
denominator that ``FieldElement`` keeps: a value ``-?digits(/digits)?``
with a nonzero denominator is read by ``int`` alone, anything else by
``str_to_fraction``, so what ``Fraction`` reads is read the same way and
every refusal keeps its message.

``dumps`` writes a report as ``json.dumps(payload, indent=2)`` does, byte
for byte, in one recursive pass. With an indent CPython's ``json`` runs
its pure-Python encoder; here only the string escape runs in C.
"""

from __future__ import annotations

import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from math import gcd
from operator import ge, mul

from .complexparam import SurfaceParam
from .errors import InvalidInput
from .poly import MultiPoly
from .tower import QQ, ExtensionTower, FieldElement, _power_basis

SCHEMA = "revolutio/1"

# int() would also read a sign, '_', spaces and any Unicode digit
_EXPONENT_KEY = re.compile(r"[0-9]+(,[0-9]+)*")
_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def dumps(payload) -> str:
    """``json.dumps(payload, indent=2)`` for what reports hold: dicts with
    str keys, lists, str, int, bool and None. Anything else is a TypeError."""
    out: list = []
    _write(payload, out, "\n")
    return "".join(out)


def _write(v, out: list, newline: str) -> None:
    t = type(v)
    if t is str:
        out.append(_quote(v))
    elif t is dict:
        if not v:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in v.items():
            if type(key) is not str:
                raise TypeError(f"report keys are str, got {type(key).__name__}")
            out.append(sep + _quote(key) + ": ")
            _write(item, out, inner)
            sep = "," + inner
        out.append(newline + "}")
    elif t is list:
        if not v:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in v:
            out.append(sep)
            _write(item, out, inner)
            sep = "," + inner
        out.append(newline + "]")
    elif v is None:
        out.append("null")
    elif t is bool:
        out.append("true" if v else "false")
    elif t is int:
        out.append(repr(v))
    else:
        raise TypeError(f"a report holds no {t.__name__}")


def unique_members(pairs: list) -> dict:
    """The ``object_pairs_hook`` that refuses a repeated member name."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        names = [k for k, _ in pairs]
        name = next(k for k in names if names.count(k) > 1)
        raise InvalidInput(f"the report repeats the member {name!r}")
    return obj


def str_to_fraction(s: str) -> Fraction:
    # a rational is ASCII text: Fraction() also reads any Unicode digit,
    # true as 1 and a JSON float as its binary fraction
    if not isinstance(s, str) or not s.isascii():
        raise InvalidInput(f"bad rational literal {s!r}")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidInput(f"bad rational literal {s!r}") from exc


def field_to_json(e: FieldElement) -> dict:
    return {
        ",".join(str(x) for x in key): str(q)
        for key, q in sorted(e.terms.items())
    }


def _ratio(s) -> tuple:
    """``str_to_fraction(s)`` as ``(numerator, positive denominator)``: a
    literal ``-?digits(/digits)?`` is read by ``int`` alone, as ``Fraction``
    reads it, anything else by ``str_to_fraction``."""
    m = _RATIONAL.fullmatch(s) if type(s) is str else None
    if m:
        try:
            p, q = int(m[1]), int(m[2] or 1)
        except ValueError:  # beyond int()'s digit limit, as in Fraction()
            pass
        else:
            if q:
                return p, q
    return str_to_fraction(s).as_integer_ratio()


def json_to_field(obj: dict, tower: ExtensionTower) -> FieldElement:
    if not isinstance(obj, dict):
        raise InvalidInput(f"a field element is a JSON object, got {obj!r}")
    radix = _power_basis(tower._degs)[1]
    num, den, seen = [0] * tower._size, 1, set()
    for key, val in obj.items():
        if key and not _EXPONENT_KEY.fullmatch(key):
            raise InvalidInput(f"bad exponent key {key!r}")
        exps = tuple(map(int, key.split(","))) if key else ()
        if len(exps) != tower.height:
            raise InvalidInput("field element exponent arity does not match the tower")
        # encoded elements are reduced; reducing a huge exponent costs a pass per degree
        if any(map(ge, exps, tower._degs)):
            raise InvalidInput(f"exponent key {key!r} is not reduced: generator degrees {list(tower._degs)}")
        if exps in seen:
            raise InvalidInput(f"exponent key {key!r} repeats an earlier key's exponents")
        seen.add(exps)
        p, q = _ratio(val)
        if den % q:
            scale = q // gcd(den, q)
            num, den = [n * scale for n in num], den * scale
        num[sum(map(mul, exps, radix))] = p * (den // q)
    return FieldElement.from_ints(tower, num, den)


def tower_to_json(t: ExtensionTower) -> list:
    out = []
    for step in t.steps:
        out.append(
            {
                "name": step.name,
                "minpoly": [field_to_json(c) for c in step.minpoly],
                "embedding": (
                    [str(step.embedding[0]), str(step.embedding[1])]
                    if step.embedding is not None
                    else None
                ),
            }
        )
    return out


def json_to_tower(obj: list) -> ExtensionTower:
    t = QQ
    for step in obj:
        name = step["name"]
        if not isinstance(name, str):
            raise InvalidInput(f"a generator name is a string, got {name!r}")
        coeffs = [json_to_field(c, t) for c in step["minpoly"]]
        emb = step.get("embedding")
        if emb is not None:
            if not isinstance(emb, list) or len(emb) != 2:
                raise InvalidInput(f"an embedding is two rationals, got {emb!r}")
            emb = (str_to_fraction(emb[0]), str_to_fraction(emb[1]))
        t = t.extend(name, coeffs, embedding=emb)
    return t


def poly_to_json(p: MultiPoly) -> dict:
    terms = [
        {"exponents": list(key), "coefficient": field_to_json(c)}
        for key, c in sorted(p.terms.items())
    ]
    return {"variables": list(p.vars), "terms": terms, "pretty": repr(p)}


def json_to_poly(obj: dict, tower: ExtensionTower = QQ) -> MultiPoly:
    vars_ = tuple(obj["variables"])
    terms = {}
    for item in obj["terms"]:
        key = tuple(item["exponents"])
        # only JSON integers: int() would truncate 1.5 and read true as 1
        if not all(type(e) is int for e in key):
            raise InvalidInput(f"exponents must be JSON integers, got {item['exponents']!r}")
        if key in terms:
            raise InvalidInput(f"polynomial repeats the exponents {item['exponents']!r}")
        terms[key] = json_to_field(item["coefficient"], tower)
    return MultiPoly(vars_, terms, tower)


def param_to_json(s: SurfaceParam) -> dict:
    return {
        "tower": tower_to_json(s.tower),
        "components": [poly_to_json(c) for c in s.components],
        "provenance": list(s.provenance),
        "properness": s.properness,
    }


def json_to_param(obj: dict) -> SurfaceParam:
    tower = json_to_tower(obj["tower"])
    comps = [json_to_poly(c, tower) for c in obj["components"]]
    return SurfaceParam.make(
        comps,
        provenance=tuple(obj.get("provenance", ())),
        properness=obj.get("properness", "unknown"),
    )
