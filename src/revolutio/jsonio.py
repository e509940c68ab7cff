"""JSON encoding of towers, polynomials, and parametrizations (schema revolutio/1).

Rationals are decimal strings ("-3/4") so arbitrary precision survives the
trip. A field element is a map from comma-joined generator exponents to
rationals ("" for the rational tower, "1,0" for g1^1). Polynomials carry
their variable list and a term array; parametrizations embed their tower
as an ordered list of steps (name, dense minimal polynomial over the
prefix tower, optional real-root isolating interval). Decoding re-reduces
nothing: encoded data is already canonical, and round-tripping reproduces
structurally identical values.
"""

from __future__ import annotations

from fractions import Fraction

from .complexparam import SurfaceParam
from .errors import InvalidInput
from .poly import MultiPoly
from .tower import QQ, ExtensionTower, FieldElement

SCHEMA = "revolutio/1"


def str_to_fraction(s: str) -> Fraction:
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidInput(f"bad rational literal {s!r}") from exc


def field_to_json(e: FieldElement) -> dict:
    return {
        ",".join(str(x) for x in key): str(q)
        for key, q in sorted(e.terms.items())
    }


def json_to_field(obj: dict, tower: ExtensionTower) -> FieldElement:
    terms = {}
    for key, val in obj.items():
        exps = tuple(int(x) for x in key.split(",")) if key else ()
        if len(exps) != tower.height:
            raise InvalidInput("field element exponent arity does not match the tower")
        terms[exps] = str_to_fraction(val)
    return FieldElement(tower, terms)


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
        coeffs = [json_to_field(c, t) for c in step["minpoly"]]
        emb = step.get("embedding")
        if emb is not None:
            emb = (str_to_fraction(emb[0]), str_to_fraction(emb[1]))
        t = t.extend(step["name"], coeffs, embedding=emb)
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
        key = tuple(int(e) for e in item["exponents"])
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
