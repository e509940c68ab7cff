"""Command-line surface: analyze, quadric, mesh, verify-catalog, p2.

Exit codes: 0 success, 2 bad user input, 3 mathematical refusal (the
surface provably has no parametrization of the requested kind, or the
request is out of scope), 4 internal invariant violation. All output is
JSON on stdout; verify-catalog additionally prints one PASS/FAIL line per
entry on stderr. Every computation is deterministic.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .catalog import catalog_results
from .complexparam import SurfaceParam, sor_complex_param
from .errors import (
    DegenerateProfile,
    InvalidInput,
    NoRealEmbedding,
    NotAGraph,
    NotEquivalent,
    NotPolynomial,
    NotPolynomialCurve,
    NotSurfaceOfRevolution,
    RevolutioError,
    Unsupported,
)
from .jsonio import SCHEMA, dumps, json_to_param, param_to_json, poly_to_json, unique_members
from .mesh import export_obj
from .parsing import parse_poly
from .poly import UniPoly
from .profile import (
    affine_equivalent,
    decompose_paa,
    implicit_to_p2,
    p2_implicit,
    p2_param_from_graph,
    polynomialize_rational,
    surface_implicit,
    tubularize,
)
from .quadrics import classify_quadric, quadric_report, quadric_verdict
from .realparam import conjecture_predicate, real_verdict
from .verify import fiber_count_first_valid, verify_on_surface

XYZ = ("x", "y", "z")

_REFUSAL_CODES = (
    (NotSurfaceOfRevolution, "NOT_SOR"),
    (NotAGraph, "NOT_A_GRAPH"),
    (NotPolynomialCurve, "NOT_POLYNOMIAL_CURVE"),
    (NotPolynomial, "CYLINDER"),
    (DegenerateProfile, "DEGENERATE_PROFILE"),
    (Unsupported, "UNSUPPORTED"),
    (NoRealEmbedding, "NO_REAL_EMBEDDING"),
)

_STATUS_CODES = {
    "real-proper": "REAL_PROPER",
    "real-nonproper-double-cover": "REAL_NONPROPER_DOUBLE_COVER",
    "no-real-parametrization": "NO_REAL_PARAMETRIZATION",
    "empty-real-locus": "EMPTY_REAL_LOCUS",
    "unresolved": "UNRESOLVED",
}


def _emit(payload: dict) -> None:
    payload = {"schema": SCHEMA, **payload}
    print(dumps(payload))


def _to_unipoly(text: str, var: str) -> UniPoly:
    poly = parse_poly(text, allowed_vars=(var,))
    return poly.to_unipoly(var)


def _fraction_arg(text: str) -> Fraction:
    # Fraction() reads any Unicode digit; a number here is ASCII
    if not text.isascii():
        raise InvalidInput(f"bad number {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidInput(f"bad number {text!r}") from exc


#: The verification block of every emitted witness: ``verify_on_surface``
#: has passed it, or the command ends in INTERNAL before anything is written.
VERIFIED = {"on_surface": True, "jacobian_rank": 2}


def _decomposition_block(d) -> dict:
    return {"p": poly_to_json(d.p), "a": poly_to_json(d.a), "b": poly_to_json(d.b), "delta": d.delta}


def cmd_analyze(args) -> int:
    F = None
    if args.implicit is not None:
        F = parse_poly(args.implicit, allowed_vars=XYZ)
        G = implicit_to_p2(F)
        x, b = p2_param_from_graph(G)
        echo = {"implicit": args.implicit}
    elif args.p2 is not None:
        x = _to_unipoly(args.p2[0], "t")
        b = _to_unipoly(args.p2[1], "t")
        echo = {"p2": list(args.p2)}
    else:
        xn, xd, zn, zd = (_to_unipoly(s, "s") for s in args.p2_rational)
        x, b = polynomialize_rational(xn, xd, zn, zd)
        echo = {"p2_rational": list(args.p2_rational)}
    d = decompose_paa(x, b)
    # before p2_implicit: the witness refuses a cylinder (x(t) constant),
    # which the resultant there cannot take
    witness = sor_complex_param(d)
    if F is None:
        G = p2_implicit(x, b)
        F = surface_implicit(G)
    # F = G(x^2 + y^2, z): proved by implicit_to_p2, or built from G
    verify_on_surface(witness, G)
    rv = real_verdict(d)
    real_block = {
        "status": rv.status,
        "code": _STATUS_CODES[rv.status],
        "reason": rv.reason,
        "witness": None,
        "verification": None,
        "fiber_count": None,
        "fiber_sample": None,
    }
    if rv.witness is not None:
        # a real witness that is the complex one is not checked twice
        if rv.witness.components != witness.components:
            verify_on_surface(rv.witness, G)
        real_block["witness"] = param_to_json(rv.witness)
        real_block["verification"] = VERIFIED
        if rv.status == "real-nonproper-double-cover":
            n, sample = fiber_count_first_valid(rv.witness)
            real_block["fiber_count"] = n
            real_block["fiber_sample"] = [str(sample[0]), str(sample[1])] if sample else None
    cp = conjecture_predicate(d)
    quadric_block = None
    if F.total_degree == 2:
        cls = classify_quadric(F)
        over_c, over_r = quadric_verdict(cls)
        quadric_block = {"class": cls, "polynomial_over_C": over_c, "polynomial_over_R": over_r}
    _emit(
        {
            "input": echo,
            "p2_decomposition": _decomposition_block(d),
            "tubularization": {
                "p": poly_to_json(d.p.rename("z")),
                "implicit": poly_to_json(tubularize(d)),
            },
            "implicit_surface": poly_to_json(F),
            "complex_parametrization": {
                **param_to_json(witness),
                "verification": VERIFIED,
            },
            "real_verdict": real_block,
            "conjecture_predicate": {
                "status": cp.status,
                "satisfied": cp.satisfied,
                "real_root_count": cp.real_root_count,
                "two_dimensional": cp.two_dimensional,
            },
            "quadric": quadric_block,
        }
    )
    return 0


def cmd_quadric(args) -> int:
    F = parse_poly(args.implicit, allowed_vars=XYZ)
    cls, over_c, over_r, witness = quadric_report(F)
    block = {
        "input": {"implicit": args.implicit},
        "class": cls,
        "polynomial_over_C": over_c,
        "polynomial_over_R": over_r,
        "witness": None,
        "verification": None,
    }
    if witness is not None:
        verify_on_surface(witness, F)
        block["witness"] = param_to_json(witness)
        block["verification"] = VERIFIED
    _emit(block)
    return 0


def cmd_mesh(args) -> int:
    if args.report is not None:
        try:
            with open(args.report) as fh:
                doc = json.load(fh, object_pairs_hook=unique_members)
        except OSError as exc:
            raise InvalidInput(f"cannot read report: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise InvalidInput(f"report is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise InvalidInput("the report is not a JSON object")
        if args.witness == "complex":
            obj = doc.get("complex_parametrization")
        elif args.witness == "real":
            real = doc.get("real_verdict")
            obj = real.get("witness") if isinstance(real, dict) else None
        else:
            obj = doc.get("witness")
        if not obj:
            raise InvalidInput(f"the report carries no {args.witness} witness")
        try:
            s = json_to_param(obj)
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInput(f"malformed parametrization object: {exc}") from exc
    else:
        comps = [parse_poly(text, allowed_vars=("u", "v")) for text in args.param]
        s = SurfaceParam.make(comps, provenance=("inline mesh input",))
    tol = _fraction_arg(args.tol)
    stats = export_obj(
        s,
        args.grid,
        (_fraction_arg(args.u_min), _fraction_arg(args.u_max)),
        (_fraction_arg(args.v_min), _fraction_arg(args.v_max)),
        args.out,
        tol=tol,
    )
    _emit({"mesh": {**stats, "path": args.out, "tolerance": str(tol)}})
    return 0


def cmd_verify_catalog(args) -> int:
    results = catalog_results()
    for r in results:
        print(r.line(), file=sys.stderr)
    _emit(
        {
            "catalog": [
                {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
            ],
            "all_passed": all(r.passed for r in results),
        }
    )
    return 0 if all(r.passed for r in results) else 4


def cmd_p2_decompose(args) -> int:
    d = decompose_paa(_to_unipoly(args.x, "t"), _to_unipoly(args.z, "t"))
    _emit({"p2_decomposition": _decomposition_block(d)})
    return 0


def cmd_p2_polynomialize(args) -> int:
    xn, xd, zn, zd = (_to_unipoly(s, "s") for s in (args.x_num, args.x_den, args.z_num, args.z_den))
    x, z = polynomialize_rational(xn, xd, zn, zd)
    _emit({"polynomial_parametrization": {"x": poly_to_json(x), "z": poly_to_json(z)}})
    return 0


def cmd_p2_equiv(args) -> int:
    f = (_to_unipoly(args.first[0], "t"), _to_unipoly(args.first[1], "t"))
    g = (_to_unipoly(args.second[0], "s"), _to_unipoly(args.second[1], "s"))
    try:
        scale, shift = affine_equivalent(f, g)
    except NotEquivalent as exc:
        _emit({"equivalent": False, "reason": str(exc)})
        return 0
    _emit({"equivalent": True, "scale": str(scale), "shift": str(shift)})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="revolutio",
        description=(
            "Decide whether a surface of revolution about the z-axis admits a "
            "polynomial parametrization, construct one when it does, and verify it exactly."
        ),
        epilog="All computation is deterministic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full pipeline on an implicit surface or a profile-square parametrization")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--implicit", help="implicit equation in x, y, z (e.g. \"x^2+y^2-z\")")
    src.add_argument("--p2", nargs=2, metavar=("X(T)", "B(T)"),
                     help="polynomial profile-square parametrization in t "
                          "(quote a leading minus with a space: \" -t^2-1\")")
    src.add_argument(
        "--p2-rational",
        nargs=4,
        metavar=("XNUM", "XDEN", "ZNUM", "ZDEN"),
        help="rational profile-square parametrization in s (numerators and denominators)",
    )
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("quadric", help="classify a quadric and report its polynomiality")
    p.add_argument("--implicit", required=True, help="degree-2 equation in x, y, z")
    p.set_defaults(func=cmd_quadric)

    p = sub.add_parser("mesh", help="sample a real parametrization to an OBJ file")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--report", help="JSON report from analyze/quadric")
    src.add_argument("--param", nargs=3, metavar=("X", "Y", "Z"), help="inline components in u, v")
    p.add_argument("--witness", choices=("real", "complex", "quadric"), default="real",
                   help="which witness to sample from a report (default: real)")
    p.add_argument("--grid", type=int, default=8, help="points per side (default 8)")
    p.add_argument("--u-min", default="-1")
    p.add_argument("--u-max", default="1")
    p.add_argument("--v-min", default="-1")
    p.add_argument("--v-max", default="1")
    p.add_argument("--tol", default="1e-9", help="certified vertex tolerance (default 1e-9)")
    p.add_argument("--out", required=True, help="output OBJ path")
    p.set_defaults(func=cmd_mesh)

    p = sub.add_parser("verify-catalog", help="re-verify every catalog formula")
    p.set_defaults(func=cmd_verify_catalog)

    p = sub.add_parser("p2", help="profile-square curve utilities")
    psub = p.add_subparsers(dest="p2_command", required=True)

    q = psub.add_parser("decompose", help="split the first coordinate as p*a^2")
    q.add_argument("--x", required=True, help="first coordinate, polynomial in t")
    q.add_argument("--z", required=True, help="second coordinate, polynomial in t")
    q.set_defaults(func=cmd_p2_decompose)

    q = psub.add_parser("polynomialize", help="polynomial reparametrization of a rational curve")
    q.add_argument("--x-num", required=True)
    q.add_argument("--x-den", required=True)
    q.add_argument("--z-num", required=True)
    q.add_argument("--z-den", required=True)
    q.set_defaults(func=cmd_p2_polynomialize)

    q = psub.add_parser("equiv", help="affine reparametrization between two polynomial parametrizations")
    q.add_argument("--first", nargs=2, metavar=("X(T)", "Z(T)"), required=True)
    q.add_argument("--second", nargs=2, metavar=("X(S)", "Z(S)"), required=True)
    q.set_defaults(func=cmd_p2_equiv)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process; parse_args keeps no state in it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except InvalidInput as exc:
        _emit({"error": {"code": "INVALID_INPUT", "message": str(exc)}})
        return 2
    except tuple(cls for cls, _ in _REFUSAL_CODES) as exc:
        code = next(code for cls, code in _REFUSAL_CODES if isinstance(exc, cls))
        _emit({"error": {"code": code, "message": str(exc)}})
        return 3
    except RevolutioError as exc:
        _emit({"error": {"code": "INTERNAL", "message": str(exc)}})
        return 4


if __name__ == "__main__":
    sys.exit(main())
