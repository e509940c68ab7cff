"""Command-line surface: subcommands, JSON output, exit codes."""

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from revolutio.cli import main
from revolutio.mesh import MAX_GRID
from revolutio.numeric import default_real_embedding
from revolutio.profile import implicit_to_p2, surface_implicit
from revolutio.verify import verify_on_surface

REPORTS = Path(__file__).resolve().parents[1] / "perfbench" / "reports"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestAnalyze:
    def test_paraboloid(self, capsys):
        code, doc = run_cli(capsys, "analyze", "--implicit", "x^2+y^2-z")
        assert code == 0
        assert doc["schema"] == "revolutio/1"
        assert doc["p2_decomposition"]["delta"] == 1
        assert doc["complex_parametrization"]["verification"] == {
            "on_surface": True,
            "jacobian_rank": 2,
        }
        assert doc["real_verdict"]["status"] == "real-proper"
        assert doc["conjecture_predicate"]["status"] == "satisfied"
        assert doc["quadric"]["class"] == "elliptic-paraboloid"

    @pytest.mark.parametrize(
        "argv",
        [
            ("--implicit", "x^2+y^2-1"),
            # the same cylinder by its profile: the implicit form, a resultant
            # of a constant, once came first and ended in INVALID_INPUT
            ("--p2", "1", "t"),
            ("--p2-rational", "1", "1", "s", "1"),
        ],
        ids=["implicit", "p2", "p2_rational"],
    )
    def test_cylinder_refused(self, capsys, argv):
        code, doc = run_cli(capsys, "analyze", *argv)
        assert code == 3
        assert doc["error"]["code"] == "CYLINDER"

    def test_sphere(self, capsys):
        code, doc = run_cli(capsys, "analyze", "--implicit", "x^2+y^2+z^2-1")
        assert code == 0
        assert doc["real_verdict"]["status"] == "no-real-parametrization"
        assert doc["real_verdict"]["code"] == "NO_REAL_PARAMETRIZATION"
        assert doc["complex_parametrization"]["verification"]["on_surface"] is True
        assert doc["quadric"]["polynomial_over_R"] == "no"

    def test_two_sheet_fiber(self, capsys):
        code, doc = run_cli(capsys, "analyze", "--implicit", "x^2+y^2-z^2+1")
        assert code == 0
        rv = doc["real_verdict"]
        assert rv["status"] == "real-nonproper-double-cover"
        assert rv["fiber_count"] == 2
        assert rv["fiber_sample"] == ["1", "1"]

    @pytest.mark.parametrize(
        "p2",
        [
            # p = t^2 - 1, a = t: the real witness doubly covers one sheet
            ("(t^2-1)*t^2", "t"),
            # the leading space keeps argparse from reading " -t^3" as a flag
            ("t^4-3*t^3", " -t^3"),
        ],
        ids=["linear_axis", "cubic_axis"],
    )
    def test_p2_double_cover_fiber(self, capsys, p2):
        code, doc = run_cli(capsys, "analyze", "--p2", *p2)
        assert code == 0
        rv = doc["real_verdict"]
        assert rv["code"] == "REAL_NONPROPER_DOUBLE_COVER"
        assert rv["fiber_count"] == 2

    @pytest.mark.parametrize(
        "p2",
        [
            # the double-cover witness takes sqrt(9/8) over QQ(sqrt 2)
            ("3*t^3+2*t^4", " -2+2*t-t^2+3*t^3"),
            # and this one sqrt(1/2) over QQ(sqrt 2)
            ("2*t^3+2*t^4", " -5-2*t"),
        ],
        ids=["sqrt_9_8", "sqrt_1_2"],
    )
    def test_square_root_in_the_tower_already(self, capsys, p2):
        # a rational square multiple of an adjoined sqrt(r) once became a second
        # generator, the tower reducible, and the fiber count an internal error
        code, doc = run_cli(capsys, "analyze", "--p2", *p2)
        assert code == 0
        rv = doc["real_verdict"]
        assert rv["code"] == "REAL_NONPROPER_DOUBLE_COVER"
        assert rv["fiber_count"] == 2

    def test_empty_real_locus_reported_not_fatal(self, capsys):
        # the leading space keeps argparse from reading the expression as a flag
        code, doc = run_cli(capsys, "analyze", "--p2", " -t^2-1", "t")
        assert code == 0
        assert doc["real_verdict"]["code"] == "EMPTY_REAL_LOCUS"
        assert doc["complex_parametrization"]["verification"]["on_surface"] is True

    def test_p2_input(self, capsys):
        code, doc = run_cli(capsys, "analyze", "--p2", "t^3+1", "t")
        assert code == 0
        assert doc["p2_decomposition"]["delta"] == 3
        assert doc["real_verdict"]["status"] == "real-proper"  # hard-coded cubic

    @pytest.mark.parametrize(
        "x, z", [("(t^2+1)^2*(t^3+1)", "t"), ("(t^3+1)*(t+2)^2", "t^2+t")]
    )
    def test_cubic_base_lifts_by_any_a_b(self, capsys, tmp_path, x, z):
        # p = t^3 + 1 with a != 1 or b != t: the hard-coded base, lifted
        code, doc = run_cli(capsys, "analyze", "--p2", x, z)
        assert code == 0
        assert doc["p2_decomposition"]["delta"] == 3
        rv = doc["real_verdict"]
        assert rv["code"] == "REAL_PROPER"
        assert rv["verification"] == {"on_surface": True, "jacobian_rank": 2}
        rpath = tmp_path / "report.json"
        rpath.write_text(json.dumps(doc))
        code, mesh = run_cli(
            capsys, "mesh", "--report", str(rpath), "--witness", "real",
            "--grid", "4", "--out", str(tmp_path / "c.obj"),
        )
        assert code == 0 and mesh["mesh"]["vertices"] == 16

    def test_other_cubic_stays_unresolved(self, capsys):
        code, doc = run_cli(capsys, "analyze", "--p2", "t^3-1", "t")
        assert code == 0
        assert doc["real_verdict"]["code"] == "UNRESOLVED"
        assert doc["real_verdict"]["witness"] is None

    def test_p2_rational_input(self, capsys):
        code, doc = run_cli(capsys, "analyze", "--p2-rational", "1", "s", "1", "s^2")
        assert code == 0
        assert doc["p2_decomposition"]["delta"] == 1

    def test_unresolved_reported_not_fatal(self, capsys):
        code, doc = run_cli(capsys, "analyze", "--p2", "t^4+t", "t")
        assert code == 0
        assert doc["real_verdict"]["code"] == "UNRESOLVED"
        assert doc["real_verdict"]["witness"] is None
        assert doc["complex_parametrization"]["verification"]["on_surface"] is True

    def test_not_sor(self, capsys):
        code, doc = run_cli(capsys, "analyze", "--implicit", "x*y-z")
        assert code == 3
        assert doc["error"]["code"] == "NOT_SOR"

    def test_not_a_graph(self, capsys):
        code, doc = run_cli(capsys, "analyze", "--implicit", "x^2+y^2-z*x^2-z*y^2")
        assert code == 3
        assert doc["error"]["code"] == "NOT_A_GRAPH"

    def test_degenerate_profile(self, capsys):
        code, doc = run_cli(capsys, "analyze", "--p2", "t", "3")
        assert code == 3
        assert doc["error"]["code"] == "DEGENERATE_PROFILE"

    def test_zero_rational_coordinate_is_degenerate(self, capsys):
        # (s^3 - s^3)/(5 s^2) is identically zero: refused, not a traceback
        code, doc = run_cli(capsys, "analyze", "--p2-rational", " -3*s-3", " -s", "s^3-s^3", "5*s^2")
        assert code == 3
        assert doc["error"]["code"] == "DEGENERATE_PROFILE"

    def test_rational_circle_refused(self, capsys):
        code, doc = run_cli(
            capsys, "analyze", "--p2-rational", "2*s", "1+s^2", "1-s^2", "1+s^2"
        )
        assert code == 3
        assert doc["error"]["code"] == "NOT_POLYNOMIAL_CURVE"

    def test_parse_error_exit_2(self, capsys):
        code, doc = run_cli(capsys, "analyze", "--implicit", "x^-1")
        assert code == 2
        assert doc["error"]["code"] == "INVALID_INPUT"


@pytest.mark.parametrize(
    "argv, code, error, message",
    [
        (("analyze", "--p2", "1", "2"), 2, "INVALID_INPUT", "both components are constant"),
        (("p2", "decompose", "--x", "1", "--z", "2"), 2, "INVALID_INPUT", "both components are constant"),
        (("p2", "equiv", "--first", "1", "2", "--second", "s", "s"), 2, "INVALID_INPUT",
         "both components are constant"),
        (("p2", "equiv", "--first", "t", "t", "--second", "1", "2"), 2, "INVALID_INPUT",
         "both components are constant"),
        # two faults: both pairs are parsed before either is checked
        (("p2", "equiv", "--first", "1", "2", "--second", "t", "t"), 2, "INVALID_INPUT",
         "expression may only use s; found t"),
        (("p2", "polynomialize", "--x-num", "1", "--x-den", "2", "--z-num", "3", "--z-den", "4"), 2,
         "INVALID_INPUT", "both components are constant"),
        (("analyze", "--p2-rational", "s", "0", "s", "1"), 2, "INVALID_INPUT", "zero denominator"),
        (("analyze", "--p2", "0", "t"), 3, "DEGENERATE_PROFILE",
         "first coordinate is identically zero (the axis)"),
        (("analyze", "--p2", "t^2", "0"), 3, "DEGENERATE_PROFILE",
         "second coordinate is constant (plane perpendicular to the axis)"),
    ],
)
def test_curve_refusals_pinned(capsys, argv, code, error, message):
    assert run_cli(capsys, *argv) == (code, {"schema": "revolutio/1", "error": {"code": error, "message": message}})


def _uv():
    from revolutio import MultiPoly

    return MultiPoly.variable("u", ("u", "v")), MultiPoly.variable("v", ("u", "v"))


def test_off_surface_complex_witness_refused(capsys, monkeypatch):
    # the verification gate, reached through analyze: exit 4 and no witness
    from revolutio import SurfaceParam, cli

    u, v = _uv()
    monkeypatch.setattr(cli, "sor_complex_param", lambda d: SurfaceParam.make([u, v, u + v]))
    code = main(["analyze", "--p2", "t", "t"])
    out = capsys.readouterr().out
    assert code == 4
    assert "complex_parametrization" not in out
    error = json.loads(out)["error"]
    assert error["code"] == "INTERNAL"
    assert error["message"].startswith("witness is off the surface: residual ")


def test_usage_errors_repeat_byte_identically(capsys):
    # main() reuses one parser: a usage error must leave nothing behind in it
    from revolutio.cli import build_parser

    def stderr_of(parse, argv):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        assert exc.value.code == 2
        return capsys.readouterr().err

    fresh = build_parser().parse_args
    for argv in (["analyze"], ["analyze"], ["mesh", "--grid", "x"]):
        assert stderr_of(main, argv) == stderr_of(fresh, argv)
    assert stderr_of(main, ["analyze"]) == stderr_of(main, ["analyze"]) != ""


def _count_calls(monkeypatch, fn):
    """Wrap fn under every revolutio module name that holds it; the list of its calls."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "revolutio" and getattr(mod, fn.__name__, None) is fn:
            monkeypatch.setattr(mod, fn.__name__, counted)
    return calls


@pytest.mark.parametrize(
    "argv, implicit_calls, verify_calls",
    [
        (("analyze", "--p2", "t^2+1", "t"), 1, 2),  # complex and real witness
        (("analyze", "--implicit", "x^2+y^2-z"), 0, 2),  # F is the input itself
        (("quadric", "--implicit", "4*x^2+y^2+z^2-1"), 0, 1),
        (("analyze", "--p2", "t^12", "t"), 1, 1),  # the real witness is the complex one
    ],
)
def test_each_witness_verified_once(capsys, monkeypatch, argv, implicit_calls, verify_calls):
    implicit = _count_calls(monkeypatch, surface_implicit)
    rotation = _count_calls(monkeypatch, implicit_to_p2)
    verified = _count_calls(monkeypatch, verify_on_surface)
    code, _ = run_cli(capsys, *argv)
    assert code == 0
    assert (len(implicit), len(verified)) == (implicit_calls, verify_calls)
    # only analyze --implicit derives G(w, z) from F, once; verification
    # takes the G that analyze holds
    assert len(rotation) == (argv[:2] == ("analyze", "--implicit"))


@pytest.mark.parametrize(
    "argv",
    [
        ("--implicit", "x^2+y^2-z^2+1"),
        ("--p2", "t^2-1", "t^2+t"),
        ("--p2", "t^2-4", "t^3+t"),
        ("--p2", "(t^2-1)*t^2", "t"),
    ],
    ids=["two_sheets", "quadratic_axis", "cubic_axis", "linear_axis"],
)
def test_corpus_double_covers_keep_fiber_two(capsys, argv):
    # the benchmark corpus's double covers: their fiber counts run the
    # integer gcds and the branch-root values reduced once
    code, doc = run_cli(capsys, "analyze", *argv)
    assert code == 0
    rv = doc["real_verdict"]
    assert rv["code"] == "REAL_NONPROPER_DOUBLE_COVER"
    assert (rv["fiber_count"], rv["fiber_sample"]) == (2, ["1", "1"])


def test_degree_six_profile_report_pinned():
    # the slowest input of the exit-contract fuzz: a degree-6 p, so the
    # complex witness lives over QQ[alpha, i]; its report, byte for byte
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["analyze", "--p2", " 4+2*t-4*t^2-t^3-5*t^4+t^5+4*t^6", " 4+2*t-4*t^2-t^3-5*t^4"])
    assert code == 0
    doc = json.loads(out.getvalue())
    assert doc["complex_parametrization"]["verification"] == {"on_surface": True, "jacobian_rank": 2}
    assert [step["name"] for step in doc["complex_parametrization"]["tower"]] == ["alpha", "i"]
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == (
        "0e3c63155c9f60e5ee8fbe5dd7375d3c7f09a27b98b57576c9a9cb939576a74d"
    )


class TestQuadricCmd:
    def test_ellipsoid(self, capsys):
        code, doc = run_cli(capsys, "quadric", "--implicit", "4*x^2+y^2+z^2-1")
        assert code == 0
        assert doc["class"] == "ellipsoid"
        assert doc["polynomial_over_C"] is True
        assert doc["polynomial_over_R"] == "no"
        assert doc["verification"]["on_surface"] is True

    def test_elliptic_cylinder_no_witness(self, capsys):
        code, doc = run_cli(capsys, "quadric", "--implicit", "x^2+y^2-1")
        assert code == 0
        assert doc["class"] == "elliptic-cylinder"
        assert doc["witness"] is None

    def test_reducible_unsupported(self, capsys):
        code, doc = run_cli(capsys, "quadric", "--implicit", "x^2-y^2")
        assert code == 3
        assert doc["error"]["code"] == "UNSUPPORTED"

    def test_witness_of_rank_one_refused(self, capsys, monkeypatch):
        # [u, 0, u^2] lies on the paraboloid but is a curve, not a surface:
        # the gate refuses it before anything is written
        from revolutio import SurfaceParam, quadrics

        u, _ = _uv()
        monkeypatch.setattr(quadrics, "quadric_param", lambda F: SurfaceParam.make([u, 0, u ** 2]))
        code, doc = run_cli(capsys, "quadric", "--implicit", "x^2+y^2-z")
        assert code == 4
        assert doc == {
            "schema": "revolutio/1",
            "error": {"code": "INTERNAL", "message": "witness is not dominant: jacobian rank 1"},
        }


class TestMeshCmd:
    def test_inline_param(self, capsys, tmp_path):
        out = tmp_path / "p.obj"
        code, doc = run_cli(
            capsys, "mesh", "--param", "u", "v", "u^2+v^2", "--grid", "8", "--out", str(out)
        )
        assert code == 0
        assert doc["mesh"]["vertices"] == 64 and doc["mesh"]["faces"] == 49
        assert out.exists()

    def test_real_witness_from_report(self, capsys, tmp_path):
        code, report = run_cli(capsys, "analyze", "--implicit", "x^2+y^2-z^2+1")
        assert code == 0
        rpath = tmp_path / "report.json"
        rpath.write_text(json.dumps(report))
        out = tmp_path / "h.obj"
        code, doc = run_cli(
            capsys, "mesh", "--report", str(rpath), "--witness", "real",
            "--grid", "6", "--u-min", "0", "--u-max", "1", "--v-min", "0", "--v-max", "1",
            "--out", str(out),
        )
        assert code == 0
        assert doc["mesh"]["vertices"] == 36

    def test_complex_witness_refused(self, capsys, tmp_path):
        code, report = run_cli(capsys, "analyze", "--implicit", "x^2+y^2+z^2-1")
        rpath = tmp_path / "report.json"
        rpath.write_text(json.dumps(report))
        code, doc = run_cli(
            capsys, "mesh", "--report", str(rpath), "--witness", "complex",
            "--out", str(tmp_path / "s.obj"),
        )
        assert code == 3
        assert doc["error"]["code"] == "NO_REAL_EMBEDDING"

    def test_quadric_witness_meshable(self, capsys, tmp_path):
        code, report = run_cli(capsys, "quadric", "--implicit", "x^2+y^2-z^2-1")
        assert code == 0
        rpath = tmp_path / "quadric.json"
        rpath.write_text(json.dumps(report))
        out = tmp_path / "q.obj"
        code, doc = run_cli(
            capsys, "mesh", "--report", str(rpath), "--witness", "quadric",
            "--grid", "5", "--out", str(out),
        )
        assert code == 0
        assert doc["mesh"]["vertices"] == 25 and out.exists()

    def test_missing_report_is_user_error(self, capsys, tmp_path):
        code, doc = run_cli(
            capsys, "mesh", "--report", str(tmp_path / "nope.json"),
            "--out", str(tmp_path / "x.obj"),
        )
        assert code == 2 and doc["error"]["code"] == "INVALID_INPUT"

    def test_report_without_real_witness(self, capsys, tmp_path):
        code, report = run_cli(capsys, "analyze", "--implicit", "x^2+y^2+z^2-1")
        rpath = tmp_path / "report.json"
        rpath.write_text(json.dumps(report))
        code, doc = run_cli(
            capsys, "mesh", "--report", str(rpath), "--witness", "real",
            "--out", str(tmp_path / "x.obj"),
        )
        assert code == 2  # the sphere report has no real witness to sample

    @pytest.mark.parametrize(
        "text, witness, message",
        [
            *[(text, w, "the report is not a JSON object")
              for text in ("[]", "3", '"x"') for w in ("real", "complex", "quadric")],
            ('{"real_verdict": [1]}', "real", "carries no real witness"),
            ('{"real_verdict": "x"}', "real", "carries no real witness"),
        ],
    )
    def test_report_that_is_not_an_object_is_user_error(self, capsys, tmp_path, text, witness, message):
        rpath = tmp_path / "report.json"
        rpath.write_text(text)
        code, doc = run_cli(
            capsys, "mesh", "--report", str(rpath), "--witness", witness,
            "--out", str(tmp_path / "x.obj"),
        )
        assert code == 2 and doc["error"]["code"] == "INVALID_INPUT"
        assert message in doc["error"]["message"]

    def test_vertex_beyond_float_range_is_user_error(self, capsys, tmp_path):
        # 100^200 has no float; the parent raised OverflowError out of main()
        code, doc = run_cli(
            capsys, "mesh", "--param", "u^200", "v", "u", "--grid", "2", "--u-max", "100",
            "--out", str(tmp_path / "x.obj"),
        )
        assert code == 2 and doc["error"]["code"] == "INVALID_INPUT"
        assert "float range" in doc["error"]["message"]

    def test_vertex_beyond_float_range_over_a_tower_is_user_error(self, capsys, tmp_path):
        # u = -10^200 puts the cone's vertices near 10^800, beyond any float,
        # and 400 halvings of beta's interval cannot narrow them to 1e-9: they
        # are refused as outside the float range, as rational ones are, not
        # as a refinement that did not converge
        out = tmp_path / "x.obj"
        code, doc = run_cli(
            capsys, "mesh", "--report", str(REPORTS / "cone_beta.json"), "--grid", "3", "--u-min=-1e200",
            "--out", str(out),
        )
        assert code == 2 and doc["error"]["code"] == "INVALID_INPUT"
        assert "outside the float range" in doc["error"]["message"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "source, tol",
        [
            (["--param", "u", "v", "u"], "0"),
            (["--param", "u", "v", "u"], " -1"),
            (["--report", str(REPORTS / "one_sheet_sqrt2.json")], "0"),
        ],
        ids=["rational_zero", "rational_negative", "sqrt2_report_zero"],
    )
    def test_tolerance_must_be_positive(self, capsys, tmp_path, source, tol):
        out = tmp_path / "x.obj"
        code, doc = run_cli(capsys, "mesh", *source, "--tol", tol, "--out", str(out))
        assert code == 2 and doc["error"]["code"] == "INVALID_INPUT"
        assert not out.exists()

    @pytest.mark.parametrize("tol, exact", [("0.1_0", "1/10"), ("1_0e-10", "1/1000000000")])
    def test_tolerance_is_read_exactly_or_refused(self, capsys, tmp_path, tol, exact):
        # Fraction() reads underscores from Python 3.11 on; where it does not,
        # the flag is refused, never read through a float
        out = tmp_path / "x.obj"
        code, doc = run_cli(capsys, "mesh", "--param", "u", "v", "u", "--grid", "2", "--tol", tol, "--out", str(out))
        try:
            Fraction(tol)
        except ValueError:
            assert code == 2 and doc["error"] == {"code": "INVALID_INPUT", "message": f"bad number {tol!r}"}
            assert not out.exists()
        else:
            assert code == 0 and doc["mesh"]["tolerance"] == exact

    @pytest.mark.parametrize("grid", [str(MAX_GRID + 1), "100000000"])
    def test_grid_over_budget_refused_before_any_work(self, capsys, monkeypatch, tmp_path, grid):
        embeddings = _count_calls(monkeypatch, default_real_embedding)
        out = tmp_path / "x.obj"
        start = time.perf_counter()
        code, doc = run_cli(
            capsys, "mesh", "--report", str(REPORTS / "one_sheet_sqrt2.json"), "--grid", grid,
            "--out", str(out),
        )
        assert time.perf_counter() - start < 1
        assert code == 2 and doc["error"]["code"] == "INVALID_INPUT"
        assert str(MAX_GRID) in doc["error"]["message"]
        assert embeddings == [] and not out.exists()


def _mutated_report(tmp_path, mutate):
    """The one_sheet_sqrt2 report with its real witness changed by ``mutate``,
    which may return an edit of the report's text as well."""
    doc = json.loads((REPORTS / "one_sheet_sqrt2.json").read_text())
    edit = mutate(doc["real_verdict"]["witness"])
    text = json.dumps(doc)
    path = tmp_path / "mutated.json"
    path.write_text(edit(text) if edit else text)
    return str(path)


def _set(path, value):
    def mutate(witness):
        *head, last = path
        obj = witness
        for step in head:
            obj = obj[step]
        obj[last] = value
    return mutate


def _repeat_tower(witness):
    # a second "tower" member, an empty tower, ahead of the witness's own
    return lambda text: text.replace('"witness": {', '"witness": {"tower": [], ', 1)


def _rekey(witness):
    # the coefficient {"1": "1"} of the second component's first term, keyed by ARABIC-INDIC DIGIT ONE
    witness["components"][1]["terms"][0]["coefficient"] = {"\u0661": "1"}


@pytest.mark.parametrize(
    "flags, mutate",
    [
        (["--param", "u", "v", "u", "--u-min", "\u0663", "--u-max", "5"], None),
        (["--param", "u", "v", "u", "--v-max", "\u0665"], None),
        (["--param", "u", "v", "u", "--tol", "\uff11e-9"], None),
        (["--report"], _set(["components", 1, "terms", 0, "coefficient", "1"], "\u0663")),
        (["--report"], _rekey),
        (["--report"], _set(["tower", 0, "embedding"], ["0", "\u0663"])),
        (["--report"], _set(["components", 1, "terms", 0, "coefficient", "1"], True)),
        (["--report"], _set(["components", 1, "terms", 0, "coefficient", "1"], 0.5)),
        (["--report"], _set(["components", 0, "terms", 1, "exponents"], [1.5, 0])),
        (["--report"], _set(["components", 0, "terms", 1, "exponents"], [True, False])),
        (["--report"], _set(["components", 1, "terms", 0, "coefficient"], {"-1": "1"})),
        (["--report"], _set(["components", 1, "terms", 0, "coefficient"], {"0_0": "1"})),
        (["--report"], _set(["components", 1, "terms", 0, "coefficient"], "3")),
        (["--report"], _set(["tower", 0, "embedding"], ["1"])),
        (["--report"], _set(["tower", 0, "name"], 5)),
        (["--report"], _set(["components", 1, "terms", 0, "coefficient"], {"1": "1", "01": "2"})),
        (["--report"], _set(["components", 0, "terms", 1, "exponents"], [0, 1])),
        (["--report"], _repeat_tower),
    ],
    ids=["u_min_arabic_indic", "v_max_arabic_indic", "tol_fullwidth", "report_coefficient",
         "report_exponent_key", "report_embedding", "report_bool_coefficient", "report_float_coefficient",
         "report_float_exponent", "report_bool_exponent", "report_negative_exponent_key",
         "report_underscore_exponent_key", "report_coefficient_not_object", "report_one_ended_embedding",
         "report_number_name", "report_repeated_exponent_key", "report_repeated_exponents",
         "report_repeated_member"],
)
def test_mesh_numbers_are_ascii_and_exponents_integers(capsys, tmp_path, flags, mutate):
    # Fraction(), float() and int() read any Unicode digit, Fraction() and
    # int() read true as 1, Fraction() reads a JSON float and int() truncates
    # 1.5: each of these meshed something at exit 0; int() also reads "0_0",
    # and a generator name 5 was taken as given. A negative exponent key, a
    # coefficient that is no JSON object and a one-ended embedding ended in
    # tracebacks. Two exponent keys "1" and "01", two terms with one
    # exponents and two members with one name meshed the last of them
    if mutate is not None:
        flags = flags + [_mutated_report(tmp_path, mutate)]
    out = tmp_path / "x.obj"
    code, doc = run_cli(capsys, "mesh", *flags, "--grid", "2", "--out", str(out))
    assert code == 2 and doc["error"]["code"] == "INVALID_INPUT"
    assert not out.exists()


@pytest.mark.parametrize("target", ["missing_dir", "directory"])
def test_mesh_out_not_writable_is_user_error(capsys, tmp_path, target):
    # open() raised FileNotFoundError or IsADirectoryError out of main()
    out = tmp_path / "missing" / "m.obj" if target == "missing_dir" else tmp_path
    code, doc = run_cli(capsys, "mesh", "--param", "u", "v", "u*v", "--grid", "3", "--out", str(out))
    assert code == 2 and doc["error"]["code"] == "INVALID_INPUT"
    assert "cannot write mesh" in doc["error"]["message"]


class TestP2Cmd:
    def test_decompose(self, capsys):
        code, doc = run_cli(capsys, "p2", "decompose", "--x", "t^3", "--z", "t")
        assert code == 0
        d = doc["p2_decomposition"]
        assert d["p"]["pretty"] == "t" and d["a"]["pretty"] == "t" and d["delta"] == 1

    def test_polynomialize(self, capsys):
        code, doc = run_cli(
            capsys, "p2", "polynomialize",
            "--x-num", "1", "--x-den", "s", "--z-num", "1", "--z-den", "s^2",
        )
        assert code == 0
        d = doc["polynomial_parametrization"]
        assert d["x"]["pretty"] == "t" and d["z"]["pretty"] == "t^2"

    def test_equiv_found(self, capsys):
        code, doc = run_cli(
            capsys, "p2", "equiv", "--first", "t", "t^2", "--second", "2*s+1", "4*s^2+4*s+1"
        )
        assert code == 0
        assert doc["equivalent"] is True and doc["scale"] == "2" and doc["shift"] == "1"

    def test_equiv_not_found(self, capsys):
        code, doc = run_cli(capsys, "p2", "equiv", "--first", "t", "t^2", "--second", "s", "s^3")
        assert code == 0
        assert doc["equivalent"] is False


class TestCatalogCmd:
    def test_all_pass(self, capsys):
        code = main(["verify-catalog"])
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert code == 0
        assert doc["all_passed"] is True
        assert len(doc["catalog"]) >= 14
        assert captured.err.count("PASS") == len(doc["catalog"])

    def test_corrupted_witness_fails(self, capsys, monkeypatch):
        from revolutio import SurfaceParam, catalog

        u, v = _uv()
        monkeypatch.setattr(catalog, "sphere_witness", lambda: SurfaceParam.make([u, v, u * v]))
        code = main(["verify-catalog"])
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert code == 4
        assert doc["all_passed"] is False
        failed = [line for line in captured.err.splitlines() if line.startswith("FAIL")]
        assert len(failed) == 1
        assert failed[0].startswith("FAIL sphere-witness: witness is off the surface: residual ")
        assert [(e["name"], e["detail"]) for e in doc["catalog"] if not e["passed"]] == [
            ("sphere-witness", failed[0].split(": ", 1)[1])
        ]


class TestReportRoundTrip:
    def test_witness_polynomials_reparse_identically(self, capsys):
        from revolutio.jsonio import json_to_param
        from revolutio import UniPoly, decompose_paa, sor_complex_param

        code, doc = run_cli(capsys, "analyze", "--implicit", "x^2+y^2+z^2-1")
        got = json_to_param(doc["complex_parametrization"])
        t = UniPoly.variable("t")
        expected = sor_complex_param(decompose_paa(1 - t ** 2, t))
        assert got.components == expected.components
        assert got.tower == expected.tower


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "revolutio", "analyze", "--implicit", "x^2+y^2-z"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["real_verdict"]["status"] == "real-proper"


@pytest.mark.parametrize(
    "p2",
    [
        # huge constant terms: the rational-root search once trial-divided up
        # to sqrt|a0| and never finished on these
        "t^3-100000000000000000000",
        "3*t^4-100000000000000000000000000000007",
    ],
)
def test_huge_constant_term_within_budget(p2):
    budget = 10.0  # seconds, interpreter start included
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "revolutio", "analyze", "--p2", p2, "t"],
        capture_output=True,
        text=True,
        timeout=budget,
    )
    assert time.perf_counter() - start < budget
    assert proc.returncode in (0, 2, 3)
    json.loads(proc.stdout)


@pytest.mark.parametrize(
    "args",
    [
        # unshifted t^k families: every witness component is homogeneous in
        # (u, v), so each packed run takes the graded layout; in the dense
        # box, t^300 alone took 42 s
        ("--p2", "t^400", "t"),
        ("--implicit", "x^2+y^2-z^400"),
    ],
    ids=["p2_t400", "implicit_z400"],
)
def test_high_degree_homogeneous_witness_within_budget(args):
    budget = 10.0  # seconds, interpreter start included
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "revolutio", "analyze", *args],
        capture_output=True,
        text=True,
        timeout=budget,
    )
    assert time.perf_counter() - start < budget
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["real_verdict"]["status"] == "real-proper"


def test_mesh_huge_exponent_key_within_budget(tmp_path):
    # a generator exponent was reduced one degree per pass: the key
    # "1000000" over sqrt(2) took 30 s, one more digit stalled the call
    report = _mutated_report(tmp_path, _set(["components", 1, "terms", 0, "coefficient"], {"1000000": "1"}))
    out = tmp_path / "x.obj"
    budget = 10.0  # seconds, interpreter start included
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "revolutio", "mesh", "--report", report, "--grid", "2", "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=budget,
    )
    assert time.perf_counter() - start < budget
    assert proc.returncode == 2 and json.loads(proc.stdout)["error"]["code"] == "INVALID_INPUT"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", "--implicit", "(" * 199 + "x^2+y^2-z" + ")" * 199),
        ("analyze", "--implicit", " " + "-" * 990 + "x^2+y^2-z"),
        ("quadric", "--implicit", "(" * 300 + "x^2+y^2-z" + ")" * 300),
        ("mesh", "--param", "u", "v", "(" * 300 + "u" + ")" * 300, "--out", "{tmp}/x.obj"),
        ("p2", "decompose", "--x", "(" * 300 + "t" + ")" * 300, "--z", "t"),
        ("mesh", "--report", "{deep}", "--out", "{tmp}/x.obj"),
    ],
    ids=["analyze_parentheses", "analyze_unary_minus", "quadric", "mesh_param", "p2_decompose", "mesh_report"],
)
def test_deep_nesting_is_user_error(tmp_path, argv):
    # each once ended in a RecursionError traceback (exit 1, no JSON)
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    args = [a.format(tmp=tmp_path, deep=deep) for a in argv]
    proc = subprocess.run(
        [sys.executable, "-m", "revolutio", *args], capture_output=True, text=True, timeout=30
    )
    assert proc.returncode == 2, proc.stderr[-500:]
    assert json.loads(proc.stdout)["error"]["code"] == "INVALID_INPUT"
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "x.obj").exists()


def _exit_contract(argv: list) -> None:
    """``main(argv)`` ends in a report (0), a user error (2) or a refusal
    (3), as JSON, within budget."""
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert time.perf_counter() - start < 10.0
    assert code in (0, 2, 3), (argv, out.getvalue())
    assert "schema" in json.loads(out.getvalue())


def _poly_text(coeffs: list, var: str = "t") -> str:
    """Integer coefficients, constant term first, as CLI text in ``var``; the
    leading space keeps argparse from reading a leading minus as a flag."""
    terms = "+".join(f"{c}*{var}^{k}" for k, c in enumerate(coeffs) if c)
    return " " + (terms.replace("+-", "-") or "0")


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    x=st.lists(st.integers(-5, 5), min_size=1, max_size=7).map(_poly_text),
    b=st.lists(st.integers(-5, 5), min_size=1, max_size=5).map(_poly_text),
)
@example(x="3*t^3+2*t^4", b=" -2+2*t-t^2+3*t^3")
@example(x="2*t^3+2*t^4", b=" -5-2*t")
def test_analyze_p2_exit_contract(x, b):
    # any profile square x^2 + y^2 = X(t), z = B(t) with small integer
    # coefficients
    _exit_contract(["analyze", "--p2", x, b])


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", "--implicit", "x^²"),
        ("analyze", "--p2", "²", "t"),
        ("mesh", "--param", "u", "v", "u^²", "--out", "{tmp}/x.obj"),
    ],
    ids=["analyze_implicit", "analyze_p2", "mesh_param"],
)
def test_non_ascii_digit_is_user_error(capsys, tmp_path, argv):
    # '²' passed str.isdigit() in the lexer but not int(): a ValueError left main()
    code, doc = run_cli(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert code == 2 and doc["error"]["code"] == "INVALID_INPUT"
    assert "unexpected character '²'" in doc["error"]["message"]


# the grammar's characters, and characters a lexer may misread: a
# superscript digit, an Arabic-Indic digit, a fullwidth letter and '_'
_RAW_TEXT = st.text(st.sampled_from(list("0123456789xyzwtsuv+-*^()/ ") + ["²", "٣", "ｘ", "_"]), max_size=16)


def _one_digit_exponents(text: str) -> str:
    """The text with each exponent cut to one digit, after the leading space
    of ``_poly_text``."""
    return " " + re.sub(r"\^(\s*[0-9])[0-9]+", r"^\1", text)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(text=_RAW_TEXT.map(_one_digit_exponents))
@example(text=" x^²+y^2-z")
@example(text=" x^2+y^2-z+٣")
@example(text=" x^2+ｘ^2-z")
def test_implicit_text_exit_contract(text):
    # any text over that alphabet
    for cmd in ("quadric", "analyze"):
        _exit_contract([cmd, "--implicit", text])


def _uv_text(coeffs: dict) -> str:
    """Integer coefficients keyed by exponents (a, b) of u^a v^b, as CLI
    text, with the leading space of ``_poly_text``."""
    terms = "+".join(f"{c}*u^{a}*v^{b}" for (a, b), c in sorted(coeffs.items()) if c)
    return " " + (terms.replace("+-", "-") or "0")


_UV_COMPONENT = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)), st.integers(-5, 5), max_size=6
).map(_uv_text)
# ends as CLI text; ("2", "2") is an empty box
_RANGE = st.sampled_from([("-1", "1"), ("0", "100"), ("-100", "100"), ("1/3", "5/7"), ("2", "2")])


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    comps=st.tuples(_UV_COMPONENT, _UV_COMPONENT, _UV_COMPONENT),
    grid=st.integers(2, 6),
    u_range=_RANGE,
    v_range=_RANGE,
)
@example(comps=("u^200", "v", "u"), grid=2, u_range=("-1", "100"), v_range=("-1", "1"))
def test_mesh_param_exit_contract(comps, grid, u_range, v_range):
    # any inline patch with small integer coefficients; 100^200 has no float
    with tempfile.TemporaryDirectory() as tmp:
        _exit_contract([
            "mesh", "--param", *comps, "--grid", str(grid),
            f"--u-min={u_range[0]}", f"--u-max={u_range[1]}",
            f"--v-min={v_range[0]}", f"--v-max={v_range[1]}",
            "--out", os.path.join(tmp, "m.obj"),
        ])


_S_POLY = st.lists(st.integers(-3, 3), min_size=1, max_size=3).map(lambda coeffs: _poly_text(coeffs, "s"))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(parts=st.tuples(_S_POLY, _S_POLY, _S_POLY, _S_POLY))
@example(parts=("1", "1", "s", "1"))
def test_analyze_p2_rational_exit_contract(parts):
    # a rational profile square, zero denominators and cylinders included
    _exit_contract(["analyze", "--p2-rational", *parts])


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    x=st.lists(st.integers(-5, 5), min_size=1, max_size=7).map(_poly_text),
    z=st.lists(st.integers(-5, 5), min_size=1, max_size=5).map(_poly_text),
)
def test_p2_decompose_exit_contract(x, z):
    _exit_contract(["p2", "decompose", "--x", x, "--z", z])


def _paths(obj, prefix=()):
    """The path of every value inside a JSON value, its own excluded."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


_WITNESSES = {
    "real": lambda doc: (doc.get("real_verdict") or {}).get("witness"),
    "complex": lambda doc: doc.get("complex_parametrization"),
    "quadric": lambda doc: doc.get("witness"),
}
# every (report, witness, path) into a stored report's witness
_SITES = [
    (report.name, kind, path)
    for report in sorted(REPORTS.glob("*.json"))
    for kind, find in _WITNESSES.items()
    for path in _paths(find(json.loads(report.read_text())) or {})
]
_RETYPED = [None, True, 0, -1, 1.5, "", "x", "1", [], ["1", "2"], {}, {"1": "1"}]


def _negated(value):
    """A string or an integer with its sign flipped; anything else as it is."""
    if isinstance(value, str):
        return value[1:] if value.startswith("-") else "-" + value
    if type(value) is int:
        return -value
    return value


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    site=st.sampled_from(_SITES),
    change=st.sampled_from(["delete", "retype", "negate", "negate_key"]),
    retyped=st.sampled_from(_RETYPED),
)
@example(site=("one_sheet_sqrt2.json", "real", ("components", 1, "terms", 0, "coefficient", "1")),
         change="negate_key", retyped=None)
@example(site=("one_sheet_sqrt2.json", "real", ("components", 1, "terms", 0, "coefficient")),
         change="retype", retyped="x")
@example(site=("one_sheet_sqrt2.json", "real", ("tower", 0, "embedding")), change="retype", retyped=["1"])
def test_mesh_report_exit_contract(site, change, retyped):
    # a stored report with one field of its witness deleted, retyped, negated
    # or, for an object key, given a minus sign
    report, kind, path = site
    doc = json.loads((REPORTS / report).read_text())
    *head, last = path
    obj = _WITNESSES[kind](doc)
    for step in head:
        obj = obj[step]
    if change == "delete":
        del obj[last]
    elif change == "retype":
        obj[last] = retyped
    elif change == "negate":
        obj[last] = _negated(obj[last])
    elif isinstance(last, str):
        obj["-" + last] = obj.pop(last)
    with tempfile.TemporaryDirectory() as tmp:
        report_path = os.path.join(tmp, "report.json")
        with open(report_path, "w") as fh:
            json.dump(doc, fh)
        _exit_contract(["mesh", "--report", report_path, "--witness", kind, "--grid", "2",
                        "--out", os.path.join(tmp, "m.obj")])
