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
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from revolutio.cli import main
from revolutio.profile import surface_implicit
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

    def test_cylinder_refused(self, capsys):
        code, doc = run_cli(capsys, "analyze", "--implicit", "x^2+y^2-1")
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
    verified = _count_calls(monkeypatch, verify_on_surface)
    code, _ = run_cli(capsys, *argv)
    assert code == 0
    assert (len(implicit), len(verified)) == (implicit_calls, verify_calls)


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


    def test_vertex_beyond_float_range_is_user_error(self, capsys, tmp_path):
        # 100^200 has no float; the parent raised OverflowError out of main()
        code, doc = run_cli(
            capsys, "mesh", "--param", "u^200", "v", "u", "--grid", "2", "--u-max", "100",
            "--out", str(tmp_path / "x.obj"),
        )
        assert code == 2 and doc["error"]["code"] == "INVALID_INPUT"
        assert "float range" in doc["error"]["message"]

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


class TestReportRoundTrip:
    def test_witness_polynomials_reparse_identically(self, capsys):
        from revolutio.jsonio import json_to_param
        from revolutio import PlaneCurveParam, UniPoly, decompose_paa, sor_complex_param

        code, doc = run_cli(capsys, "analyze", "--implicit", "x^2+y^2+z^2-1")
        got = json_to_param(doc["complex_parametrization"])
        t = UniPoly.variable("t")
        expected = sor_complex_param(decompose_paa(PlaneCurveParam.polynomial(1 - t ** 2, t)))
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


def _poly_text(coeffs: list) -> str:
    """Integer coefficients, constant term first, as CLI text in t; the
    leading space keeps argparse from reading a leading minus as a flag."""
    terms = "+".join(f"{c}*t^{k}" for k, c in enumerate(coeffs) if c)
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
    # coefficients ends in a report (0), a user error (2) or a refusal (3),
    # as JSON, within budget
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = main(["analyze", "--p2", x, b])
    assert time.perf_counter() - start < 10.0
    assert code in (0, 2, 3), (x, b, out.getvalue())
    assert "schema" in json.loads(out.getvalue())


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
    # any text over that alphabet ends in a report (0), a user error (2) or
    # a refusal (3), as JSON, within budget
    for cmd in ("quadric", "analyze"):
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = main([cmd, "--implicit", text])
        assert time.perf_counter() - start < 10.0
        assert code in (0, 2, 3), (cmd, text, out.getvalue())
        assert "schema" in json.loads(out.getvalue())


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
    # any inline patch with small integer coefficients ends in a mesh (0) or
    # a user error (2), as JSON, within budget; 100^200 has no float
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        argv = [
            "mesh", "--param", *comps, "--grid", str(grid),
            f"--u-min={u_range[0]}", f"--u-max={u_range[1]}",
            f"--v-min={v_range[0]}", f"--v-max={v_range[1]}",
            "--out", os.path.join(tmp, "m.obj"),
        ]
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        assert time.perf_counter() - start < 10.0
    assert code in (0, 2, 3), (argv, out.getvalue())
    assert "schema" in json.loads(out.getvalue())
