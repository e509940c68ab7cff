"""The benchmark's workloads: fixed inputs plus inputs drawn from the seed.

Every input is a ``Case``: the argv handed to ``revolutio.cli.main``, a
hand-written expected outcome derived from the paper's case analysis, and
the number of back-to-back repetitions its timed block makes. Expected
outcomes are never copied from program output.

Expected-outcome keys (all optional except ``exit``):

- ``exit``: exit code of ``main``.
- ``error``: refusal code in the error body (exit 2 or 3).
- ``delta``: degree of the square-free part p of the profile square.
- ``verdict``: ``real_verdict.code``; ``fiber``: expected fiber count.
- ``quadric``: class in the analyze report's quadric block (None: no block).
- ``cls``, ``witness``: for the ``quadric`` command; its verdicts over C and R
  come from ``QUADRIC_TABLE``.
- ``equivalent``: for ``p2 equiv``.
- ``grid``: for ``mesh``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPORTS = BENCH_DIR / "reports"
OUT = BENCH_DIR / "out"

WORKLOADS = ("verdict-mix", "elimination", "mesh-export")


@dataclass(frozen=True)
class Case:
    argv: tuple
    expect: dict
    reps: int = 1
    why: str = ""
    # mesh cases: the witness source, for the vertex check
    mesh_source: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        return " ".join(a if a and " " not in a and not a.startswith(" ") else repr(a) for a in self.argv)


# Repetitions for inputs far below ~50 ms, so that no input is one timer reading.
TINY = 12   # ~1-5 ms: refusals, parser errors, p2 utilities
SMALL = 4   # ~5-20 ms: quadrics, cheap analyze calls
MEDIUM = 2  # ~20-60 ms

# Class labels and the paper's polynomiality table for quadrics:
# class -> (polynomial over C, verdict over R).
QUADRIC_TABLE = {
    "ellipsoid": (True, "no"),
    "hyperboloid-one-sheet": (True, "yes"),
    "hyperboloid-two-sheets": (True, "yes-nonproper"),
    "elliptic-paraboloid": (True, "yes"),
    "hyperbolic-paraboloid": (True, "yes"),
    "cone": (True, "yes"),
    "elliptic-cylinder": (False, "no"),
    "hyperbolic-cylinder": (False, "no"),
    "parabolic-cylinder": (True, "yes"),
    "empty/imaginary": (False, "no-real-points"),
}

# Canonical quadrics as sums of signed squares of coordinates plus a
# constant, or a linear coordinate: (squares with signs, linear coord, const).
CANONICAL_QUADRICS = {
    "ellipsoid": ((1, 1, 1), None, -1),
    "hyperboloid-one-sheet": ((1, 1, -1), None, -1),
    "hyperboloid-two-sheets": ((1, 1, -1), None, 1),
    "elliptic-paraboloid": ((1, 1, 0), 2, 0),
    "hyperbolic-paraboloid": ((1, -1, 0), 2, 0),
    "cone": ((1, 1, -1), None, 0),
    "elliptic-cylinder": ((1, 1, 0), None, -1),
    "hyperbolic-cylinder": ((1, -1, 0), None, -1),
    "parabolic-cylinder": ((1, 0, 0), 1, 0),
    "empty/imaginary": ((1, 1, 1), None, 1),
    "degenerate-reducible": ((1, -1, 0), None, 0),
}


def _q(x: Fraction) -> str:
    """A rational as the program's literal syntax, parenthesized."""
    x = Fraction(x)
    body = str(abs(x))
    return f"({'-' if x < 0 else ''}{body})"


def _arg(text: str) -> str:
    """Shell-style guard: an argument starting with '-' gets a leading space."""
    return " " + text if text.startswith("-") else text


def analyze_case(flag, args, why, reps=1, **expect) -> Case:
    expect.setdefault("exit", 0)
    return Case(("analyze", flag, *(_arg(a) for a in args)), expect, reps, why)


def quadric_case(text, why, reps=SMALL, **expect) -> Case:
    expect.setdefault("exit", 0)
    return Case(("quadric", "--implicit", _arg(text)), expect, reps, why)


def mesh_report_case(report: str, witness: str, grid: int, why: str, reps=1, **expect) -> Case:
    out = OUT / f"{Path(report).stem}-{witness}-{grid}.obj"
    return Case(
        ("mesh", "--report", str(REPORTS / report), "--witness", witness,
         "--grid", str(grid), "--out", str(out)),
        expect or {"exit": 0, "grid": grid}, reps, why,
        mesh_source={"report": report, "witness": witness},
    )


def mesh_param_case(comps, grid: int, name: str, why: str, reps=1) -> Case:
    out = OUT / f"param-{name}-{grid}.obj"
    return Case(
        ("mesh", "--param", *(_arg(c) for c in comps), "--grid", str(grid), "--out", str(out)),
        {"exit": 0, "grid": grid}, reps, why,
        mesh_source={"param": list(comps)},
    )


# -- verdict-mix ---------------------------------------------------------------------

#: Known-failing input: the second coordinate (s^3-s^3)/(5*s^2) is identically 0,
#: so the profile is degenerate; today it ends in an OverflowError traceback.
DEGENERATE_RATIONAL = analyze_case(
    "--p2-rational", ("-3*s-3", "-s", "s^3-s^3", "5*s^2"),
    "zero second coordinate: must be refused as DEGENERATE_PROFILE", reps=1,
    exit=3, error="DEGENERATE_PROFILE",
)


def fixed_verdict_mix() -> list:
    A, Q = analyze_case, quadric_case
    cases = [
        # analyze --implicit over the paper's case table
        A("--implicit", ("x^2+y^2-z",), "delta 1: paraboloid pattern", MEDIUM,
          delta=1, verdict="REAL_PROPER", quadric="elliptic-paraboloid"),
        A("--implicit", ("-x^2-y^2+1/2*z",), "delta 1 with a rational scale", SMALL,
          delta=1, verdict="REAL_PROPER", quadric="elliptic-paraboloid"),
        A("--implicit", ("x^2+y^2-(z-1)^2*z",), "delta 1 with a nonconstant a", MEDIUM,
          delta=1, verdict="REAL_PROPER", quadric=None),
        A("--implicit", ("x^2+y^2-z^2-1",), "delta 2, sign +, lambda > 0: one sheet", MEDIUM,
          delta=2, verdict="REAL_PROPER", quadric="hyperboloid-one-sheet"),
        A("--implicit", ("x^2+y^2-z^2+1",), "delta 2, sign +, lambda < 0: double cover", 1,
          delta=2, verdict="REAL_NONPROPER_DOUBLE_COVER", fiber=2,
          quadric="hyperboloid-two-sheets"),
        A("--implicit", ("x^2+y^2+z^2-1",), "delta 2, sign -, lambda > 0: compact", MEDIUM,
          delta=2, verdict="NO_REAL_PARAMETRIZATION", quadric="ellipsoid"),
        A("--implicit", ("x^2+y^2+z^2+1",), "delta 2, sign -, lambda < 0: empty", MEDIUM,
          delta=2, verdict="EMPTY_REAL_LOCUS", quadric="empty/imaginary"),
        A("--implicit", ("x^2+y^2-z^2",), "delta 0, a with a real root: cone", MEDIUM,
          delta=0, verdict="REAL_PROPER", quadric="cone"),
        A("--implicit", ("x^2+y^2+z^2",), "delta 0, p < 0: no 2-dimensional real locus", SMALL,
          delta=0, verdict="EMPTY_REAL_LOCUS", quadric="empty/imaginary"),
        A("--implicit", ("x^2+y^2-(z^2+1)^2",), "delta 0, a without real roots: Pythagorean identity", 1,
          delta=0, verdict="REAL_PROPER", quadric=None),
        A("--p2", ("(t^2-2)^2", "t"), "delta 0, a with irrational real roots: a root isolated by Sturm", MEDIUM,
          delta=0, verdict="REAL_PROPER", quadric=None),
        A("--implicit", ("x^2+y^2-z^3-1",), "delta 3: the hard-coded cubic witness", MEDIUM,
          delta=3, verdict="REAL_PROPER", quadric=None),
        A("--implicit", ("x^2+y^2-z^3+z",), "delta 3: unresolved over R", SMALL,
          delta=3, verdict="UNRESOLVED", quadric=None),
        A("--implicit", ("x^2+y^2-z^4-2",), "delta 4: unresolved over R", SMALL,
          delta=4, verdict="UNRESOLVED", quadric=None),
        # refusals
        A("--implicit", ("x^2+y^2-1",), "cylinder of revolution", TINY, exit=3, error="CYLINDER"),
        A("--implicit", ("x^2+y-z",), "not rotation invariant", TINY, exit=3, error="NOT_SOR"),
        A("--implicit", ("(x^2+y^2)^2-z",), "profile square is not a graph", TINY,
          exit=3, error="NOT_A_GRAPH"),
        A("--implicit", ("x^2+y^2-q",), "unknown variable", TINY, exit=2, error="INVALID_INPUT"),
        A("--implicit", ("x^^2",), "syntax error", TINY, exit=2, error="INVALID_INPUT"),
        A("--p2", ("t^2", "1"), "constant axis coordinate", TINY, exit=3, error="DEGENERATE_PROFILE"),
        A("--p2-rational", ("1", "s", "1", "s^2-1"), "two points at infinity", TINY,
          exit=3, error="NOT_POLYNOMIAL_CURVE"),
        # analyze --p2 / --p2-rational
        A("--p2", ("t^2-1", "t"), "double cover given by its profile square", 1,
          delta=2, verdict="REAL_NONPROPER_DOUBLE_COVER", fiber=2, quadric="hyperboloid-two-sheets"),
        A("--p2", ("t^2+2", "t"), "one sheet over sqrt(2)", MEDIUM,
          delta=2, verdict="REAL_PROPER", quadric="hyperboloid-one-sheet"),
        A("--p2", ("-t^2-1", "t"), "delta 2, sign -, lambda < 0 from --p2", SMALL,
          delta=2, verdict="EMPTY_REAL_LOCUS", quadric="empty/imaginary"),
        A("--p2", ("t^3+1", "t"), "delta 3 cubic from --p2", MEDIUM,
          delta=3, verdict="REAL_PROPER", quadric=None),
        A("--p2", ("t", "t^2"), "delta 1 with a quadratic axis coordinate", MEDIUM,
          delta=1, verdict="REAL_PROPER", quadric=None),
        A("--p2-rational", ("1", "s", "1", "s^2"), "rational input made polynomial", MEDIUM,
          delta=1, verdict="REAL_PROPER", quadric=None),
        DEGENERATE_RATIONAL,
        # quadric: every class, canonical forms
        Q("x^2+y^2+z^2-1", "ellipsoid", cls="ellipsoid", witness=True),
        Q("x^2+y^2-z^2-1", "one-sheeted hyperboloid", cls="hyperboloid-one-sheet", witness=True),
        Q("x^2+y^2-z^2+1", "two-sheeted hyperboloid", cls="hyperboloid-two-sheets", witness=True),
        Q("x^2+y^2-z", "elliptic paraboloid", cls="elliptic-paraboloid", witness=True),
        Q("x^2-y^2-z", "hyperbolic paraboloid", cls="hyperbolic-paraboloid", witness=True),
        Q("x^2+y^2-z^2", "cone", cls="cone", witness=True),
        Q("x^2+y^2-1", "elliptic cylinder", TINY, cls="elliptic-cylinder", witness=False),
        Q("x^2-y^2-1", "hyperbolic cylinder", TINY, cls="hyperbolic-cylinder", witness=False),
        Q("x^2-y", "parabolic cylinder", cls="parabolic-cylinder", witness=True),
        Q("x^2+y^2+z^2+1", "no real points", TINY, cls="empty/imaginary", witness=False),
        Q("x^2-y^2", "reducible: out of scope", TINY, exit=3, error="UNSUPPORTED"),
        Q("2*x^2+3*y^2+z^2-1", "ellipsoid over a three-step tower",
          cls="ellipsoid", witness=True),
        Q("x^2+2*x*y+3*y^2-z^2-1", "cross term: class without witness",
          cls="hyperboloid-one-sheet", witness=False),
        # p2 utilities
        Case(("p2", "decompose", "--x", "t^3", "--z", "t"), {"exit": 0}, TINY,
             "p*a^2 split of t^3"),
        Case(("p2", "decompose", "--x", "(t^2-2)*(t+1)^2", "--z", "t^2+t"), {"exit": 0}, TINY,
             "p*a^2 split with an irrational p"),
        Case(("p2", "polynomialize", "--x-num", "1", "--x-den", "s", "--z-num", "1",
              "--z-den", "s^2"), {"exit": 0}, TINY, "rational curve made polynomial"),
        Case(("p2", "equiv", "--first", "t", "t^2", "--second", "2*s+1", "4*s^2+4*s+1"),
             {"exit": 0, "equivalent": True}, TINY, "affine reparametrization exists"),
        Case(("p2", "equiv", "--first", "t", "t^2", "--second", "s", "s^3"),
             {"exit": 0, "equivalent": False}, TINY, "degrees differ"),
        Case(("verify-catalog",), {"exit": 0}, 1, "re-verify every catalog formula"),
        # meshing a witness: inline patches and reports
        mesh_param_case(("u", "v", "u^2+v^2"), 16, "paraboloid", "inline paraboloid patch", MEDIUM),
        mesh_param_case(("u^2-v^2", "2*u*v", "u^2+v^2"), 16, "cone", "inline cone patch", MEDIUM),
        mesh_param_case(("u", "v", "u*v"), 12, "saddle", "inline saddle patch", MEDIUM),
        mesh_report_case("one_sheet_sqrt2.json", "real", 16, "mesh a report's witness over sqrt(2)"),
        mesh_report_case("paraboloid.json", "real", 12, "mesh a report's witness over QQ", MEDIUM),
        mesh_report_case("double_cover.json", "real", 12, "mesh a double cover's witness"),
    ]
    return cases


def _rational(rng: random.Random, lo: int = -4, hi: int = 4, nonzero=False, dens=(1, 1, 2, 3)) -> Fraction:
    while True:
        x = Fraction(rng.randint(lo, hi), rng.choice(dens))
        if x or not nonzero:
            return x


def _lin(var: str, r: Fraction) -> str:
    """(var - r) in the program's syntax."""
    if r == 0:
        return var
    return f"({var}-{abs(r)})" if r > 0 else f"({var}+{abs(r)})"


def _linear_form(coeffs, shift) -> str:
    parts = [f"{_q(c)}*{v}" for c, v in zip(coeffs, "xyz") if c]
    if shift:
        parts.append(_q(shift))
    return "(" + "+".join(parts) + ")"


def _det3(m) -> Fraction:
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def _square(rng: random.Random) -> Fraction:
    """A small rational square: square scales keep towers, and cost, the same for every seed."""
    return Fraction(rng.randint(1, 3), rng.randint(1, 2)) ** 2


def seeded_quadric(rng: random.Random, cls: str, diagonal: bool) -> Case:
    """scale * canonical(A*(x,y,z) + b): an affine change keeps the class.

    A diagonal change (an axis permutation times a diagonal matrix) keeps
    the quadratic part diagonal, so the program also builds a witness.
    The scale is plus or minus a square, so every square root the witness
    needs is rational and the tower is the canonical form's."""
    squares, linear, const = CANONICAL_QUADRICS[cls]
    while True:
        if diagonal:
            perm = list(range(3))
            rng.shuffle(perm)
            m = [[Fraction(0)] * 3 for _ in range(3)]
            for i in range(3):
                m[i][perm[i]] = _rational(rng, -3, 3, nonzero=True, dens=(1, 1, 2))
        else:
            m = [[Fraction(rng.randint(-2, 2)) for _ in range(3)] for _ in range(3)]
        if _det3(m) != 0:
            break
    b = [_rational(rng, -2, 2, dens=(1, 2)) for _ in range(3)]
    forms = [_linear_form(m[i], b[i]) for i in range(3)]
    parts = []
    for i, s in enumerate(squares):
        if s:
            parts.append(f"{'+' if s > 0 else '-'}{forms[i]}^2")
    if linear is not None:
        parts.append(f"-{forms[linear]}")
    if const:
        parts.append(f"{'+' if const > 0 else '-'}{abs(const)}")
    scale = _square(rng) * rng.choice((1, -1))
    text = f"{_q(scale)}*({''.join(parts).lstrip('+')})"
    why = f"{cls} under a random {'diagonal ' if diagonal else ''}rational affine change"
    if cls == "degenerate-reducible":
        return quadric_case(text, why, TINY, exit=3, error="UNSUPPORTED")
    # the program builds witnesses for diagonal quadratic parts only
    quad = [[sum(s * m[k][i] * m[k][j] for k, s in enumerate(squares)) for j in range(3)] for i in range(3)]
    diagonal_part = all(quad[i][j] == 0 for i in range(3) for j in range(3) if i != j)
    over_c = QUADRIC_TABLE[cls][0]
    return quadric_case(text, why, cls=cls, witness=over_c and diagonal_part)


def seeded_profiles(rng: random.Random) -> list:
    """Profiles [p*a^2, b] with p of a chosen degree and sign case, so the
    verdict follows from the paper: in p = c*((t-s)^2 + m) the signs of c
    and of lambda = c*m select the delta-2 case. c and m are plus or minus
    squares, so the witnesses stay over QQ (or QQ[i]) for every seed."""
    def r():
        return _rational(rng, -3, 3, dens=(1, 2))

    def sq(sign=1):
        return sign * _square(rng)

    def axis():
        return _lin("t", r())  # b = t - k: proper, degree 1

    cases = []

    def add(x, why, **expect):
        reps = 1 if expect.get("fiber") else MEDIUM
        cases.append(analyze_case("--p2", (x, axis()), why, reps, **expect))

    c, root = sq(rng.choice((1, -1))), r()
    add(f"{_q(c)}*{_lin('t', root)}", "seeded delta 1, a = 1",
        delta=1, verdict="REAL_PROPER", quadric="elliptic-paraboloid")
    root, other = r(), r()
    while other == root:
        other = r()
    add(f"{_q(c)}*{_lin('t', root)}*{_lin('t', other)}^2", "seeded delta 1, deg a = 1",
        delta=1, verdict="REAL_PROPER", quadric=None)
    for sc, sl, verdict, cls in (
        (1, 1, "REAL_PROPER", "hyperboloid-one-sheet"),
        (1, -1, "REAL_NONPROPER_DOUBLE_COVER", "hyperboloid-two-sheets"),
        (-1, 1, "NO_REAL_PARAMETRIZATION", "ellipsoid"),
        (-1, -1, "EMPTY_REAL_LOCUS", "empty/imaginary"),
    ):
        c, s, m = sq(sc), r(), sq(sl * sc)  # sign(lambda) = sign(c*m)
        extra = {"fiber": 2} if verdict == "REAL_NONPROPER_DOUBLE_COVER" else {}
        add(f"{_q(c)}*({_lin('t', s)}^2+{_q(m)})", f"seeded delta 2, sign {sc:+d}, lambda {sl:+d}",
            delta=2, verdict=verdict, quadric=cls, **extra)
    add(f"{_q(sq())}*{_lin('t', r())}^2", "seeded delta 0, c > 0, a with a real root",
        delta=0, verdict="REAL_PROPER", quadric="cone")
    add(f"{_q(sq(-1))}*{_lin('t', r())}^2", "seeded delta 0, c < 0",
        delta=0, verdict="EMPTY_REAL_LOCUS", quadric="empty/imaginary")
    add(f"{_q(sq())}*(t^2+{_q(sq())})^2", "seeded delta 0, a without real roots",
        delta=0, verdict="REAL_PROPER", quadric=None)
    roots = set()
    while len(roots) < 3:
        roots.add(r())
    add(f"{_q(sq(rng.choice((1, -1))))}*" + "*".join(_lin("t", x) for x in sorted(roots)),
        "seeded delta 3, three real roots", delta=3, verdict="UNRESOLVED", quadric=None)
    return cases


def verdict_mix(rng: random.Random) -> list:
    cases = fixed_verdict_mix()
    for cls in CANONICAL_QUADRICS:
        cases.append(seeded_quadric(rng, cls, diagonal=False))
        cases.append(seeded_quadric(rng, cls, diagonal=True))
    cases += seeded_profiles(rng)
    return cases


# -- elimination ------------------------------------------------------------------------


def elimination(rng: random.Random) -> list:
    cases = [
        analyze_case("--implicit", (f"x^2+y^2-z^{k}",), f"resultant and tower work grow with k = {k}",
                     delta=k % 2, verdict="REAL_PROPER", quadric=None)
        for k in range(10, 31)
    ]
    # p2_implicit eliminates t by resultant although b = t is linear
    cases += [
        analyze_case("--p2", (f"t^{k}", "t"), f"implicitization by resultant with a linear b, k = {k}",
                     delta=k % 2, verdict="REAL_PROPER", quadric=None)
        for k in range(10, 20)
    ]
    cases += [
        analyze_case("--p2", ("(t^2+1)*(t^2-2)*(t-3)^2", "t^3+t"),
                     "witness over QQ[alpha, i]: verification dominates",
                     delta=4, verdict="UNRESOLVED", quadric=None),
        analyze_case("--p2", ("t^2-1", "t^2+t"), "double cover: fiber count by elimination",
                     delta=2, verdict="REAL_NONPROPER_DOUBLE_COVER", fiber=2, quadric=None),
        analyze_case("--p2", ("t^2-4", "t^3+t"), "double cover with a cubic axis coordinate",
                     delta=2, verdict="REAL_NONPROPER_DOUBLE_COVER", fiber=2, quadric=None),
        analyze_case("--p2", ("(t^2-1)*t^2", "t"), "double cover: fiber count is most of the time",
                     delta=2, verdict="REAL_NONPROPER_DOUBLE_COVER", fiber=2, quadric=None),
    ]
    # every workload meshes, so that vertices_per_s exists on every workload
    cases += [
        mesh_report_case("double_cover.json", "real", grid, "mesh the double cover's real witness", reps)
        for grid, reps in ((12, 3), (16, 2), (20, 2))
    ]
    cases += [
        mesh_report_case("one_sheet_sqrt2.json", "real", grid, "mesh the one-sheet witness over sqrt(2)", reps)
        for grid, reps in ((12, 3), (16, 2), (20, 1))
    ]
    rng.shuffle(cases)
    return cases


# -- mesh-export ------------------------------------------------------------------------

#: grid side -> repetitions, so that small grids are not single short timer readings
MESH_GRIDS = {10: SMALL, 16: MEDIUM, 24: 1, 30: 1}


def mesh_export(rng: random.Random) -> list:
    reports = (
        ("paraboloid.json", "real", "witness over QQ"),
        ("one_sheet_sqrt2.json", "real", "witness over sqrt(2)"),
        ("cubic_sqrt3.json", "real", "cubic witness over sqrt(3)"),
        ("double_cover.json", "real", "double-cover witness over QQ"),
        ("quadric_sqrt13.json", "quadric", "quadric witness over sqrt(1/3)"),
        ("cone_beta.json", "real", "witness over a root of a, with a recorded embedding"),
    )
    patches = (
        (("u", "v", "u^2+v^2"), "paraboloid", "inline paraboloid"),
        (("u", "v", "u^3-3*u*v^2"), "monkey-saddle", "inline monkey saddle"),
        (("u^2-v^2", "2*u*v", "u^2+v^2"), "cone", "inline cone"),
        (("u*v", "u-v", "u^2+v^3"), "twisted", "inline patch with a cubic term"),
    )
    cases = []
    for grid, reps in MESH_GRIDS.items():
        cases += [mesh_report_case(r, w, grid, why, reps) for r, w, why in reports]
        cases += [mesh_param_case(c, grid, name, why, reps) for c, name, why in patches]
    cases.append(mesh_report_case("paraboloid.json", "complex", 8, "the complex witness carries i: refused",
                                  TINY, exit=3, error="NO_REAL_EMBEDDING"))
    rng.shuffle(cases)
    return cases


GENERATORS = {"verdict-mix": verdict_mix, "elimination": elimination, "mesh-export": mesh_export}


#: every workload has at least this many inputs, so that input_s.tail has ten beyond it
MIN_INPUTS = 40


def build(workload: str, seed: int) -> list:
    cases = GENERATORS[workload](random.Random(seed))
    assert len(cases) >= MIN_INPUTS, f"{workload} has {len(cases)} inputs"
    return cases
