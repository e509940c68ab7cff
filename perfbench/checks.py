"""Output checks made apart from the program.

Nothing here imports revolutio or compares against stored program output.
Implicit equations come from the input text through sympy (resultants for
profile-square inputs); witnesses are decoded from their revolutio/1 JSON
and evaluated with the small exact tower arithmetic below, which reduces
modulo the recorded minimal polynomials; real roots and square-freeness
come from sympy; mesh vertices are compared with a 40-digit evaluation.

``check_case(case, code, stdout, rng)`` raises ``Mismatch`` on the first
property that does not hold.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

import mpmath
import sympy

from workloads import QUADRIC_TABLE, REPORTS

X, Y, Z, W, T, S, U, V = sympy.symbols("x y z w t s u v")
SYMS = {str(s): s for s in (X, Y, Z, W, T, S, U, V)}
WITNESS_VERDICTS = ("REAL_PROPER", "REAL_NONPROPER_DOUBLE_COVER")


class Mismatch(Exception):
    """An output property that does not hold."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise Mismatch(message)


def parse_expr(text: str):
    """Program expression syntax ('^' for powers) as a sympy expression."""
    return sympy.sympify(text.strip().replace("^", "**"), locals=SYMS)


def _fraction(q) -> Fraction:
    q = sympy.Rational(q)
    return Fraction(int(q.p), int(q.q))


# -- exact tower arithmetic -----------------------------------------------------------


class Tower:
    """Q[g1]/(m1)[g2]/(m2)... decoded from a revolutio/1 tower list.

    Elements are dicts from generator-exponent tuples to Fractions. Each
    minimal polynomial must be monic; products are reduced from the top
    generator down, replacing g_k^d by minus the lower part of m_k.
    """

    def __init__(self, steps: list):
        self.steps = steps
        self.height = len(steps)
        self.minpolys = []
        for k, step in enumerate(steps):
            coeffs = [self.element(c, k) for c in step["minpoly"]]
            expect(len(coeffs) >= 2, f"tower step {step['name']!r} has a constant minimal polynomial")
            expect(coeffs[-1] == {self.zero_key: Fraction(1)},
                   f"tower step {step['name']!r}: minimal polynomial is not monic")
            self.minpolys.append(coeffs)

    @property
    def zero_key(self) -> tuple:
        return (0,) * self.height

    def element(self, obj: dict, level: int | None = None) -> dict:
        level = self.height if level is None else level
        out = {}
        for key, val in obj.items():
            exps = tuple(int(e) for e in key.split(",")) if key else ()
            expect(len(exps) == level, "field element arity does not match its tower")
            q = Fraction(val)
            if q:
                out[exps + (0,) * (self.height - level)] = q
        return out

    def reduce(self, e: dict) -> dict:
        work = {k: q for k, q in e.items() if q}
        for k in reversed(range(self.height)):
            m = self.minpolys[k]
            d = len(m) - 1
            while True:
                high = [key for key in work if key[k] >= d]
                if not high:
                    break
                key = max(high, key=lambda kk: kk[k])
                c = work.pop(key)
                base = list(key)
                base[k] -= d
                for j in range(d):
                    for ck, cq in m[j].items():
                        nk = [a + b for a, b in zip(base, ck)]
                        nk[k] += j
                        nk = tuple(nk)
                        s = work.get(nk, Fraction(0)) - c * cq
                        if s:
                            work[nk] = s
                        else:
                            work.pop(nk, None)
        return work

    def add(self, a: dict, b: dict, scale=Fraction(1)) -> dict:
        out = dict(a)
        for k, q in b.items():
            s = out.get(k, Fraction(0)) + scale * q
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return out

    def mul(self, a: dict, b: dict) -> dict:
        acc = {}
        for ka, qa in a.items():
            for kb, qb in b.items():
                key = tuple(x + y for x, y in zip(ka, kb))
                acc[key] = acc.get(key, Fraction(0)) + qa * qb
        return self.reduce(acc)


    def rational_minpoly(self, k: int):
        """m_k as a sympy polynomial over QQ, or None if a coefficient uses a generator."""
        coeffs = []
        for c in self.minpolys[k]:
            if any(key != self.zero_key for key in c):
                return None
            coeffs.append(c.get(self.zero_key, Fraction(0)))
        return sympy.Poly(list(reversed([sympy.Rational(q.numerator, q.denominator) for q in coeffs])), T)


class Param:
    """A decoded parametrization: tower plus three components in u, v."""

    def __init__(self, obj: dict):
        self.tower = Tower(obj["tower"])
        self.components = []
        for comp in obj["components"]:
            names = comp["variables"]
            terms = []
            for term in comp["terms"]:
                exps = dict(zip(names, term["exponents"]))
                expect(set(k for k, e in exps.items() if e) <= {"u", "v"},
                       "witness component uses a variable other than u, v")
                terms.append((exps.get("u", 0), exps.get("v", 0),
                              self.tower.reduce(self.tower.element(term["coefficient"]))))
            self.components.append(terms)
        expect(len(self.components) == 3, "a parametrization has three components")

    def at(self, u: Fraction, v: Fraction, du=0, dv=0) -> list:
        """Component values (or partial derivatives) at the rational point."""
        out = []
        for terms in self.components:
            acc = {}
            for eu, ev, coeff in terms:
                if eu < du or ev < dv:
                    continue
                f = Fraction(1)
                for i in range(du):
                    f *= eu - i
                for i in range(dv):
                    f *= ev - i
                acc = self.tower.add(acc, coeff, f * u ** (eu - du) * v ** (ev - dv))
            out.append(acc)
        return out


def eval_poly(tower: Tower, poly: sympy.Poly, values: list) -> dict:
    """A rational polynomial evaluated at tower elements (one per generator of poly)."""
    powers = [{0: {tower.zero_key: Fraction(1)}} for _ in values]

    def pw(i, n):
        cache = powers[i]
        if n not in cache:
            cache[n] = tower.mul(pw(i, n - 1), values[i])
        return cache[n]

    acc = {}
    for monom, c in poly.terms():
        term = {tower.zero_key: _fraction(c)}
        for i, n in enumerate(monom):
            if n:
                term = tower.mul(term, pw(i, n))
        acc = tower.add(acc, term)
    return tower.reduce(acc)


class Surface:
    """The implicit equation a witness must satisfy: either F(x, y, z) or
    G(x^2 + y^2, z) for a profile-square equation G(w, z)."""

    def __init__(self, F=None, G=None):
        self.F = sympy.Poly(F, X, Y, Z) if F is not None else None
        self.G = sympy.Poly(G, W, Z) if G is not None else None
        expect(not (self.F or self.G).is_zero, "the implicit equation is identically zero")

    def residual(self, tower: Tower, xyz: list) -> dict:
        if self.F is not None:
            return eval_poly(tower, self.F, xyz)
        w = tower.add(tower.mul(xyz[0], xyz[0]), tower.mul(xyz[1], xyz[1]))
        return eval_poly(tower, self.G, [w, xyz[2]])


def sample_points(rng: random.Random, n: int) -> list:
    def q():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5))
    return [(q(), q()) for _ in range(n)]


def check_witness(obj: dict, surface: Surface, rng: random.Random, what: str) -> Param:
    """On the surface at seeded rational points, and Jacobian rank 2."""
    param = Param(obj)
    tower = param.tower
    for u, v in sample_points(rng, 2):
        res = surface.residual(tower, param.at(u, v))
        expect(not res, f"{what}: residual {res} at (u, v) = ({u}, {v})")
    for u, v in sample_points(rng, 3):
        du, dv = param.at(u, v, du=1), param.at(u, v, dv=1)
        minors = [tower.add(tower.mul(du[i], dv[j]), tower.mul(du[j], dv[i]), Fraction(-1))
                  for i, j in ((0, 1), (0, 2), (1, 2))]
        if any(minors):
            return param
    raise Mismatch(f"{what}: Jacobian rank < 2 at every sample point")


def check_real_embedding(param: Param, what: str) -> None:
    """Every tower step's recorded interval holds a real root of its
    minimal polynomial; a step without one must still have a real root."""
    tower = param.tower
    for k, step in enumerate(tower.steps):
        m = tower.rational_minpoly(k)
        expect(m is not None, f"{what}: step {step['name']!r} has a non-rational minimal polynomial")
        emb = step.get("embedding")
        if emb is None:
            expect(m.count_roots() > 0, f"{what}: step {step['name']!r} has no real root")
            continue
        lo, hi = (sympy.Rational(e) for e in emb)
        expect(lo <= hi, f"{what}: step {step['name']!r} has an empty interval")
        expect(m.count_roots(lo, hi) >= 1,
               f"{what}: interval [{lo}, {hi}] of {step['name']!r} holds no root of {m.as_expr()}")


# -- profile squares ------------------------------------------------------------------


def uni_from_json(obj: dict):
    """A revolutio/1 polynomial over QQ in at most one variable, renamed to t."""
    expr = sympy.Integer(0)
    for term in obj["terms"]:
        coeff = term["coefficient"]
        expect(set(coeff) <= {""}, "a profile polynomial has a non-rational coefficient")
        mon = sympy.Integer(1)
        for e in term["exponents"]:
            mon *= T ** e
        expect(len([e for e in term["exponents"] if e]) <= 1, "profile polynomial in two variables")
        expr += sympy.Rational(coeff.get("", "0")) * mon
    return sympy.Poly(expr, T)


def graph_first_coordinate(F) -> sympy.Poly:
    """For F = c*(x^2 + y^2) + g(z): the profile square [-g(t)/c, t]."""
    section = sympy.Poly(sympy.expand(F).subs(Y, 0), X, Z)
    lin = {}
    for (ex, ez), c in section.terms():
        expect(ex % 2 == 0 and ex <= 2, "input is not a graph over the profile square")
        lin.setdefault(ex // 2, sympy.Integer(0))
        lin[ex // 2] += c * T ** ez
    c = sympy.sympify(lin.get(1, 0))
    expect(c.is_number and c != 0, "input is not linear in x^2 + y^2")
    return sympy.Poly(-lin.get(0, 0) / c, T)


def rational_curve_equation(xn, xd, zn, zd):
    """G(w, z) vanishing on [xn/xd, zn/zd](s), by sympy's resultant."""
    G = sympy.resultant(sympy.expand(xn - W * xd), sympy.expand(zn - Z * zd), S)
    expect(sympy.expand(G) != 0, "the rational curve's resultant is identically zero")
    return sympy.expand(G)


def check_decomposition(dec: dict, first, axis, expected_delta) -> tuple:
    p, a, b = (uni_from_json(dec[k]) for k in ("p", "a", "b"))
    delta = max(p.degree(), 0)
    expect(dec["delta"] == delta, f"delta {dec['delta']} but deg p = {delta}")
    if expected_delta is not None:
        expect(delta == expected_delta, f"delta {delta}, expected {expected_delta}")
    if p.degree() > 0:
        expect(sympy.gcd(p, p.diff(T)).degree() == 0, f"p = {p.as_expr()} is not square-free")
    if first is not None:
        expect((p * a ** 2 - first).is_zero,
               f"p*a^2 = {(p * a ** 2).as_expr()} differs from the first coordinate {first.as_expr()}")
    if axis is not None:
        expect((b - axis).is_zero, f"b = {b.as_expr()} differs from the input {axis.as_expr()}")
    return p, a, b


# -- per-command checks -----------------------------------------------------------------


def _refusal(case, code, data) -> None:
    exp = case.expect
    expect(code == exp["exit"], f"exit {code}, expected {exp['exit']}")
    err = data.get("error") or {}
    expect(err.get("code") == exp["error"], f"error code {err.get('code')}, expected {exp['error']}")
    expect(isinstance(err.get("message"), str) and err["message"], "error body without a message")


def _analyze(case, data, rng) -> None:
    exp = case.expect
    flag, args = case.argv[1], case.argv[2:]
    dec = data["p2_decomposition"]
    if flag == "--implicit":
        F = parse_expr(args[0])
        surface = Surface(F=F)
        p, _, _ = check_decomposition(dec, graph_first_coordinate(F), sympy.Poly(T, T), exp.get("delta"))
    elif flag == "--p2":
        xt, bt = (sympy.Poly(parse_expr(a), T) for a in args)
        surface = Surface(G=sympy.resultant(W - xt.as_expr(), Z - bt.as_expr(), T))
        p, _, _ = check_decomposition(dec, xt, bt, exp.get("delta"))
    else:
        G = rational_curve_equation(*(parse_expr(a) for a in args))
        surface = Surface(G=G)
        p, a, b = check_decomposition(dec, None, None, exp.get("delta"))
        on_curve = sympy.expand(G.subs({W: (p * a ** 2).as_expr(), Z: b.as_expr()}, simultaneous=True))
        expect(on_curve == 0, "[p*a^2, b] is not on the rational input curve")

    cplx = data["complex_parametrization"]
    expect(cplx["verification"] == {"on_surface": True, "jacobian_rank": 2},
           "complex witness verification block is not on_surface/rank 2")
    check_witness(cplx, surface, rng, "complex witness")

    rv = data["real_verdict"]
    expect(rv["code"] == exp["verdict"], f"real verdict {rv['code']}, expected {exp['verdict']}")
    if exp["verdict"] in WITNESS_VERDICTS:
        expect(rv["witness"] is not None, "real verdict without a witness")
        expect(rv["verification"] == {"on_surface": True, "jacobian_rank": 2},
               "real witness verification block is not on_surface/rank 2")
        param = check_witness(rv["witness"], surface, rng, "real witness")
        check_real_embedding(param, "real witness")
    else:
        expect(rv["witness"] is None, f"{rv['code']} verdict carries a witness")
    expect(rv["fiber_count"] == exp.get("fiber"), f"fiber count {rv['fiber_count']}, expected {exp.get('fiber')}")

    cp = data["conjecture_predicate"]
    if p.degree() > 0:
        roots = p.count_roots()
        positive = roots > 0 or p.LC() > 0
    else:
        roots, positive = 0, p.as_expr() > 0
    expect(cp["real_root_count"] == roots, f"conjecture predicate counts {cp['real_root_count']} roots, p has {roots}")
    expect(cp["two_dimensional"] == bool(positive), "conjecture predicate's two_dimensional is wrong")
    expect(cp["satisfied"] == bool(roots <= 1 and positive), "conjecture predicate's satisfied is wrong")

    block = data["quadric"]
    if exp.get("quadric") is None:
        expect(block is None, f"unexpected quadric block {block}")
    else:
        expect(block is not None and block.get("class") == exp["quadric"],
               f"quadric block {block}, expected class {exp['quadric']}")


def _quadric(case, data, rng) -> None:
    exp = case.expect
    cls = exp["cls"]
    expect(data["class"] == cls, f"class {data['class']}, expected {cls}")
    over_c, over_r = QUADRIC_TABLE[cls]
    expect(data["polynomial_over_C"] == over_c, f"polynomial_over_C {data['polynomial_over_C']}")
    expect(data["polynomial_over_R"] == over_r, f"polynomial_over_R {data['polynomial_over_R']}")
    if exp["witness"]:
        expect(data["witness"] is not None, "no quadric witness")
        expect(data["verification"]["on_surface"] is True, "witness verification block is not on_surface")
        check_witness(data["witness"], Surface(F=parse_expr(case.argv[2])), rng, "quadric witness")
    else:
        expect(data["witness"] is None, "unexpected quadric witness")


def _opt(argv, name):
    i = argv.index(name)
    return argv[i + 1]


def _p2(case, data, rng) -> None:
    argv, sub = case.argv, case.argv[1]
    if sub == "decompose":
        first = sympy.Poly(parse_expr(_opt(argv, "--x")), T)
        axis = sympy.Poly(parse_expr(_opt(argv, "--z")), T)
        check_decomposition(data["p2_decomposition"], first, axis, None)
    elif sub == "polynomialize":
        xn, xd, zn, zd = (parse_expr(_opt(argv, k)) for k in ("--x-num", "--x-den", "--z-num", "--z-den"))
        G = rational_curve_equation(xn, xd, zn, zd)
        out = data["polynomial_parametrization"]
        xt, zt = uni_from_json(out["x"]), uni_from_json(out["z"])
        expect(xt.degree() > 0 or zt.degree() > 0, "constant polynomial parametrization")
        expect(sympy.expand(G.subs({W: xt.as_expr(), Z: zt.as_expr()}, simultaneous=True)) == 0,
               "polynomial parametrization is not on the rational curve")
    else:
        i = argv.index("--first")
        f = [parse_expr(a) for a in argv[i + 1:i + 3]]
        j = argv.index("--second")
        g = [parse_expr(a).subs(S, T) for a in argv[j + 1:j + 3]]
        expect(data["equivalent"] == case.expect["equivalent"], f"equivalent {data['equivalent']}")
        if data["equivalent"]:
            a, b = sympy.Rational(data["scale"]), sympy.Rational(data["shift"])
            for fc, gc in zip(f, g):
                expect(sympy.expand(fc.subs(T, a * T + b) - gc) == 0, "f(scale*s + shift) != g(s)")


def _catalog(case, data, rng) -> None:
    expect(data["all_passed"] is True, "verify-catalog reports a failure")
    expect(data["catalog"] and all(e["passed"] for e in data["catalog"]), "a catalog entry failed")


def _generator_values(tower: Tower) -> list:
    """40-digit values of the generators: the root in the recorded interval,
    else the greatest real root."""
    vals = []
    for k, step in enumerate(tower.steps):
        m = tower.rational_minpoly(k)
        expect(m is not None, f"step {step['name']!r}: no numeric embedding")
        roots = [r.evalf(45) for r in m.real_roots()]
        expect(roots, f"step {step['name']!r} has no real root")
        emb = step.get("embedding")
        if emb is not None:
            lo, hi = (sympy.Rational(e) for e in emb)
            roots = [r for r in roots if lo <= r <= hi]
            expect(len(roots) >= 1, f"interval of {step['name']!r} holds no root")
        vals.append(mpmath.mpf(str(max(roots))))
    return vals


def _mesh(case, data, rng) -> None:
    n = case.expect["grid"]
    argv = case.argv
    mesh = data["mesh"]
    expect(mesh["vertices"] == n * n and mesh["faces"] == (n - 1) ** 2,
           f"mesh reports {mesh['vertices']} vertices and {mesh['faces']} faces for grid {n}")
    lines = Path(_opt(argv, "--out")).read_text().splitlines()
    verts = [tuple(float(x) for x in ln.split()[1:]) for ln in lines if ln.startswith("v ")]
    faces = [tuple(int(x) for x in ln.split()[1:]) for ln in lines if ln.startswith("f ")]
    expect(len(verts) == n * n, f"{len(verts)} vertices in the OBJ, expected {n * n}")
    expect(len(faces) == (n - 1) ** 2, f"{len(faces)} faces in the OBJ, expected {(n - 1) ** 2}")
    expect(all(len(f) == 4 and all(1 <= i <= n * n for i in f) for f in faces),
           "a face index is out of range")
    tol = Fraction(_opt(argv, "--tol")) if "--tol" in argv else Fraction(1, 10 ** 9)
    src = case.mesh_source
    with mpmath.workdps(40):
        if "report" in src:
            doc = json.loads((REPORTS / src["report"]).read_text())
            obj = {"real": lambda d: d["real_verdict"]["witness"],
                   "complex": lambda d: d["complex_parametrization"],
                   "quadric": lambda d: d["witness"]}[src["witness"]](doc)
            param = Param(obj)
            gens = _generator_values(param.tower)

            def value(comp, u, v):
                acc = mpmath.mpf(0)
                for eu, ev, coeff in comp:
                    mono = mpmath.mpf(u.numerator) / u.denominator
                    mono = mono ** eu * (mpmath.mpf(v.numerator) / v.denominator) ** ev
                    for key, q in coeff.items():
                        g = mpmath.mpf(q.numerator) / q.denominator
                        for gv, e in zip(gens, key):
                            g *= gv ** e
                        acc += g * mono
                return acc
            comps = param.components
        else:
            exprs = [sympy.lambdify((U, V), parse_expr(c), "mpmath") for c in src["param"]]

            def value(comp, u, v):
                return comp(mpmath.mpf(u.numerator) / u.denominator, mpmath.mpf(v.numerator) / v.denominator)
            comps = exprs
        lo, hi = Fraction(-1), Fraction(1)
        worst = 0.0
        for iu in range(n):
            uq = lo + (hi - lo) * iu / (n - 1)
            for iv in range(n):
                vq = lo + (hi - lo) * iv / (n - 1)
                got = verts[iu * n + iv]
                for axis, comp in enumerate(comps):
                    err = abs(mpmath.mpf(got[axis]) - value(comp, uq, vq))
                    worst = max(worst, float(err))
        expect(worst <= tol, f"a vertex is {worst:.3g} from the exact value (tolerance {float(tol):.3g})")


def check_case(case, code, stdout: str, rng: random.Random) -> None:
    """Raise Mismatch unless the output of one call is correct."""
    try:
        data = json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise Mismatch(f"stdout is not JSON: {exc}") from exc
    expect(data.get("schema") == "revolutio/1", "schema is not revolutio/1")
    if "error" in case.expect:
        return _refusal(case, code, data)
    expect(code == case.expect["exit"], f"exit {code}, expected {case.expect['exit']}: {data.get('error')}")
    cmd = case.argv[0]
    {"analyze": _analyze, "quadric": _quadric, "p2": _p2, "verify-catalog": _catalog,
     "mesh": _mesh}[cmd](case, data, rng)
