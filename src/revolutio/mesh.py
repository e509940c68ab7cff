"""OBJ export of parametrized patches on a rational grid.

Vertices are exact values at rational grid points followed by certified
interval rounding, so the file is deterministic for fixed inputs. The exact
values are tabulated in integers (Knuth, TAOCP Vol. 2, 4.6.4): each
component is split once into one integer ``(u, v)`` coefficient array per
power-basis monomial of its tower, over one common denominator, and scaled
so that with grid coordinates written as integers over ``Du`` and ``Dv``
(each grid side computed in integers over its least common denominator)
every vertex value is an integer over the one denominator
``L * Du^du * Dv^dv``. Each grid row takes one Horner pass in ``u`` per
monomial, which gives the monomial's coefficients in ``v`` on that row;
rows are streamed. A component with only the unit monomial (every
component over QQ) then takes one Horner pass in ``v`` over the whole row,
whose last step is one correctly rounded division per vertex
(``_horner_div``). The row's other components
are bounded first: a value's width is at most the sum over monomials of
the monomial's width times ``sum_b |c_b| * top^b``, its coefficients in
``v`` against the largest ``|v|`` of the grid. When that bound is under
the tolerance for every component, no value is due a refinement, and each
component takes one such pass in ``v`` of the weighted polynomial
``sum_m mids[m] * c_m``, the monomials' coefficients weighted by their
midpoints: by linearity the same integers, and so the same floats, as
the monomial by monomial enclosures. Otherwise the row goes to
``numeric_eval`` in column form ``(keys, den, columns)``, one Horner pass
in ``v`` per monomial, which certifies it in order. No Fraction,
FieldElement or per-vertex tuple is built. ``export_obj`` formats and
writes the file ``BLOCK_ROWS`` grid rows at a time, one ``%`` operation
over a block's flattened vertex floats and one over its quad corners, so
beyond the vertex list its memory grows with a block, not with the grid; a
grid of up to ``BLOCK_ROWS`` points per side is one block. A grid side
takes at most ``MAX_GRID`` points. Parametrizations over towers without a
full real embedding are refused (NoRealEmbedding from
``default_real_embedding``); a grid side out of range, a vertex beyond the
float range, and an output path that cannot be written, are InvalidInput.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import mul

from .errors import InvalidInput
from .numeric import _as_float, _tolerance, default_real_embedding, numeric_eval
from .poly import _horner_int


class _Tabulation:
    """One component's values at the grid points ``u = U/du_den``,
    ``v = V/dv_den`` with integer ``U`` and ``V``.

    ``monos[m][b][a]`` is the coefficient of ``u^a v^b`` in the ``m``-th
    power-basis monomial of ``keys``, times ``common * du_den^(du-a) *
    dv_den^(dv-b)``, where ``common`` is the common denominator of all the
    component's coefficients; every value is then an integer over ``den =
    common * du_den^du * dv_den^dv``.
    """

    def __init__(self, c, du_den: int, dv_den: int):
        for var in c.vars:
            if var not in ("u", "v"):
                raise InvalidInput(f"no value for variable {var!r}")
        terms = []
        for key, fe in c.terms.items():
            exps = dict(zip(c.vars, key))
            terms.append((exps.get("u", 0), exps.get("v", 0), fe))
        du = max((a for a, _, _ in terms), default=0)
        dv = max((b for _, b, _ in terms), default=0)
        common = lcm(*(fe.den for _, _, fe in terms))
        self.den = common * du_den ** du * dv_den ** dv
        monos: dict = {}  # by power-basis number
        for a, b, fe in terms:
            scale = common * du_den ** (du - a) * dv_den ** (dv - b) // fe.den
            for m, n in enumerate(fe.num):
                if n:
                    by_v = monos.setdefault(m, [[0] * (du + 1) for _ in range(dv + 1)])
                    by_v[b][a] = n * scale
        if not monos:  # the zero component: one zero unit column
            monos[0] = [[0]]
        basis = c.tower.basis
        self.keys = tuple(basis[m] for m in monos)
        self.rational = not any(monos)  # the unit monomial, number 0, only
        self.monos = list(monos.values())

    def at_u(self, u: int) -> list:
        """Per monomial, in ``keys`` order, its coefficients in ``v`` on grid
        row ``u``: one Horner pass in ``u`` each."""
        return [[_horner_int(cs, u) for cs in by_v] for by_v in self.monos]


def _horner_at(p: list, xs: list) -> list:
    """The integer polynomial ``p`` (lowest degree first) at every x in ``xs``."""
    acc = [p[-1]] * len(xs)
    for c in reversed(p[:-1]):
        acc = [a * x + c for a, x in zip(acc, xs)]
    return acc


def _horner_div(p: list, xs: list, den: int) -> list:
    """The floats nearest ``p(x) / den`` for every x in ``xs``: Horner's rule
    in integers, its last step fused with the division; OverflowError for
    a value beyond the float range."""
    c = p[0]
    if len(p) == 1:
        return [c / den] * len(xs)
    return [(a * x + c) / den for a, x in zip(_horner_at(p[1:], xs), xs)]


def _grid(lo: Fraction, hi: Fraction, n: int) -> tuple:
    """The n points lo + (hi - lo) * i / (n - 1) as integers over their least
    common denominator."""
    # the points are (a + k*i) / D; their reduced denominators have lcm D / g,
    # with g the gcd of D and the progression, which is gcd(D, a, k)
    a = lo.numerator * hi.denominator * (n - 1)
    k = hi.numerator * lo.denominator - lo.numerator * hi.denominator
    den = lo.denominator * hi.denominator * (n - 1)
    g = gcd(den, a, k)
    return [(a + k * i) // g for i in range(n)], den // g


#: The most points per side ``sample_grid`` takes: work and memory grow as
#: n^2.
MAX_GRID = 512

#: Grid rows that ``export_obj`` formats and writes at a time.
BLOCK_ROWS = 64


def sample_grid(s, n: int, u_range, v_range, tol=Fraction(1, 10 ** 9)) -> list:
    """n*n certified vertex triples, row-major in u then v."""
    if n < 2:
        raise InvalidInput("grid needs at least 2 points per side")
    if n > MAX_GRID:
        raise InvalidInput(f"grid has at most {MAX_GRID} points per side")
    (u0, u1), (v0, v1) = u_range, v_range
    u0, u1, v0, v1 = (Fraction(q) for q in (u0, u1, v0, v1))
    if u0 >= u1 or v0 >= v1:
        raise InvalidInput("empty parameter box")
    embedding = default_real_embedding(s.tower) if s.tower.height else None
    us, du_den = _grid(u0, u1, n)
    vs, dv_den = _grid(v0, v1, n)
    tabs = [_Tabulation(c, du_den, dv_den) for c in s.components]
    tol = _tolerance(tol)
    top = max(abs(vs[0]), abs(vs[-1]))
    top_powers = [top ** b for b in range(max(len(tab.monos[0]) for tab in tabs))]
    verts = []
    for u in us:
        at_u = [tab.at_u(u) for tab in tabs]
        irrational = [(tab, cs) for tab, cs in zip(tabs, at_u) if not tab.rational]
        values = iter(_weighted(irrational, embedding, tol, vs, top_powers) if irrational else ())
        coords = [_divide(cs[0], vs, tab.den) if tab.rational else next(values) for tab, cs in zip(tabs, at_u)]
        verts += zip(*coords)
    return verts


def _weighted(row: list, embedding, tol: Fraction, vs: list, top_powers: list) -> list:
    """One float list per ``(tabulation, coefficients in v)`` of ``row``, the
    irrational components of one grid row, as ``numeric_eval`` gives them.

    A component's value at ``v`` has the width ``sum_m widths[m] *
    |sum_b c[m][b] v^b|``, at most ``sum_m widths[m] * sum_b |c[m][b]| *
    top^b`` with ``top`` the largest ``|v|``. When that bound is under
    ``tol`` for every component, no value is due a refinement, and the
    midpoints are one Horner pass in ``v`` of the weighted polynomial
    ``sum_m mids[m] * c[m]``: by linearity, the integers ``numeric_eval``
    takes from the columns. Otherwise, or for a value beyond the float
    range, the row goes to ``numeric_eval`` in column form.
    """
    tn, td = tol.numerator, tol.denominator
    eden = embedding.den
    spans = [embedding.ranges(tab.keys) for tab, _ in row]
    if all(sum([w * sum(map(mul, map(abs, cs), top_powers)) for cs, w in zip(by_m, widths) if w]) * td
           < tn * tab.den * eden for (tab, by_m), (_, widths) in zip(row, spans)):
        out = []
        try:
            for (tab, by_m), (mids, _) in zip(row, spans):
                weighted = [sum(map(mul, mids, cs)) for cs in zip(*by_m)]
                out.append(_horner_div(weighted, vs, 2 * tab.den * eden))
            return out
        except OverflowError:
            pass  # numeric_eval raises for the first value beyond the float range, in order
    columns = [(tab.keys, tab.den, [_horner_at(cs, vs) for cs in by_m]) for tab, by_m in row]
    return numeric_eval(columns, embedding, tol)


def _divide(p: list, xs: list, den: int) -> list:
    """The floats nearest ``p(x) / den`` for every x in ``xs``."""
    try:
        return _horner_div(p, xs, den)
    except OverflowError:
        return [_as_float(x, den) for x in _horner_at(p, xs)]  # raises for the first value beyond the float range


def export_obj(s, n: int, u_range, v_range, path: str, tol=Fraction(1, 10 ** 9)) -> dict:
    """Write an OBJ quad mesh; returns {'vertices': n*n, 'faces': (n-1)^2}."""
    verts = sample_grid(s, n, u_range, v_range, tol)
    step = BLOCK_ROWS * n
    try:
        with open(path, "w") as fh:
            fh.write(f"# revolutio parametric patch\n# grid {n}x{n}\n")
            for start in range(0, n * n, step):
                block = verts[start:start + step]
                fh.write("v %.12g %.12g %.12g\n" * len(block) % tuple(chain.from_iterable(block)))
            # the quad of grid row iu and column iv starts at vertex a = iu*n + iv + 1
            for start in range(0, n * (n - 1), step):
                corners = [
                    a + k for a in range(start + 1, min(start + step, n * (n - 1))) if a % n for k in (0, 1, n + 1, n)
                ]
                fh.write("f %d %d %d %d\n" * (len(corners) // 4) % tuple(corners))
    except OSError as exc:
        raise InvalidInput(f"cannot write mesh: {exc}") from exc
    return {"vertices": n * n, "faces": (n - 1) * (n - 1)}
