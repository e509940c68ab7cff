"""OBJ export of parametrized patches on a rational grid.

Vertices are exact values at rational grid points followed by certified
interval rounding, so the file is deterministic for fixed inputs. The exact
values are tabulated in integers (Knuth, TAOCP Vol. 2, 4.6.4): each
component is split once into one integer ``(u, v)`` coefficient array per
power-basis monomial of its tower, over one common denominator, and scaled
so that with grid coordinates written as integers over ``Du`` and ``Dv``
every vertex value is an integer over the one denominator
``L * Du^du * Dv^dv``. Each grid row takes one Horner pass in ``u`` per
monomial, each vertex one in ``v``; rows are streamed. The integers go
straight to floats, with no Fraction or FieldElement per vertex: a
component with only the unit monomial (every component over QQ) is one
correctly rounded division, any other hands its ``(monomial, int)`` pairs
and denominator to ``numeric_eval``. Parametrizations over towers without
a full real embedding are refused (NoRealEmbedding propagates from the
evaluator); a vertex beyond the float range is InvalidInput.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import InvalidInput
from .numeric import _as_float, _tolerance, default_real_embedding, numeric_eval
from .poly import _horner_int


class _Tabulation:
    """One component's values at the grid points ``u = U/du_den``,
    ``v = V/dv_den`` with integer ``U`` and ``V``.

    ``monos[m][b][a]`` is the coefficient of ``u^a v^b`` in power-basis
    monomial ``m``, times ``common * du_den^(du-a) * dv_den^(dv-b)``, where
    ``common`` is the common denominator of all the component's
    coefficients; every value is then an integer over ``den = common *
    du_den^du * dv_den^dv``.
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
        common = lcm(*(q.denominator for _, _, fe in terms for q in fe.terms.values()))
        self.den = common * du_den ** du * dv_den ** dv
        self.monos: dict = {}
        for a, b, fe in terms:
            scale = common * du_den ** (du - a) * dv_den ** (dv - b)
            for m, q in fe.terms.items():
                by_v = self.monos.setdefault(m, [[0] * (du + 1) for _ in range(dv + 1)])
                by_v[b][a] = q.numerator * (scale // q.denominator)
        self.rational = not any(any(m) for m in self.monos)

    def row(self, u: int) -> list:
        """Per monomial, the coefficients in ``v`` on grid row ``u``."""
        return [(m, [_horner_int(cs, u) for cs in by_v]) for m, by_v in self.monos.items()]

    def value(self, row: list, v: int) -> list:
        """The value at ``(u, v)`` as ``(monomial, int)`` pairs over ``den``."""
        return [(m, n) for m, cs in row if (n := _horner_int(cs, v))]


def _grid(lo: Fraction, hi: Fraction, n: int) -> tuple:
    """The n points lo + (hi - lo) * i / (n - 1) as integers over one denominator."""
    pts = [lo + (hi - lo) * i / (n - 1) for i in range(n)]
    den = lcm(*(q.denominator for q in pts))
    return [q.numerator * (den // q.denominator) for q in pts], den


def sample_grid(s, n: int, u_range, v_range, tol=Fraction(1, 10 ** 9)) -> list:
    """n*n certified vertex triples, row-major in u then v."""
    if n < 2:
        raise InvalidInput("grid needs at least 2 points per side")
    (u0, u1), (v0, v1) = u_range, v_range
    u0, u1, v0, v1 = (Fraction(q) for q in (u0, u1, v0, v1))
    if u0 >= u1 or v0 >= v1:
        raise InvalidInput("empty parameter box")
    embedding = default_real_embedding(s.tower) if s.tower.height else None
    us, du_den = _grid(u0, u1, n)
    vs, dv_den = _grid(v0, v1, n)
    tabs = [_Tabulation(c, du_den, dv_den) for c in s.components]
    tol = _tolerance(tol)
    verts = []
    for u in us:
        rows = [tab.row(u) for tab in tabs]
        for v in vs:
            verts.append(tuple([
                _as_float(sum(n for _, n in tab.value(row, v)), tab.den) if tab.rational
                else numeric_eval(tab.value(row, v), embedding, tol, den=tab.den).value
                for tab, row in zip(tabs, rows)
            ]))
    return verts


def export_obj(s, n: int, u_range, v_range, path: str, tol=Fraction(1, 10 ** 9)) -> dict:
    """Write an OBJ quad mesh; returns {'vertices': n*n, 'faces': (n-1)^2}."""
    verts = sample_grid(s, n, u_range, v_range, tol)
    lines = ["# revolutio parametric patch", f"# grid {n}x{n}"]
    for x, y, z in verts:
        lines.append(f"v {x:.12g} {y:.12g} {z:.12g}")
    for iu in range(n - 1):
        for iv in range(n - 1):
            a = iu * n + iv + 1
            b = a + 1
            c = a + n + 1
            d = a + n
            lines.append(f"f {a} {b} {c} {d}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return {"vertices": n * n, "faces": (n - 1) * (n - 1)}
