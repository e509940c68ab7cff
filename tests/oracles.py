"""Independent reference implementations used to derive expected values.

Everything here is deliberately primitive: dense coefficient lists over
Fraction, schoolbook algorithms, no sharing with the package under test.
Tower elements are {exponent tuple: Fraction} dicts reduced a monomial at
a time, and inverted by linear algebra.
Polynomials over a tower are {exponent tuple: element dict} dicts,
multiplied term by term.
Oracle results get frozen into the tests next to the computation that
produced them. ``sympy_unipoly`` hands a rational polynomial to sympy, for
the tests whose oracle is sympy. ``dioph_identity_check`` is the one helper
here built on the package: it puts the package's ``dioph_point`` into the
four-square identity. ``obj_text`` is the OBJ writer mesh export used
to have, one f-string a line, kept as the reference for its file bytes.
``FractionEmbedding`` and ``certify_in_order`` are the isolating-interval
bisection over Fractions and the value-by-value certification mesh export
used to run, kept as the reference for its floats and refinements.
"""

from fractions import Fraction

from revolutio import MultiPoly
from revolutio.realparam import dioph_point


def trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def add(a, b):
    n = max(len(a), len(b))
    return trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])


def neg(a):
    return [-c for c in a]


def sub(a, b):
    return add(a, neg(b))


def mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return trim(out)


def power(a, n):
    out = [Fraction(1)]
    for _ in range(n):
        out = mul(out, a)
    return out


def divmod_(a, b):
    a, b = trim(a), trim(b)
    if not b:
        raise ZeroDivisionError
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    r = list(a)
    while len(r) >= len(b):
        f = r[-1] / b[-1]
        k = len(r) - len(b)
        q[k] = f
        for i, c in enumerate(b):
            r[k + i] -= f * c
        r = trim(r)
    return trim(q), r


def euclid_gcd(a, b):
    a, b = trim(a), trim(b)
    while b:
        a, b = b, divmod_(a, b)[1]
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def deriv(a):
    return trim([a[i] * i for i in range(1, len(a))])


def eval_at(a, x):
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def from_roots(roots):
    out = [Fraction(1)]
    for r in roots:
        out = mul(out, [-Fraction(r), Fraction(1)])
    return out


def sign_variations(values):
    signs = [v for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if (a > 0) != (b > 0))


# -- elements of an extension tower, as {exponent tuple: Fraction} dicts ----
#
# A tower is a list of minimal polynomials, one per generator, bottom first.
# Minimal polynomial k is monic and dense, constant term first; each of its
# coefficients is an element dict over the first k generators.


def tower_reduce(minpolys, terms):
    """Rewrite g_k^d_k by its minimal polynomial, a monomial at a time,
    until every exponent lies below its degree; zero entries dropped."""
    work = {e: Fraction(c) for e, c in terms.items() if c}
    while True:
        hits = [
            (k, e) for e in work for k in range(len(minpolys)) if e[k] >= len(minpolys[k]) - 1
        ]
        if not hits:
            return work
        k, e = max(hits)
        d = len(minpolys[k]) - 1
        c = work.pop(e)
        for j, coeff in enumerate(minpolys[k][:-1]):
            for pe, q in coeff.items():
                key = list(e)
                key[k] += j - d
                for i, x in enumerate(pe):
                    key[i] += x
                key = tuple(key)
                work[key] = work.get(key, Fraction(0)) - c * q
                if not work[key]:
                    del work[key]


def tower_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + c
        if not out[e]:
            del out[e]
    return out


def tower_neg(a):
    return {e: -c for e, c in a.items()}


def tower_mul(minpolys, a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, Fraction(0)) + ca * cb
    return tower_reduce(minpolys, out)


def tower_basis(minpolys):
    basis = [()]
    for m in minpolys:
        basis = [b + (x,) for b in basis for x in range(len(m) - 1)]
    return basis


def tower_inverse(minpolys, a):
    """The inverse of ``a`` from the linear system ``a * y == 1`` in the
    power basis, by Gauss-Jordan elimination; None when ``a`` is a zero
    divisor (the system is singular)."""
    basis = tower_basis(minpolys)
    n = len(basis)
    cols = [tower_mul(minpolys, a, {b: Fraction(1)}) for b in basis]
    rows = [[cols[j].get(basis[i], Fraction(0)) for j in range(n)] + [Fraction(i == 0)] for i in range(n)]
    for c in range(n):
        pivot = next((r for r in range(c, n) if rows[r][c]), None)
        if pivot is None:
            return None
        rows[c], rows[pivot] = rows[pivot], rows[c]
        lead = rows[c][c]
        rows[c] = [x / lead for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return {basis[i]: rows[i][n] for i in range(n) if rows[i][n]}


def tower_lift(a, extra):
    """``a`` over a tower with ``extra`` more generators on top."""
    return {e + (0,) * extra: c for e, c in a.items()}


# -- polynomials over a tower, as {exponent tuple: element dict} dicts -------


def poly_add(a, b):
    out = dict(a)
    for k, c in b.items():
        out[k] = tower_add(out.get(k, {}), c)
        if not out[k]:
            del out[k]
    return out


def poly_mul(minpolys, a, b):
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            out[k] = tower_add(out.get(k, {}), tower_mul(minpolys, ca, cb))
    return {k: c for k, c in out.items() if c}


def poly_substitute(minpolys, f, images):
    """f with its variable j replaced by the polynomial ``images[j]``; every
    image in the same variables. Each term is expanded on its own, every
    power by repeated multiplication."""
    nvars = len(next(iter(images[0])))
    total = {}
    for key, c in f.items():
        term = {(0,) * nvars: c}
        for image, e in zip(images, key):
            for _ in range(e):
                term = poly_mul(minpolys, term, image)
        total = poly_add(total, term)
    return total


def obj_text(verts, n):
    """The OBJ text of the n*n vertex triples ``verts`` (row-major in u then
    v) and the quads between them, written a line at a time."""
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
    return "\n".join(lines) + "\n"


# -- certified evaluation, a value at a time, over Fraction intervals ----------


class NotConverged(Exception):
    """``certify_in_order`` gave up on a value after its refinement cap."""


def power_range(iv, e):
    """Exact range of x^e for x in the interval iv."""
    lo, hi = iv[0] ** e, iv[1] ** e
    if e and e % 2 == 0 and iv[0] < 0 < iv[1]:
        return Fraction(0), max(lo, hi)
    return min(lo, hi), max(lo, hi)


def fraction_range(intervals, names, key):
    """Range of the monomial ``key`` by Fraction interval products."""
    lo = hi = Fraction(1)
    for name, e in zip(names, key):
        plo, phi = power_range(intervals[name], e)
        products = (lo * plo, lo * phi, hi * plo, hi * phi)
        lo, hi = min(products), max(products)
    return lo, hi


class FractionEmbedding:
    """Isolating intervals with Fraction ends, each halved by the signs of
    its minimal polynomial (a Fraction list, lowest degree first) at its
    low end and at its midpoint: the bisection mesh export used to run.
    ``refined_at`` logs, per refinement, the ``at`` passed to
    ``refine_all``."""

    def __init__(self, names, intervals, minpolys):
        self.names = list(names)
        self.intervals = {name: tuple(map(Fraction, intervals[name])) for name in self.names}
        self.minpolys = minpolys
        self.refined_at = []

    def refine_all(self, at=None):
        self.refined_at.append(at)
        for name, (lo, hi) in self.intervals.items():
            if lo == hi:
                continue
            p = self.minpolys[name]
            mid = (lo + hi) / 2
            at_mid = eval_at(p, mid)
            if at_mid == 0:
                self.intervals[name] = (mid, mid)
            elif eval_at(p, lo) * at_mid < 0:
                self.intervals[name] = (lo, mid)
            else:
                self.intervals[name] = (mid, hi)

    def enclosure(self, value):
        """``(lo, hi)`` of ``value``, a ``{key: Fraction}`` dict, summed term
        by term from the monomials' interval products."""
        lo = hi = Fraction(0)
        for key, q in value.items():
            mlo, mhi = fraction_range(self.intervals, self.names, key)
            tlo, thi = sorted((q * mlo, q * mhi))
            lo, hi = lo + tlo, hi + thi
        return lo, hi


def _overflows(x):
    try:
        float(x)
    except OverflowError:
        return True
    return False


def certify_in_order(values, emb, tol, cap=400):
    """The float nearest the midpoint of each value's enclosure, in order,
    refining ``emb`` while the current value is not narrower than ``tol``:
    the per-vertex scan of mesh export. A value whose whole enclosure
    rounds beyond the float range, before a refinement or after the last
    one, is OverflowError; a value still too wide after ``cap``
    refinements is NotConverged."""
    out = []
    for i, value in enumerate(values):
        refinements = 0
        while True:
            lo, hi = emb.enclosure(value)
            if hi - lo < tol:
                break
            if (lo > 0 and _overflows(lo)) or (hi < 0 and _overflows(hi)):
                raise OverflowError(i)
            emb.refine_all(i)
            refinements += 1
            if refinements == cap:
                raise NotConverged(i)
        out.append(float((lo + hi) / 2))
    return out


def dioph_identity_check(q1, q2, q3, q4):
    """Residual of the four-square identity x^2 + y^2 - z^2 = -(q1 q4 -
    q2 q3)^2 at ``dioph_point(q1, q2, q3, q4)``, as a MultiPoly;
    identically zero for any inputs."""
    qs = (q if isinstance(q, MultiPoly) else MultiPoly.constant(q) for q in (q1, q2, q3, q4))
    q1, q2, q3, q4 = qs
    x, y, z = dioph_point(q1, q2, q3, q4)
    d = q1 * q4 - q2 * q3
    return x * x + y * y - z * z + d * d


def sympy_unipoly(f, gen):
    """A rational revolutio UniPoly as a sympy Poly over QQ in ``gen``."""
    import sympy

    terms = {}
    for k, c in f.terms.items():
        q = c.as_rational()
        terms[k] = sympy.Rational(q.numerator, q.denominator)
    return sympy.Poly.from_dict(terms or {(0,): 0}, gen, domain="QQ")
