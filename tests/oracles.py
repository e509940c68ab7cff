"""Independent reference implementations used to derive expected values.

Everything here is deliberately primitive: dense coefficient lists over
Fraction, schoolbook algorithms, no sharing with the package under test.
Oracle results get frozen into the tests next to the computation that
produced them. ``sympy_unipoly`` hands a rational polynomial to sympy, for
the tests whose oracle is sympy.
"""

from fractions import Fraction


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


def sympy_unipoly(f, gen):
    """A rational revolutio UniPoly as a sympy Poly over QQ in ``gen``."""
    import sympy

    terms = {}
    for k, c in f.terms.items():
        q = c.as_rational()
        terms[k] = sympy.Rational(q.numerator, q.denominator)
    return sympy.Poly.from_dict(terms or {(0,): 0}, gen, domain="QQ")
