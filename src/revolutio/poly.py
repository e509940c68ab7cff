"""Sparse exact polynomials over extension towers.

There is one polynomial arithmetic. MultiPoly holds up to four variables
(the pipeline itself needs at most three: x, y, z, or u, v, or a curve
parameter with w and z); it keeps no zero coefficients and canonicalizes on
construction, so structural equality is semantic equality. UniPoly is a
MultiPoly in exactly one variable that adds only degree, leading
coefficient, division with remainder and composition. Every arithmetic
result with exactly one variable is a UniPoly, so the profile polynomials
p, a and b enter bivariate witnesses with no conversion. The univariate
toolkit (gcd, inversion modulo a polynomial, square-free test, Yun
decomposition, rational roots, Sturm counts on one integer chain) together
with substitution, exact division and resultants by evaluation and
interpolation is everything the parametrization pipeline needs; there is
deliberately no general factorization. Tower inversion and the square-free
check on minimal polynomials run through it too.

There is one way to build a polynomial inside the package.
``MultiPoly(vars, terms, tower)`` (and ``UniPoly(var, coeffs, tower)``)
is the validating constructor, for scalars and input from outside the
package: it sorts the variables, checks the exponents and coerces every
coefficient onto one tower. Everything else is built by
``MultiPoly._canonical``, which trusts nonzero FieldElements over the given
tower keyed by the sorted variables: arithmetic results, ``zero``,
``constant`` and ``variable`` of both classes, and ``with_vars``, the one
method that re-keys a polynomial onto other variables or lifts it onto a
taller tower. The zero polynomial has degree -1.

Products, powers and ``substitute`` run on one packed-integer kernel
(Kronecker substitution, ``_Kronecker``); only a product with a one-term
operand skips it and multiplies coefficient by coefficient, and a
``substitute`` of a constant returns it over the images' variables. A tower
coefficient already is integer numerators over the power basis and one
denominator (``FieldElement.num``, ``FieldElement.den``), so the kernel
only scales each coefficient's numerators to the polynomial's common
denominator: a polynomial becomes one integer coefficient list per basis
monomial. Each list is packed into one Python int, whose products run in
C; every product is reduced at once with the tower's basis products
(``BasisProducts.product``, as for one element), and only the final result
is unpacked, straight into numerators over the result's denominator. The
kernel sizes its own layout: callers pass no bounds, and a first pass over
the run's program on bounds gives the largest degree in each variable and
the largest span of total degrees of any value. The lists are laid out by
one slot formula with a 0/1 grade chosen per run: grade 0 is dense over
the box of those degrees; grade 1 makes the top coordinate the total
degree, so a homogeneous polynomial fills one row of the other variables'
widths, and each value is stored from its lowest row on. A run takes grade
1 exactly when its widest value under it, one row per total degree the
value spans, is smaller than the box. The layout is a linear bijection of
the exponents fixed before any product, so the choice is exact: the
witnesses of the ``t^k`` families, homogeneous in ``(u, v)``, are checked
on rows of ``k + 1`` slots rather than boxes of ``(k + 1)^2``. A
substitution groups its terms by their exponent of the first image and
combines the groups in Horner order in that image (``_packed_sum``), so it
pays one full-size product per distinct exponent, not one per term; every
power, the gaps between exponents included, comes from one list of
repeated squares per image.

Resultants, rational roots and square-free decompositions run on dense lists
of plain ints as well.
``resultant_eliminate`` puts each polynomial over one denominator and makes
each tower generator one more variable of an integer polynomial, reading the
coefficients' numerators as they are stored; evaluation, Newton interpolation
and the subresultant PRS stay in Z, and only the result is reduced through
the tower, so it is the Sylvester determinant over any tower. When either
polynomial has degree 1 in the eliminated variable the determinant has a
closed form, (-1)^n sum_j f_j (-g0)^j g1^(n-j) for g = g1*x + g0 and
n = deg f, taken in one packed run with no evaluation points.
``rational_roots`` isolates the real roots of the square-free part by integer
bisection on one Sturm chain, so its cost does not grow with the divisors of
the coefficients.
``squarefree_decompose`` runs Yun's algorithm on the primitive integer
multiple of its input, with primitive-PRS gcds and exact divisions in Z[t].

Every real-root decision (Sturm counts, rational roots, root isolation and
refinement in ``numeric``) runs on one integer core: ``_sturm_chain``, which
ends at gcd(p, p') and so tests square-freeness too, ``_hsign``, a sign at a
homogeneous point with ``b = 0`` for +-infinity, and ``_sign_changes``.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence, Union

from .errors import InvalidInput, NotDivisible, ZeroDivisor
from .tower import QQ, ExtensionTower, FieldElement, _format_terms, join_towers

Scalar = Union[int, Fraction, FieldElement]

MAX_VARS = 4


def _sorted_vars(vars_: Iterable[str]) -> tuple:
    vars_ = tuple(sorted(vars_))
    if len(vars_) > MAX_VARS:
        raise InvalidInput(f"at most {MAX_VARS} variables are supported")
    if len(set(vars_)) != len(vars_):
        raise InvalidInput("duplicate variable")
    return vars_


def _coerce_scalar(x: Scalar, tower: ExtensionTower) -> FieldElement:
    if isinstance(x, FieldElement):
        t = join_towers(x.tower, tower)
        return x.lift_to(t)
    return tower.rational(x)


class MultiPoly:
    """Sparse polynomial in up to four variables over a tower.

    Variables are always stored sorted, so canonical forms are unique.
    """

    __slots__ = ("vars", "tower", "terms")

    def __init__(self, vars_: Sequence[str], terms: Mapping[tuple, Scalar], tower: ExtensionTower = QQ):
        vars_ = tuple(vars_)
        svars = _sorted_vars(vars_)
        order = sorted(range(len(vars_)), key=vars_.__getitem__)
        t = tower
        for c in terms.values():
            if isinstance(c, FieldElement):
                t = join_towers(t, c.tower)
        out: dict = {}
        for key, c in terms.items():
            if len(key) != len(vars_):
                raise InvalidInput("exponent tuple length mismatch")
            if any(e < 0 for e in key):
                raise InvalidInput("negative exponent")
            fe = _coerce_scalar(c, t)
            if not fe.is_zero():
                # one fixed permutation re-orders every key: distinct keys stay distinct
                out[tuple(key[i] for i in order)] = fe
        self.vars = svars
        self.tower = t
        self.terms = out

    @staticmethod
    def _canonical(vars_: tuple, terms: dict, tower: ExtensionTower) -> "MultiPoly":
        """Wrap terms that are already nonzero FieldElements over ``tower``,
        keyed in the order of the sorted ``vars_``, skipping ``__init__``.
        This is where every polynomial built inside the package gets its
        class: a UniPoly when there is exactly one variable, else a
        MultiPoly."""
        p = object.__new__(UniPoly if len(vars_) == 1 else MultiPoly)
        p.vars, p.tower, p.terms = vars_, tower, terms
        return p

    @classmethod
    def zero(cls, vars_: Sequence[str] = (), tower: ExtensionTower = QQ) -> "MultiPoly":
        return MultiPoly._canonical(_sorted_vars(vars_), {}, tower)

    @classmethod
    def constant(cls, c: Scalar, vars_: Sequence[str] = (), tower: ExtensionTower = QQ) -> "MultiPoly":
        vars_ = _sorted_vars(vars_)
        c = _coerce_scalar(c, tower)
        return MultiPoly._canonical(vars_, {} if c.is_zero() else {(0,) * len(vars_): c}, c.tower)

    @classmethod
    def variable(cls, var: str, vars_: Sequence[str] = (), tower: ExtensionTower = QQ) -> "MultiPoly":
        vars_ = tuple(vars_)
        vars_ = _sorted_vars(vars_ if var in vars_ else vars_ + (var,))
        return MultiPoly._canonical(vars_, {tuple(int(v == var) for v in vars_): tower.one()}, tower)

    # -- structure ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in k) for k in self.terms)

    def constant_value(self) -> FieldElement:
        if not self.is_constant():
            raise InvalidInput("not a constant polynomial")
        if self.is_zero():
            return self.tower.zero()
        return next(iter(self.terms.values()))

    @property
    def total_degree(self) -> int:
        """-1 for the zero polynomial."""
        return max((sum(k) for k in self.terms), default=-1)

    def degree_in(self, var: str) -> int:
        """-1 for the zero polynomial."""
        if var not in self.vars:
            return 0 if self.terms else -1
        i = self.vars.index(var)
        return max((k[i] for k in self.terms), default=-1)

    def uses(self, var: str) -> bool:
        return self.degree_in(var) > 0

    def with_vars(self, vars_: Sequence[str], tower: ExtensionTower | None = None) -> "MultiPoly":
        """Re-keyed onto the variables ``vars_``, which may add variables or
        drop unused ones, with every coefficient lifted to ``tower`` (default:
        this polynomial's tower), which must have this tower as a prefix."""
        vars_ = _sorted_vars(vars_)
        missing = [v for v in self.vars if v not in vars_ and self.uses(v)]
        if missing:
            raise InvalidInput(f"cannot drop used variables {missing}")
        tower = self.tower if tower is None else tower
        pos = [vars_.index(v) if v in vars_ else None for v in self.vars]
        terms = {}
        for key, c in self.terms.items():
            nk = [0] * len(vars_)
            for i, e in zip(pos, key):
                if e:
                    nk[i] = e
            terms[tuple(nk)] = c.lift_to(tower)
        return MultiPoly._canonical(vars_, terms, tower)

    def drop_unused_vars(self) -> "MultiPoly":
        used = tuple(v for v in self.vars if self.uses(v))
        return self.with_vars(used)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, FieldElement)):
            return self.is_constant() and self.constant_value() == other
        if not isinstance(other, MultiPoly):
            return NotImplemented
        a = self.drop_unused_vars()
        b = other.drop_unused_vars()
        return a.vars == b.vars and a.terms == b.terms

    def __hash__(self):
        if self.is_constant():  # equal to its value, so hashed like it
            return hash(self.constant_value())
        a = self.drop_unused_vars()
        return hash((a.vars, frozenset(a.terms.items())))

    # -- arithmetic -----------------------------------------------------------

    def _binary(self, other):
        if isinstance(other, (int, Fraction, FieldElement)):
            other = MultiPoly.constant(other, self.vars, self.tower)
        if not isinstance(other, MultiPoly):
            return None, None
        if other.vars == self.vars and other.tower == self.tower:
            return self, other
        vars_ = tuple(sorted(set(self.vars) | set(other.vars)))
        t = join_towers(self.tower, other.tower)
        return self.with_vars(vars_, t), other.with_vars(vars_, t)

    def __add__(self, other):
        a, b = self._binary(other)
        if a is None:
            return NotImplemented
        out = dict(a.terms)
        for k, c in b.terms.items():
            s = out[k] + c if k in out else c
            if s.is_zero():
                del out[k]
            else:
                out[k] = s
        return MultiPoly._canonical(a.vars, out, a.tower)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._canonical(self.vars, {k: -c for k, c in self.terms.items()}, self.tower)

    def __sub__(self, other):
        a, b = self._binary(other)
        if a is None:
            return NotImplemented
        return a + (-b)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        a, b = self._binary(other)
        if a is None:
            return NotImplemented
        if a.is_zero() or b.is_zero():
            return MultiPoly._canonical(a.vars, {}, a.tower)
        if len(a.terms) == 1 or len(b.terms) == 1:
            # one term: shift the exponents; over a reducible tower a product
            # of two nonzero coefficients can be zero
            if len(a.terms) == 1:
                a, b = b, a
            ((kb, cb),) = b.terms.items()
            terms = {}
            for k, c in a.terms.items():
                p = c * cb
                if not p.is_zero():
                    terms[tuple(map(operator.add, k, kb))] = p
            return MultiPoly._canonical(a.vars, terms, a.tower)
        return _Kronecker(a.vars, a.tower).run([a, b], lambda k, ab: k.mul(*ab))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise InvalidInput("negative exponent")
        if n == 0:
            return MultiPoly._canonical(self.vars, {(0,) * len(self.vars): self.tower.one()}, self.tower)
        if self.is_zero():
            return self
        return _Kronecker(self.vars, self.tower).run([self], lambda k, leaves: k.power([leaves[0]], n))

    def _degrees(self) -> list:
        """Degree in each variable; 0 for the zero polynomial."""
        return [max(e) for e in zip(*self.terms)] if self.terms else [0] * len(self.vars)

    def eval_at(self, point: Mapping[str, Scalar]) -> FieldElement:
        t = self.tower
        vals = []
        for v in self.vars:
            if v not in point:
                raise InvalidInput(f"no value for variable {v!r}")
            x = _coerce_scalar(point[v], t)
            t = x.tower
            vals.append(x)
        # powers[i][e] is vals[i]^e, extended by one product as exponents need
        powers = [[None, x.lift_to(t)] for x in vals]
        acc = t.zero()
        for k, c in self.terms.items():
            term = c.lift_to(t)
            for pw, e in zip(powers, k):
                if e:
                    while len(pw) <= e:
                        pw.append(pw[-1] * pw[1])
                    term = term * pw[e]
            acc = acc + term
        return acc

    def as_unipoly_in(self, var: str) -> list:
        """Dense coefficient list in ``var``; entries are polynomials in the
        rest (UniPolys when one variable is left)."""
        if var not in self.vars:
            raise InvalidInput(f"{var!r} is not a variable of this polynomial")
        i = self.vars.index(var)
        rest = self.vars[:i] + self.vars[i + 1:]
        buckets: list = [dict() for _ in range(self.degree_in(var) + 1)]
        for k, c in self.terms.items():
            buckets[k[i]][k[:i] + k[i + 1:]] = c
        return [MultiPoly._canonical(rest, b, self.tower) for b in buckets]

    def to_unipoly(self, var: str | None = None) -> UniPoly:
        """Convert when at most one variable is actually used."""
        used = [v for v in self.vars if self.uses(v)]
        if len(used) > 1:
            raise InvalidInput("more than one variable in use")
        if used and var is not None and used[0] != var:
            raise InvalidInput(f"polynomial uses {used[0]!r}, not {var!r}")
        if var is None:
            var = used[0] if used else (self.vars[0] if self.vars else "t")
        return self.with_vars((var,))

    def __repr__(self) -> str:
        keys = sorted(self.terms, key=lambda k: (sum(k), k), reverse=True)
        return _format_terms([(repr(self.terms[k]), k) for k in keys], self.vars)


class UniPoly(MultiPoly):
    """A MultiPoly in exactly one variable: ``vars == (var,)``, keys ``(e,)``.

    It adds only what is univariate: the degree and leading coefficient,
    division with remainder, and composition.
    """

    __slots__ = ()

    def __init__(self, var: str, coeffs: Mapping[int, Scalar], tower: ExtensionTower = QQ):
        super().__init__((var,), {(e,): c for e, c in coeffs.items()}, tower)

    @classmethod
    def zero(cls, var: str, tower: ExtensionTower = QQ) -> "UniPoly":
        return MultiPoly.zero((var,), tower)

    @classmethod
    def constant(cls, var: str, c: Scalar, tower: ExtensionTower = QQ) -> "UniPoly":
        return MultiPoly.constant(c, (var,), tower)

    @classmethod
    def variable(cls, var: str, tower: ExtensionTower = QQ) -> "UniPoly":
        return MultiPoly.variable(var, (var,), tower)

    @property
    def var(self) -> str:
        return self.vars[0]

    @property
    def degree(self) -> int:
        """-1 for the zero polynomial."""
        return max(self.terms)[0] if self.terms else -1

    def lc(self) -> FieldElement:
        return self.terms[max(self.terms)] if self.terms else self.tower.zero()

    def coeff(self, e: int) -> FieldElement:
        return self.terms.get((e,), self.tower.zero())

    def is_rational_poly(self) -> bool:
        return all(c.is_rational() for c in self.terms.values())

    def rational_coeffs(self) -> dict:
        if not self.is_rational_poly():
            raise InvalidInput("coefficients are not all rational")
        return {e: c.as_rational() for (e,), c in self.terms.items()}

    def with_tower(self, tower: ExtensionTower) -> "UniPoly":
        return self.with_vars(self.vars, tower)

    def rename(self, var: str) -> "UniPoly":
        return MultiPoly._canonical((var,), dict(self.terms), self.tower)

    def divmod(self, other) -> tuple:
        """Division with remainder; inverts the divisor's leading coefficient."""
        a, b = self._binary(other)
        if len(a.vars) != 1:
            raise InvalidInput(f"variable mismatch: {' vs '.join(a.vars)}")
        if b.is_zero():
            raise InvalidInput("division by zero polynomial")
        (db,) = max(b.terms)
        inv_lc = b.terms[(db,)].inverse()
        q: dict = {}
        r = {e: c for (e,), c in a.terms.items()}
        while r and max(r) >= db:
            dr = max(r)
            f = r[dr] * inv_lc
            q[(dr - db,)] = f
            for (e,), c in b.terms.items():
                key = dr - db + e
                p = f * c
                s = r[key] - p if key in r else -p
                if s.is_zero():
                    r.pop(key, None)
                else:
                    r[key] = s
        return (
            MultiPoly._canonical(a.vars, q, a.tower),
            MultiPoly._canonical(a.vars, {(e,): c for e, c in r.items()}, a.tower),
        )

    def monic(self) -> "UniPoly":
        if self.is_zero():
            return self
        inv = self.lc().inverse()
        return MultiPoly._canonical(self.vars, {k: c * inv for k, c in self.terms.items()}, self.tower)

    def derivative(self) -> "UniPoly":
        return MultiPoly._canonical(
            self.vars, {(e - 1,): c * e for (e,), c in self.terms.items() if e > 0}, self.tower
        )

    def eval_at(self, x) -> FieldElement:
        """The value at the scalar ``x`` (or at a point, as for MultiPoly)."""
        return super().eval_at(x if isinstance(x, Mapping) else {self.var: x})

    def compose(self, inner: "UniPoly") -> "UniPoly":
        """self(inner(t)); the result lives in inner's variable."""
        return substitute(self, {self.var: inner})


# -- packed integer products (Kronecker substitution) ------------------------------


class _Packed:
    """A polynomial over a tower as packed integers: ``comps[i]`` is the
    Kronecker image of the numerators of power-basis monomial ``i``, all over
    the common denominator ``den``, and every term has total degree at least
    ``lo``. In the graded layout the image is stored without its ``row * lo``
    lowest slots, which are empty. While only bounds are taken, ``comps`` is
    None, every total degree is at most ``hi`` too, ``degs`` bounds the
    degree in each of the kernel's variables, and ``norm`` bounds the sum of
    the absolute values of all numerators."""

    __slots__ = ("comps", "den", "lo", "hi", "norm", "degs")

    def __init__(self, comps, den: int, lo: int, hi: int = 0, norm: int = 0, degs=None):
        self.comps, self.den, self.lo, self.hi, self.norm, self.degs = comps, den, lo, hi, norm, degs


class _Kronecker:
    """One packed computation over ``tower`` (von zur Gathen & Gerhard,
    *Modern Computer Algebra* §8.4; Fateman 2005).

    Monomial ``prod(x_i^e_i)`` of the n ``vars_`` goes to slot

        sum_{i<n-1} e_i * stride_i + row * (e_{n-1} + grade * sum_{i<n-1} e_i)

    where the first n-1 variables have widths ``degs[i] + 1``, ``stride_i``
    is the product of the widths before ``i`` and ``row`` the product of all
    n-1 of them. With ``grade = 0`` this is the dense box of the degree
    bounds; with ``grade = 1`` the top coordinate is the total degree, so a
    homogeneous polynomial fills one row. A graded value is stored from its
    lowest row on: its offset is ``row * lo`` slots, a product's offset is
    the sum of its factors' and a sum shifts the higher operand onto the
    lower offset, so a product of rows never multiplies the zero rows below
    them.

    A coefficient list is packed into one int by evaluating it at
    ``2^bits``; that map is a ring homomorphism, so products, sums and the
    tower reduction all run on the ints, and only the final result must have
    every numerator below ``2^(bits-1)`` for the signed unpacking. ``run``
    therefore evaluates its program twice. The first pass runs on bounds of
    each value: its degree in each variable, its lowest and highest total
    degree, and its norm. The kernel keeps the largest of these over every
    value, leaves included: ``degs``, the elementwise maximum of the
    degrees, and ``span``, the largest ``hi - lo``; callers pass no bounds.
    So the first n-1 exponents of every value stay below their widths and
    the top coordinate is unbounded: no product inside the computation wraps
    in either layout. From the bounds ``run`` fixes ``bits``, the widths and
    the grade, taking the graded layout exactly when its widest value, ``row
    * (span + 1)`` slots, is below the box, ``row * (degs[n-1] + 1)``
    slots; only then is each leaf laid out, once, and the program run on
    packed values. The choice is exact either way: each layout is a linear
    bijection of the exponents within the bounds onto slots, fixed before
    any product, so it changes the cost of a run and never its result. With
    one variable the two layouts coincide.
    """

    def __init__(self, vars_: tuple, tower: ExtensionTower):
        self.vars, self.tower = vars_, tower
        self.table = tower.basis_products()
        self.size = tower._size
        self.degs = [0] * len(vars_)
        self.nbytes = self.grade = self.row_bits = 0

    def run(self, leaves: list, program) -> "MultiPoly":
        """``program(self, packed leaves)`` as a MultiPoly over the kernel's
        variables; each leaf is a MultiPoly or a FieldElement."""
        prepared = [self._prepare(x) for x in leaves]
        bounds = [b for b, _, _ in prepared]
        # the leaves' degrees and spans; mul and add take in every other value's
        self.degs = list(map(max, self.degs, *[b.degs for b in bounds]))
        self.span = max([b.hi - b.lo for b in bounds])
        bound = program(self, bounds)
        self.nbytes = max([bound.norm] + [b.norm for b in bounds]).bit_length() // 8 + 1
        # (stride, width) of the first n-1 variables; the top coordinate is unbounded
        lead, row = [], 1
        for d in self.degs[:-1]:
            lead.append((row, d + 1))
            row *= d + 1
        self.lead, self.row = lead, row
        if lead and self.span < self.degs[-1]:
            self.grade, self.row_bits = 1, row * 8 * self.nbytes
        # the slot formula, one factor per exponent
        self.scale = [s + self.grade * row for s, _ in lead] + [row]
        packed = [
            _Packed(comps if layout is None else self._pack(b.lo, *layout), b.den, b.lo)
            for b, comps, layout in prepared
        ]
        return self._unpack(program(self, packed))

    def _prepare(self, leaf) -> tuple:
        """``(bound, comps, layout)`` of a leaf: its bound value, and either
        its packed ints, for a constant, whose one slot is 0 in every layout,
        or ``(places, keys, entries)`` for ``_pack``: the kernel positions of
        its variables (None when they are the kernel's), its exponent tuples
        and ``{basis index: [(term number, numerator)]}``. lo and hi are 0
        with fewer than two variables."""
        if isinstance(leaf, FieldElement):
            comps = [0] * self.size
            comps[:: self.size // len(leaf.num)] = leaf.num
            return _Packed(None, leaf.den, 0, 0, sum(map(abs, leaf.num)), [0] * len(self.vars)), comps, None
        terms, places, degs = leaf.terms, None, leaf._degrees()
        if leaf.vars != self.vars:
            places, own = [self.vars.index(v) for v in leaf.vars], degs
            degs = [0] * len(self.vars)
            for p, d in zip(places, own):
                degs[p] = d
        lo = hi = 0
        if len(self.vars) > 1 and terms:
            degrees = list(map(sum, terms))
            lo, hi = min(degrees), max(degrees)
        den = lcm(*[c.den for c in terms.values()])
        size = self.size
        entries: dict = {}
        norm = 0
        for t, c in enumerate(terms.values()):
            f = den // c.den
            # a coefficient over a prefix of the tower: its basis number i is
            # number i * step of the kernel's tower
            step = size // len(c.num)
            for i, n in enumerate(c.num):
                if n:
                    n *= f
                    norm += abs(n)
                    entries.setdefault(i * step, []).append((t, n))
        return _Packed(None, den, lo, hi, norm, degs), None, (places, terms, entries)

    def _pack(self, lo: int, places, keys, entries: dict) -> list:
        """A prepared leaf's packed ints, each term at its slot counted from
        the leaf's offset ``grade * row * lo``."""
        width, mul = self.nbytes, operator.mul
        scale = self.scale if places is None else [self.scale[p] for p in places]
        offset = self.grade * self.row * lo
        # each term's first byte
        starts = [(sum(map(mul, key, scale)) - offset) * width for key in keys]
        n = max(starts, default=0) + width
        comps = [0] * self.size
        for i, column in entries.items():
            if len(column) == 1:  # a one-term leaf, say: its int is the one numerator at its slot
                ((t, c),) = column
                comps[i] = c << 8 * starts[t]
                continue
            pos, neg = bytearray(n), bytearray(n)
            for t, c in column:
                s = starts[t]
                if c > 0:
                    pos[s:s + width] = c.to_bytes(width, "little")
                else:
                    neg[s:s + width] = (-c).to_bytes(width, "little")
            comps[i] = int.from_bytes(pos, "little") - int.from_bytes(neg, "little")
        return comps

    def mul(self, a: _Packed, b: _Packed) -> _Packed:
        """Product, reduced right away by the tower's basis products."""
        table = self.table
        den, lo = a.den * b.den * table.den, a.lo + b.lo
        if a.comps is None:
            hi, degs = a.hi + b.hi, list(map(operator.add, a.degs, b.degs))
            if hi - lo > self.span:
                self.span = hi - lo
            self.degs = list(map(max, self.degs, degs))
            return _Packed(None, den, lo, hi, a.norm * b.norm * table.cmax, degs)
        return _Packed(table.product(a.comps, b.comps), den, lo)

    def add(self, a: _Packed, b: _Packed) -> _Packed:
        if a.lo > b.lo:
            a, b = b, a
        den = lcm(a.den, b.den)
        fa, fb = den // a.den, den // b.den
        if a.comps is None:
            hi = a.hi if a.hi > b.hi else b.hi
            if hi - a.lo > self.span:
                self.span = hi - a.lo
            # a sum's degrees are its operands' largest, which the kernel has already
            return _Packed(None, den, a.lo, hi, a.norm * fa + b.norm * fb, list(map(max, a.degs, b.degs)))
        # b starts (b.lo - a.lo) rows higher; in the box layout row_bits is 0
        shift = (b.lo - a.lo) * self.row_bits
        return _Packed([x * fa + (y * fb << shift) for x, y in zip(a.comps, b.comps)], den, a.lo)

    def power(self, squares: list, n: int) -> _Packed:
        """a^n for n >= 1 by repeated squaring, where ``squares[j]`` is
        a^(2^j); the list grows as needed, so callers can share it."""
        result, j = None, 0
        while n >> j:
            if j == len(squares):
                squares.append(self.mul(squares[-1], squares[-1]))
            if n >> j & 1:
                result = squares[j] if result is None else self.mul(result, squares[j])
            j += 1
        return result

    def _unpack(self, p: _Packed) -> "MultiPoly":
        width = self.nbytes
        half = 1 << (8 * width - 1)
        half_bytes = half.to_bytes(width, "little")
        size, row, grade, lead, nvars = self.size, self.row, self.grade, self.lead, len(self.vars)
        offset = grade * row * p.lo
        coeffs: dict = {}
        for i, x in enumerate(p.comps):
            if not x:
                continue
            # every numerator lies in (-half, half): bias each slot by half
            n = abs(x).bit_length() // (8 * width) + 1
            bias = int.from_bytes(half_bytes * n, "little")
            biased = x + bias
            nonzero = (biased ^ bias).to_bytes(n * width, "little")
            biased = biased.to_bytes(n * width, "little")
            done = 0
            for run in _NONZERO_BYTES.finditer(nonzero):
                for s in range(max(run.start() // width, done), (run.end() - 1) // width + 1):
                    slot = s + offset
                    # the first n-1 exponents; the last is what the top coordinate leaves
                    head = [slot // stride % w for stride, w in lead]
                    key = (*head, slot // row - grade * sum(head)) if nvars else ()
                    num = coeffs.get(key)
                    if num is None:
                        num = coeffs[key] = [0] * size
                    num[i] = int.from_bytes(biased[s * width:(s + 1) * width], "little") - half
                    done = s + 1
        tower, den = self.tower, p.den
        return MultiPoly._canonical(
            self.vars, {k: FieldElement.from_ints(tower, num, den) for k, num in coeffs.items()}, tower
        )


_NONZERO_BYTES = re.compile(rb"[^\x00]+")


# -- univariate toolkit over Q ---------------------------------------------------


def gcd_unipoly(f: UniPoly, g: UniPoly) -> UniPoly:
    """Monic gcd; gcd(f, 0) = monic(f).

    Two nonzero polynomials in one variable with rational coefficients (over
    any tower) take the primitive PRS on their integer multiples, made monic
    at the end. Others take the Euclidean algorithm over the tower: there a
    leading coefficient may be a zero divisor, in which case ZeroDivisor
    propagates so the caller can split the tower.
    """
    if f.var != g.var and not (f.is_constant() or g.is_constant()):
        raise InvalidInput("gcd of polynomials in different variables")
    if f.terms and g.terms and f.var == g.var and f.is_rational_poly() and g.is_rational_poly():
        h = _gcd_int(_int_coeffs(f), _int_coeffs(g))
        t = join_towers(f.tower, g.tower)
        return MultiPoly._canonical(
            f.vars, {(e,): t.rational(Fraction(c, h[-1])) for e, c in enumerate(h) if c}, t
        )
    a, b = f, g
    while not b.is_zero():
        a, b = b, a.divmod(b)[1]
    return a.monic()


def is_squarefree(f: UniPoly) -> bool:
    """True when gcd(f, f') is constant: f has no repeated root over its tower."""
    return gcd_unipoly(f, f.derivative()).is_constant()


def invert_mod(a: UniPoly, m: UniPoly, step_name: str) -> UniPoly:
    """Inverse of ``a`` modulo the monic polynomial ``m``, of degree < deg m.

    Half-extended Euclid. A nonconstant gcd means ``a`` is a zero divisor
    in K[x]/(m): ZeroDivisor(step_name, factor) then carries the monic gcd,
    a proper factor of ``m``, as a dense coefficient tuple.
    """
    r0, r1 = m, a
    s0, s1 = UniPoly.zero(a.var, a.tower), UniPoly.constant(a.var, 1, a.tower)
    while not r1.is_zero() and r1.degree > 0:
        q, r2 = r0.divmod(r1)
        r0, r1, s0, s1 = r1, r2, s1, s0 - q * s1
    if r1.is_zero():
        g = r0.monic()
        raise ZeroDivisor(step_name, tuple(g.coeff(e) for e in range(g.degree + 1)))
    # deg s1 == deg m - deg r0 < deg m: the cofactor is already reduced
    return s1 * r1.coeff(0).inverse()


def squarefree_decompose(f: UniPoly) -> tuple:
    """(content, factors) with f = content * prod(factor ^ multiplicity):
    content is f's leading coefficient, a Fraction, and factors a list of
    (monic UniPoly, multiplicity) pairs, by Yun's algorithm (Yun 1976) on
    the primitive integer multiple of f; multiplicities come out strictly
    increasing.

    Every gcd is a primitive PRS gcd and every quotient an exact division
    in Z[t]: b and d always carry the same rational scale, so Yun's
    recurrence d = d / a - b' holds as over Q. Only the factors found are
    made monic, at the end.
    """
    if f.is_zero():
        raise InvalidInput("cannot decompose the zero polynomial")
    if not f.is_rational_poly():
        raise InvalidInput("square-free decomposition is restricted to rational coefficients")
    content = f.lc().as_rational()
    factors = []
    if f.is_constant():
        return content, factors
    p = _primitive(_int_coeffs(f))[1]
    dp = _derivative_int(p)
    g = _gcd_int(p, dp)
    b = _divexact(p, g)
    d = _sub_int(_divexact(dp, g), _derivative_int(b))
    i = 1
    while len(b) > 1:
        a = _gcd_int(b, d)
        if len(a) > 1:
            monic = {k: Fraction(c, a[-1]) for k, c in enumerate(a) if c}
            factors.append((UniPoly(f.var, monic, f.tower), i))
        b = _divexact(b, a)
        d = _sub_int(_divexact(d, a), _derivative_int(b))
        i += 1
    return content, factors


def squarefree_part(f: UniPoly) -> UniPoly:
    """f / gcd(f, f'), monic; works over any tower that stays invertible."""
    g = gcd_unipoly(f, f.derivative())
    return f.divmod(g)[0].monic()


def rational_roots(f: UniPoly) -> list:
    """All rational roots with multiplicity, in descending order.

    With ``ad`` the leading coefficient of the square-free part ``p`` over
    Z, every rational root ``r`` of ``p`` makes ``ad * r`` an integer root of
    the monic ``ad^(d-1) p(s / ad)``. Those are found by integer bisection
    on one Sturm chain, each integer midpoint tested by exact evaluation;
    each root found is then divided out of ``f`` as often as it goes.
    """
    if f.is_zero():
        raise InvalidInput("zero polynomial")
    work = _int_coeffs(f)
    if f.is_constant():
        return []
    low = next(k for k, c in enumerate(work) if c)
    work = work[low:]
    sqf = _primitive(_divexact(work, _sturm_chain(work)[-1]))[1]
    if sqf[-1] < 0:
        sqf = [-c for c in sqf]
    ad, d = sqf[-1], len(sqf) - 1
    scaled = [c * ad ** (d - 1 - k) for k, c in enumerate(sqf[:-1])] + [1]
    roots = [Fraction(0)] * low
    for m in _integer_roots(scaled):
        r = Fraction(m, ad)
        while (q := _deflate(work, r.numerator, r.denominator)) is not None:
            work = q
            roots.append(r)
    return sorted(roots, reverse=True)


def _integer_roots(p: list) -> list:
    """Integer roots of a monic square-free integer polynomial, by bisection
    of (-B, B) on one Sturm chain, B a strict root bound (Fujiwara), down to
    intervals without an integer inside; each integer midpoint is tested by
    exact evaluation."""
    if len(p) < 2:
        return []
    d = len(p) - 1
    B = 2 << max(-(-abs(c).bit_length() // (d - k)) for k, c in enumerate(p[:-1]))
    chain = _sturm_chain(p)
    found = []
    stack = [(-B, B)]
    while stack:
        lo, hi = stack.pop()
        if hi - lo < 2 or not _sturm_count(chain, (lo, 1), (hi, 1)):
            continue
        mid = (lo + hi) // 2
        if not _hsign(p, mid, 1):
            found.append(mid)
        stack += [(lo, mid), (mid, hi)]
    return found


def sturm_real_root_count(f: UniPoly, interval: tuple = (None, None)) -> int:
    """Distinct real roots of a square-free rational polynomial in the open
    interval (lo, hi); None endpoints mean -inf / +inf."""
    if f.is_zero():
        raise InvalidInput("zero polynomial")
    if not f.is_rational_poly():
        raise InvalidInput("Sturm counting needs rational coefficients")
    if f.is_constant():
        return 0
    chain = _squarefree_chain(_int_coeffs(f))
    lo, hi = interval
    if lo is not None and hi is not None:
        if lo > hi:
            raise InvalidInput("empty interval: lo > hi")
        if lo == hi:
            return 0
    lo = (-1, 0) if lo is None else Fraction(lo).as_integer_ratio()
    hi = (1, 0) if hi is None else Fraction(hi).as_integer_ratio()
    return _sturm_count(chain, lo, hi)


# -- substitution, exact division, resultants -------------------------------------


def substitute(f, bindings: Mapping[str, object]) -> MultiPoly:
    """Ring-homomorphic substitution; every variable of f must be bound."""
    if not isinstance(f, MultiPoly):
        raise InvalidInput("substitute expects a polynomial")
    images = {}
    t = f.tower
    order = [v for v in f.vars if f.uses(v)]  # only their images are leaves of the packed run
    for v in f.vars:
        if v in order or v in bindings:
            if v not in bindings:
                raise InvalidInput(f"unbound variable {v!r}")
            img = bindings[v]
            if not isinstance(img, MultiPoly):
                img = MultiPoly.constant(img)
            images[v] = img
            t = join_towers(t, img.tower)
    out_vars = tuple(sorted(set().union(*(m.vars for m in images.values())) if images else ()))
    if not order:  # a constant, zero included, needs no packed run
        terms = {(0,) * len(out_vars): c.lift_to(t) for c in f.terms.values()}
        return MultiPoly._canonical(out_vars, terms, t)
    pos = [f.vars.index(v) for v in order]
    keys = list(f.terms)
    n = len(order)
    leaves = [images[v] for v in order] + [f.terms[key] for key in keys]
    return _Kronecker(out_vars, t).run(
        leaves, lambda k, packed: _packed_sum(k, keys, pos, packed[:n], packed[n:])
    )


def _packed_sum(k: _Kronecker, keys: list, pos: Sequence[int], images: list, coeffs: list) -> _Packed:
    """The sum over ``keys`` of ``coeffs[j] * prod(images[n]^keys[j][pos[n]])``
    in ``k``'s packed ring: the body of a substitution.

    The terms are grouped by their exponent of the first image, each group
    summed term by term, and the groups combined in Horner order in that
    image, so a sum with n distinct first exponents pays n products of the
    growing sum instead of one full-size product per term. Each power of
    an image, a gap between first exponents included, is computed once
    from that image's shared repeated squares."""
    squares = [[x] for x in images]  # per image: image^(2^j)
    powers: dict = {}

    def power(n: int, e: int) -> _Packed:
        if (n, e) not in powers:
            powers[n, e] = k.power(squares[n], e)
        return powers[n, e]

    groups: dict = {}
    for key, c in zip(keys, coeffs):
        term = c
        for n in range(1, len(pos)):
            e = key[pos[n]]
            if e:
                term = k.mul(term, power(n, e))
        e = key[pos[0]] if pos else 0
        groups[e] = k.add(groups[e], term) if e in groups else term
    acc = last = None
    for e in sorted(groups, reverse=True):
        acc = groups[e] if acc is None else k.add(k.mul(acc, power(0, last - e)), groups[e])
        last = e
    return k.mul(acc, power(0, last)) if last else acc


def exact_divide(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """Quotient q with q*g == f, exactly; raises NotDivisible (with the
    remainder attached) otherwise. Inverts g's leading coefficient once."""
    if g.is_zero():
        raise InvalidInput("division by zero polynomial")
    vars_ = tuple(sorted(set(f.vars) | set(g.vars)))
    t = join_towers(f.tower, g.tower)
    r, gg = f.with_vars(vars_, t), g.with_vars(vars_, t)
    lt_g = max(gg.terms)
    inv_lc = gg.terms[lt_g].inverse()
    q = MultiPoly.zero(vars_, t)
    while not r.is_zero():
        lt_r = max(r.terms)
        diff = tuple(a - b for a, b in zip(lt_r, lt_g))
        if any(d < 0 for d in diff):
            raise NotDivisible(r)
        c = r.terms[lt_r] * inv_lc
        mono = MultiPoly._canonical(vars_, {diff: c}, t)
        q = q + mono
        r = r - mono * gg
    return q


def resultant_eliminate(f: MultiPoly, g: MultiPoly, var: str) -> MultiPoly:
    """Resultant with respect to ``var``, eliminating it exactly: the
    Sylvester determinant, over any tower.

    Evaluation and interpolation on plain integers (Collins, "The
    calculation of multivariate polynomial resultants", 1971). Each
    polynomial is put over one denominator, and each tower coefficient is
    split into its power-basis components, so every tower generator becomes
    one more variable of an integer polynomial. The last remaining variable
    is set to 0, 1, 2, ..., skipping points where a leading coefficient in
    ``var`` vanishes; the resultant of the images is taken recursively, and
    Newton interpolation through one point more than the degree bound
    ``deg_var(g) * deg(f) + deg_var(f) * deg(g)`` recovers it, with exact
    integer divided differences. With no variable left, the subresultant PRS
    over Z gives the scalar resultant. The integer result is divided by the
    denominators' powers and reduced once through the tower. Reduction
    modulo the minimal polynomials is a ring homomorphism that keeps the
    leading coefficients nonzero, so the result is the Sylvester
    determinant over the tower even when the tower is reducible.

    When either polynomial has degree 1 in ``var`` the determinant has a
    closed form (``_linear_resultant``), taken in one packed run instead.
    """
    vars_ = tuple(sorted(set(f.vars) | set(g.vars)))
    if var not in vars_:
        raise InvalidInput(f"{var!r} appears in neither polynomial")
    t = join_towers(f.tower, g.tower)
    fv, gv = f.with_vars(vars_, t), g.with_vars(vars_, t)
    if not fv.uses(var) or not gv.uses(var):
        raise InvalidInput(f"both polynomials must contain {var!r}")
    i = vars_.index(var)
    rest = vars_[:i] + vars_[i + 1:]
    if fv.degree_in(var) == 1 or gv.degree_in(var) == 1:
        return _linear_resultant(fv.as_unipoly_in(var), gv.as_unipoly_in(var), rest, t)
    basis = t.basis

    def split(p: MultiPoly) -> tuple:
        # dense in ``var``; each coefficient is {exponents in rest, then of
        # the generators: integer numerator over the returned denominator}
        den = lcm(*(c.den for c in p.terms.values()))
        coeffs: list = [{} for _ in range(p.degree_in(var) + 1)]
        for k, c in p.terms.items():
            entry, key, f = coeffs[k[i]], k[:i] + k[i + 1:], den // c.den
            for j, n in enumerate(c.num):
                if n:
                    entry[key + basis[j]] = n * f
        return coeffs, den

    (fc, df), (gc, dg) = split(fv), split(gv)
    scale = df ** (len(gc) - 1) * dg ** (len(fc) - 1)
    nrest = len(rest)
    grouped: dict = {}
    for k, c in _resultant(fc, gc, nrest + t.height).items():
        grouped.setdefault(k[:nrest], {})[k[nrest:]] = c
    terms = {}
    for k, b in grouped.items():
        c = FieldElement(t, b, den=scale)
        if not c.is_zero():
            terms[k] = c
    return MultiPoly._canonical(rest, terms, t)


def _linear_resultant(fc: list, gc: list, rest: tuple, tower: ExtensionTower) -> MultiPoly:
    """The Sylvester determinant Res(f, g) from the dense coefficient lists
    of f and g in the eliminated variable, one of them of length 2, as
    polynomials in ``rest``.

    For g = g1*x + g0 and n = deg f it is (-1)^n g1^n f(-g0 / g1) = (-1)^n
    sum_j f_j (-g0)^j g1^(n-j). That is an identity between polynomials in
    the coefficients, so it holds over any tower, zero divisors included;
    with the linear operand first the determinant changes by (-1)^(n*1).
    The sum is one packed run of ``_packed_sum``, Horner in -g0."""
    if len(gc) == 2:
        sign = (-1) ** (len(fc) - 1)
    else:
        fc, gc, sign = gc, fc, 1  # the swap's sign cancels (-1)^n
    n = len(fc) - 1
    h, g1 = -gc[0], gc[1]
    keys = [(j, n - j) for j in range(n + 1) if not fc[j].is_zero()]
    coeffs = [fc[j] if sign > 0 else -fc[j] for j, _ in keys]
    return _Kronecker(rest, tower).run(
        [h, g1] + coeffs, lambda k, packed: _packed_sum(k, keys, (0, 1), packed[:2], packed[2:])
    )


def _resultant(fc: list, gc: list, nvars: int) -> dict:
    """Res of two dense coefficient lists whose entries are {exponents:
    int} dicts keyed by ``nvars`` exponents; both leading entries are
    nonzero."""
    if nvars == 0:
        r = _prs_resultant([c.get((), 0) for c in fc], [c.get((), 0) for c in gc])
        return {(): r} if r else {}
    fd, gd = [_by_last(c) for c in fc], [_by_last(c) for c in gc]
    m, n = len(fc) - 1, len(gc) - 1
    bound = n * _last_degree(fd) + m * _last_degree(gd)
    points: list = []
    values: list = []
    x = 0
    while len(points) <= bound:
        fx = [_eval_last(c, x) for c in fd]
        gx = [_eval_last(c, x) for c in gd]
        if fx[-1] and gx[-1]:
            points.append(x)
            values.append(_resultant(fx, gx, nvars - 1))
        x += 1
    return _interpolate(points, values)


def _by_last(c: dict) -> dict:
    """{exponents: int} as {all exponents but the last: dense list in the last}."""
    out: dict = {}
    for k, v in c.items():
        dense = out.setdefault(k[:-1], [])
        e = k[-1]
        if e >= len(dense):
            dense.extend([0] * (e + 1 - len(dense)))
        dense[e] = v
    return out


def _last_degree(coeffs: list) -> int:
    return max((len(dense) - 1 for c in coeffs for dense in c.values()), default=0)


def _eval_last(c: dict, x: int) -> dict:
    """Set the last variable of a ``_by_last`` dict to x."""
    out = {}
    for key, dense in c.items():
        y = _horner_int(dense, x)
        if y:
            out[key] = y
    return out


def _interpolate(points: list, values: list) -> dict:
    """The integer polynomial through (points[j], values[j]) in a new last
    variable, by Newton's divided differences, one coefficient key at a
    time. Divided differences of an integer polynomial at integer nodes are
    integers, so every division is exact."""
    keys = set().union(*values)
    out: dict = {}
    for key in keys:
        ys = [v.get(key, 0) for v in values]
        # divided differences, in place: ys[j] becomes f[x_0, ..., x_j]
        for j in range(1, len(points)):
            for l in range(len(points) - 1, j - 1, -1):
                ys[l] = (ys[l] - ys[l - 1]) // (points[l] - points[l - j])
        # Newton form to monomials, innermost factor first
        poly = [ys[-1]]
        for j in range(len(points) - 2, -1, -1):
            xj = points[j]
            poly = [ys[j] - poly[0] * xj] + [
                poly[e - 1] - (poly[e] * xj if e < len(poly) else 0)
                for e in range(1, len(poly) + 1)
            ]
        for e, c in enumerate(poly):
            if c:
                out[key + (e,)] = c
    return out


# -- dense integer polynomials: lists, constant term first, no trailing zeros ------


def _prem(a: list, b: list) -> list:
    """Pseudo-remainder lc(b)^(deg a - deg b + 1) * a mod b."""
    r = list(a)
    lb, db = b[-1], len(b) - 1
    e = len(a) - db
    while len(r) > db:
        c, s = r[-1], len(r) - 1 - db
        r = [x * lb for x in r]
        for k in range(db):
            r[s + k] -= c * b[k]
        r.pop()
        while r and not r[-1]:
            r.pop()
        e -= 1
    if e > 0:
        f = lb ** e
        r = [x * f for x in r]
    return r


def _primitive(a: list) -> tuple:
    """(content, primitive part); the content is positive."""
    c = gcd(*a)
    return c, [x // c for x in a]


def _gcd_int(a: list, b: list) -> list:
    """gcd(a, b) in Z[t], primitive and up to sign, by the primitive PRS;
    gcd(a, 0) is the primitive part of a. Not both may be zero."""
    if len(a) < len(b):
        a, b = b, a
    a = _primitive(a)[1]
    while b:
        b = _primitive(b)[1]
        a, b = b, _prem(a, b)
    return a


def _prs_resultant(a: list, b: list) -> int:
    """Res(a, b) of integer lists with nonzero leading entries, by the
    subresultant PRS (Brown & Traub 1971; Cohen, *A Course in Computational
    Algebraic Number Theory*, Alg. 3.3.7), every division exact."""
    s = 1
    if len(a) < len(b):
        a, b = b, a
        if (len(a) - 1) * (len(b) - 1) % 2:
            s = -1
    (ca, a), (cb, b) = _primitive(a), _primitive(b)
    t = ca ** (len(b) - 1) * cb ** (len(a) - 1)
    g = h = 1
    while len(b) > 1:
        delta = len(a) - len(b)
        if (len(a) - 1) % 2 and (len(b) - 1) % 2:
            s = -s
        r = _prem(a, b)
        if not r:
            return 0
        d = g * h ** delta
        a, b = b, [x // d for x in r]
        g = a[-1]
        h = h * g ** delta // h ** delta
    da = len(a) - 1
    return s * t * (h * b[0] ** da // h ** da)


def _int_coeffs(f: UniPoly) -> list:
    """The rational polynomial f times the lcm of its denominators."""
    coeffs = f.rational_coeffs()
    den = lcm(*(c.denominator for c in coeffs.values()))
    return [int(coeffs.get(e, 0) * den) for e in range(max(coeffs) + 1)]


def _sturm_chain(p: list) -> list:
    """Sturm chain of p: p, p', then each next entry -rem of the two before,
    all up to positive factors and made primitive after p. It ends at
    gcd(p, p') up to sign, so p is square-free when the last entry is a
    constant."""
    chain, r = [p], _derivative_int(p)
    while r:
        chain.append(_primitive(r)[1])
        a, b = chain[-2], chain[-1]
        r = _prem(a, b)
        if b[-1] > 0 or (len(a) - len(b)) % 2:
            r = [-x for x in r]  # -rem(a, b) times a positive factor
    return chain


def _squarefree_chain(p: list) -> list:
    """The Sturm chain of p; InvalidInput unless p is square-free."""
    chain = _sturm_chain(p)
    if len(chain[-1]) > 1:
        raise InvalidInput("input must be square-free (deflate first)")
    return chain


def _hsign(p: list, a: int, b: int) -> int:
    """Sign of p at a / b for b > 0, at +inf for (1, 0) and at -inf for
    (-1, 0): the sign of the homogeneous sum of p_k a^k b^(deg p - k)."""
    acc, bk = 0, 1
    for c in reversed(p):
        acc = acc * a + c * bk
        bk *= b
    return (acc > 0) - (acc < 0)


def _sign_changes(values) -> int:
    """Sign changes along a sequence of numbers, zeros skipped."""
    signs = [v > 0 for v in values if v]
    return sum(x != y for x, y in zip(signs, signs[1:]))


def _sturm_count(chain: list, lo: tuple, hi: tuple) -> int:
    """Distinct real roots of the square-free ``chain[0]`` in the open
    interval between the points ``lo`` and ``hi`` given as for ``_hsign``.
    The sign changes at lo less those at hi count the roots in (lo, hi]."""
    at_hi = [_hsign(q, *hi) for q in chain]
    return _sign_changes(_hsign(q, *lo) for q in chain) - _sign_changes(at_hi) - (not at_hi[0])


def _horner_int(p: list, x: int) -> int:
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _derivative_int(p: list) -> list:
    return [k * c for k, c in enumerate(p) if k]


def _sub_int(a: list, b: list) -> list:
    """a - b, trailing zeros dropped."""
    r = [x - y for x, y in zip_longest(a, b, fillvalue=0)]
    while r and not r[-1]:
        r.pop()
    return r


def _divexact(a: list, b: list) -> list:
    """a / b in Z[t], when b divides a with an integer quotient."""
    r = list(a)
    q = [0] * (len(a) - len(b) + 1)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = r[k + len(b) - 1] // b[-1]
        for j, y in enumerate(b):
            r[k + j] -= c * y
    return q


def _deflate(a: list, p: int, q: int):
    """a / (q t - p) in Z[t] when it divides exactly, else None."""
    out = [0] * (len(a) - 1)
    b = 0
    for k in range(len(a) - 1, 0, -1):
        b, rem = divmod(a[k] + p * b, q)
        if rem:
            return None
        out[k - 1] = b
    return out if a and a[0] + p * b == 0 else None
