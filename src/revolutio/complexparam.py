"""Polynomial parametrizations of surfaces of revolution over C.

Every witness of a surface of revolution, here and in `realparam`, is a
base (X, Y, Z) on a companion surface lifted by `tubular_lift` through
[x, y, z] -> [a(z) x, a(z) y, b(z)]. Every root the constructions need is
adjoined by `adjoin_root`: a rational root when there is one, else a new
generator for the square-free part. Over C, a non-constant p gets the
base on the tubular companion x^2 + y^2 - p(z) = 0 (`tubular_base`): take
a root alpha of p, factor p(u v + alpha) = v * h(u, v), and take

    [ (i/2)(v - h), (1/2)(v + h), u v + alpha ].

Cylinders of revolution are the one refusal. A constant p with
non-constant a shifts a root of a to 0 and lifts the cone base
[-2uv, v^2 - u^2, u^2 + v^2] (the substitution [s, t] -> [-u/v, u^2+v^2])
by the shifted (a, b).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import isqrt, prod

from .errors import (
    DegenerateProfile,
    InconsistentRoot,
    InternalInvariant,
    InvalidInput,
    NotPolynomial,
)
from .numeric import isolate_real_roots
from .poly import MultiPoly, UniPoly, exact_divide, rational_roots, squarefree_part, substitute
from .profile import P2Decomposition
from .tower import QQ, ExtensionTower, FieldElement, join_towers

UV = ("u", "v")


def _u(tower=QQ) -> MultiPoly:
    return MultiPoly.variable("u", UV, tower)


def _v(tower=QQ) -> MultiPoly:
    return MultiPoly.variable("v", UV, tower)


@dataclass(frozen=True)
class SurfaceParam:
    """Three polynomial components in (u, v) over one tower, plus the trail
    of construction steps and a properness flag."""

    components: tuple
    tower: ExtensionTower
    provenance: tuple = ()
    properness: str = "unknown"  # "proper" | "non-proper-degree-2" | "unknown"

    @staticmethod
    def make(components, provenance=(), properness="unknown") -> "SurfaceParam":
        comps = []
        t = QQ
        for c in components:
            if not isinstance(c, MultiPoly):
                c = MultiPoly.constant(c)
            t = join_towers(t, c.tower)
            comps.append(c)
        comps = [c.with_vars(UV, t) for c in comps]
        if len(comps) != 3:
            raise InvalidInput("a surface parametrization has three components")
        return SurfaceParam(tuple(comps), t, tuple(provenance), properness)

    @property
    def x(self) -> MultiPoly:
        return self.components[0]

    @property
    def y(self) -> MultiPoly:
        return self.components[1]

    @property
    def z(self) -> MultiPoly:
        return self.components[2]

    def __repr__(self):
        return f"SurfaceParam([{self.x}, {self.y}, {self.z}], properness={self.properness})"


# -- tower utilities shared by the parametrization modules ---------------------


def ensure_imaginary_unit(tower: ExtensionTower) -> ExtensionTower:
    """The tower extended by i (theta^2 + 1) unless it already has it."""
    for s in tower.steps:
        if s.name == "i":
            return tower
    return tower.extend("i", [1, 0, 1])


def _is_rational_square(q: Fraction):
    if q < 0:
        return None
    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def tower_sqrt(tower: ExtensionTower, q: Fraction):
    """(element, tower) with element^2 = q.

    Positive non-squares get a fresh generator with the positive root as
    the recorded embedding, unless ``q`` is a rational square times the
    product of the radicands of some ``sqrt`` steps already present: then
    sqrt(q) is a rational multiple of the product of their generators, and
    a new one would make the tower reducible. Negative values factor
    through i.
    """
    q = Fraction(q)
    if q == 0:
        return tower.zero(), tower
    if q < 0:
        tower = ensure_imaginary_unit(tower)
        root, tower = tower_sqrt(tower, -q)
        return tower.gen("i").lift_to(tower) * root, tower
    r = _is_rational_square(q)
    if r is not None:
        return tower.rational(r), tower
    radicals = [(s.name, -s.minpoly[0].as_rational()) for s in tower.steps if s.name.startswith("sqrt(")]
    for k in range(1, len(radicals) + 1):
        for subset in combinations(radicals, k):
            r = _is_rational_square(q / prod(radicand for _, radicand in subset))
            if r is not None:
                return prod(tower.gen(name) for name, _ in subset) * r, tower
    name = f"sqrt({q})"
    tower = tower.extend(name, [-q, 0, 1], embedding=(Fraction(0), q + 1))
    return tower.gen(name), tower


def adjoin_root(f: UniPoly, tower: ExtensionTower, name: str, real: bool = False):
    """(root, tower, m): a root of f, whose tower is a prefix of ``tower``.
    A rational f with a rational root gets the one of smallest |value|, ties
    resolved to the positive one; the tower stays and m is None. Otherwise
    the tower is extended under a fresh ``name`` by f's monic square-free
    part m; with ``real`` the generator is m's greatest real root, recorded
    by its isolating interval, so m must have a real root."""
    roots = set(rational_roots(f)) if f.is_rational_poly() else ()
    if roots:
        return tower.rational(min(roots, key=lambda r: (abs(r), r < 0))), tower, None
    m = squarefree_part(f)
    name = tower.fresh_name(name)
    embedding = isolate_real_roots(m)[-1] if real else None
    tower = tower.extend(name, [m.coeff(e) for e in range(m.degree + 1)], embedding=embedding)
    root = tower.gen(name)
    if not f.eval_at(root).is_zero():
        raise InconsistentRoot("extension generator does not annihilate its polynomial")
    return root, tower, m


# -- operations -----------------------------------------------------------------


def tubular_base(p: UniPoly) -> SurfaceParam:
    """The base [(i/2)(v - h), (1/2)(v + h), u v + alpha] on the tubular
    companion x^2 + y^2 - p(z) = 0 of a non-constant p, where alpha is a
    root of p and p(u v + alpha) = v * h(u, v)."""
    if p.is_constant():
        raise InvalidInput("constant p: use the cylinder route")
    alpha, tower, m = adjoin_root(p, p.tower, "alpha")
    source = "rational-root" if m is None else "tower-extension"
    tower = ensure_imaginary_unit(tower)
    v = _v(tower)
    zc = MultiPoly(UV, {(1, 1): tower.one(), (0, 0): alpha.lift_to(tower)}, tower)
    h = exact_divide(substitute(p.with_tower(tower), {p.var: zc}), v)
    i_half = tower.gen("i") * Fraction(1, 2)
    return SurfaceParam.make(
        [i_half * (v - h), Fraction(1, 2) * (v + h), zc],
        provenance=(f"root alpha = {alpha} ({source})", "tubular parametrization"),
    )


def tubular_lift(base, a: UniPoly, b: UniPoly, provenance=None, properness="unknown") -> SurfaceParam:
    """Compose a base (X, Y, Z), three components or a SurfaceParam, with
    [x, y, z] -> [a(z) x, a(z) y, b(z)]; the one place a witness of a surface
    of revolution takes its (a, b). The trail defaults to the base's plus
    the lift."""
    if b.is_constant():
        raise DegenerateProfile("constant height polynomial b")
    if isinstance(base, SurfaceParam):
        trail, base = base.provenance, base.components
    else:
        trail = ()
    x, y, z = base
    if provenance is None:
        provenance = trail + (f"lift by a = {a}, b = {b}",)
    az = substitute(a, {a.var: z})
    return SurfaceParam.make([az * x, az * y, substitute(b, {b.var: z})], provenance, properness)


def sor_complex_param(d: P2Decomposition) -> SurfaceParam:
    """The closed-form complex parametrization for any non-cylinder with a
    polynomial profile-square curve."""
    if d.delta == 0:
        if d.a.is_constant():
            raise NotPolynomial(
                "cylinder of revolution: the only polynomial curves on it are its rulings"
            )
        return cylinder_case_param(d)
    return tubular_lift(tubular_base(d.p), d.a, d.b)


def cylinder_case_param(d: P2Decomposition) -> SurfaceParam:
    """Constant p: normalize p to 1 (absorbing a square root into a), shift a
    root of a to the origin, and parametrize through [-u/v, u^2 + v^2]."""
    if not d.p.is_constant():
        raise InvalidInput("cylinder route expects constant p")
    c = d.p.constant_value().as_rational()
    if c == 0:
        raise InvalidInput("p = 0 does not define a surface")
    if d.a.is_constant():
        raise NotPolynomial("cylinder of revolution (constant radius)")
    scale, tower = tower_sqrt(d.p.tower, c)
    root, tower, m = adjoin_root(d.a, tower, "beta")
    note = f"shift by rational root {root} of a" if m is None else f"shift by extension root of {m}"
    base, A, B = root_shift_components(d.a.with_tower(tower) * scale, d.b, root, tower)
    return tubular_lift(
        base, A, B,
        provenance=(f"constant p = {c} absorbed into a", note,
                    "degree-two substitution [s,t] -> [-u/v, u^2+v^2]"),
    )


def cone_components(tower=QQ):
    """(-2uv, v^2 - u^2, u^2 + v^2): satisfies X^2 + Y^2 = Z^2."""
    u, v = _u(tower), _v(tower)
    return (Fraction(-2) * u * v, v * v - u * u, u * u + v * v)


def root_shift_components(a: UniPoly, b: UniPoly, root: FieldElement, tower: ExtensionTower):
    """The cone base with the shifted (A, B) that lift it: A(t) = a(t + root) / t
    and B(t) = b(t + root), so the root of a moves to 0 and the curve goes
    through [s, t] -> [-u/v, u^2 + v^2]. Both constant-p constructions, over
    C and over R, lift this."""
    var = a.var
    lin = UniPoly(var, {1: 1, 0: root}, tower)
    atil, rem = a.compose(lin).divmod(UniPoly.variable(var, tower))
    if not rem.is_zero():
        raise InternalInvariant("shifted a is not divisible by its variable")
    return cone_components(tower), atil, b.with_tower(tower).compose(lin)


def rotate_curve(cx: UniPoly, cy: UniPoly, cz: UniPoly) -> tuple:
    """The rational surface swept by rotating a space curve about the z-axis,
    as three (numerator, denominator) pairs in (s, t) with denominator
    1 + s^2; a comparison utility only."""
    if cz.is_constant():
        raise DegenerateProfile("constant z-component cannot sweep a surface")
    var = cz.var
    tower = join_towers(join_towers(cx.tower, cy.tower), cz.tower)
    st = ("s", "t")
    s = MultiPoly.variable("s", st, tower)
    one = MultiPoly.constant(1, st, tower)
    two_s = 2 * s
    one_minus = one - s * s
    den = one + s * s
    t = MultiPoly.variable("t", st, tower)
    x_t, y_t, z_t = (substitute(c, {var: t}) for c in (cx, cy, cz))
    return (
        (x_t * two_s + y_t * one_minus, den),
        (-x_t * one_minus + y_t * two_s, den),
        (z_t, one),
    )
