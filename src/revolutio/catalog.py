"""The verification catalog: every closed formula the package relies on,
checked end to end with exact residuals.

Each entry rebuilds its parametrization from scratch and verifies it
against the implicit surface (or, for the rational rotation formula and
the tubular-consistency checks, a cleared-denominator identity: the
rotation of the cone is checked through den^2 F(xn/den, yn/den, zn) =
F(xn, yn, den*zn), F being homogeneous of degree 2). The
catalog is the repository's master invariant; `revolutio verify-catalog`
runs it from the command line.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexparam import (
    adjoin_root,
    cylinder_case_param,
    ensure_imaginary_unit,
    rotate_curve,
    sor_complex_param,
    tubular_base,
)
from .errors import InternalInvariant
from .poly import MultiPoly, UniPoly, substitute
from .profile import decompose_paa
from .realparam import cubic_example, real_param_delta2, sphere_witness
from .verify import verify_on_surface

XYZ = ("x", "y", "z")


def _xyz():
    return (
        MultiPoly.variable("x", XYZ),
        MultiPoly.variable("y", XYZ),
        MultiPoly.variable("z", XYZ),
    )


@dataclass
class CatalogResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'} {self.name}: {self.detail}"


def _on_surface_entry(name, witness, F) -> CatalogResult:
    try:
        verify_on_surface(witness, F)
    except InternalInvariant as exc:
        return CatalogResult(name, False, str(exc))
    return CatalogResult(name, True, "residual 0, jacobian rank 2")


def _sphere_entry() -> CatalogResult:
    x, y, z = _xyz()
    return _on_surface_entry("sphere-witness", sphere_witness(), x * x + y * y + z * z - 1)


def _tubular_entry(p: UniPoly) -> CatalogResult:
    x, y, z = _xyz()
    s = tubular_base(p)
    F = x * x + y * y - substitute(p, {p.var: z})
    return _on_surface_entry(f"tubular-param[p={p}]", s, F)


def _cone_entry() -> CatalogResult:
    t = UniPoly.variable("t")
    x, y, z = _xyz()
    d = decompose_paa(t ** 2, t)
    s = cylinder_case_param(d)
    return _on_surface_entry("cone-via-degree-two-substitution", s, x * x + y * y - z * z)


def _hyperboloid_entry(lam: int) -> CatalogResult:
    """The real witness for x^2 + y^2 - z^2 = lam: one sheet when lam > 0,
    the double cover of one of the two sheets when lam < 0."""
    t = UniPoly.variable("t")
    x, y, z = _xyz()
    name = f"one-sheet[lambda={lam}]" if lam > 0 else "two-sheet-double-cover"
    v = real_param_delta2(decompose_paa(t ** 2 + lam, t))
    if v.witness is None:
        return CatalogResult(name, False, f"no witness: {v.reason}")
    return _on_surface_entry(name, v.witness, x * x + y * y - z * z - lam)


def _cubic_entry() -> CatalogResult:
    x, y, z = _xyz()
    return _on_surface_entry("cubic-surface-witness", cubic_example(), x * x + y * y - z ** 3 - 1)


def _closed_formula_entry() -> CatalogResult:
    t = UniPoly.variable("t")
    x, y, z = _xyz()
    d = decompose_paa(1 - t ** 2, t)
    s = sor_complex_param(d)
    return _on_surface_entry("closed-formula[sphere]", s, x * x + y * y + z * z - 1)


def _closed_formula_lift_entry() -> CatalogResult:
    # nontrivial multiplier a = t: the lift is exercised, not just the base
    t = UniPoly.variable("t")
    x, y, z = _xyz()
    d = decompose_paa(t ** 3, t)
    s = sor_complex_param(d)
    return _on_surface_entry("closed-formula[x^2+y^2-z^3]", s, x * x + y * y - z ** 3)


def _rotation_entry() -> CatalogResult:
    t = UniPoly.variable("t")
    x, y, z = _xyz()
    (xn, den), (yn, _), (zn, _) = rotate_curve(t, UniPoly.zero("t"), t)
    residual = substitute(x * x + y * y - z * z, {"x": xn, "y": yn, "z": den * zn})
    ok = residual.is_zero()
    return CatalogResult(
        "rotation-formula[cone]", ok, "cleared-denominator residual " + ("0" if ok else repr(residual))
    )


def _q_phi_entry(p: UniPoly) -> CatalogResult:
    """The rational tubular parametrization composed with [s,t] -> [v, uv+alpha]
    must agree with the polynomial tubular formula after clearing 2v."""
    alpha, tower, _ = adjoin_root(p, p.tower, "alpha")
    tower = ensure_imaginary_unit(tower)
    poly_param = tubular_base(p)
    i = tower.gen("i")
    u = MultiPoly.variable("u", ("u", "v"), tower)
    v = MultiPoly.variable("v", ("u", "v"), tower)
    z = u * v + MultiPoly.constant(alpha.lift_to(tower), ("u", "v"), tower)
    p_at = substitute(p, {p.var: z})
    two_v = 2 * v
    pairs = (
        (i * (v * v - p_at), two_v),
        (v * v + p_at, two_v),
        (z, MultiPoly.constant(1, ("u", "v"), tower)),
    )
    ok = all(
        (num - den * comp).is_zero()
        for (num, den), comp in zip(pairs, poly_param.components)
    )
    return CatalogResult(
        f"q-after-Phi-consistency[p={p}]", ok,
        "rational and polynomial tubular parametrizations agree" if ok else "mismatch",
    )


def catalog_results() -> list:
    t = UniPoly.variable("t")
    ps = [t, t ** 2 - 1, t ** 3 + 1]
    results = [_sphere_entry()]
    results += [_tubular_entry(p) for p in ps]
    results.append(_cone_entry())
    results += [_hyperboloid_entry(lam) for lam in (1, 2, -1)]
    results.append(_cubic_entry())
    results += [_q_phi_entry(p) for p in ps]
    results.append(_rotation_entry())
    results.append(_closed_formula_entry())
    results.append(_closed_formula_lift_entry())
    return results
