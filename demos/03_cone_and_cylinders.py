"""Constant-p surfaces: the profile-square curve has a constant first
radical part, and everything hinges on the multiplier polynomial a.

A constant a means a genuine cylinder of revolution, the one surface
class that is refused outright. A real root of a gives the cone-style
substitution. When a has no real roots at all, a quadratic factor is
normalized to t^2 + 1 and a Pythagorean triple of polynomials on
A^2 + B^2 = C^2 + 1 does the job.
"""

from revolutio import (
    NotPolynomial,
    UniPoly,
    decompose_paa,
    parse_poly,
    real_verdict,
    sor_complex_param,
    verify_on_surface,
)

t = UniPoly.variable("t")

print("== cylinder x^2+y^2-1 = 0")
d = decompose_paa(UniPoly.constant("t", 1), t)
try:
    sor_complex_param(d)
except NotPolynomial as exc:
    print("   refused:", exc)
print()

print("== cone x^2+y^2-z^2 = 0 (profile [t, t], so the first coordinate is t^2)")
F = parse_poly("x^2+y^2-z^2")
d = decompose_paa(t ** 2, t)
rv = real_verdict(d)
print("   witness :", rv.witness)
verify_on_surface(rv.witness, F)  # raises unless the residual is 0 and the rank 2
print("   verified: residual 0, jacobian rank 2")
print()

print("== x^2+y^2 = (z^2+1)^2, radius (t^2+1) never vanishes on the reals")
F = parse_poly("x^2+y^2-(z^2+1)^2")
d = decompose_paa((t ** 2 + 1) ** 2, t)
rv = real_verdict(d)
print("   verdict :", rv.status, "--", rv.reason)
print("   witness :", rv.witness)
verify_on_surface(rv.witness, F)  # raises unless the residual is 0 and the rank 2
print("   verified: residual 0, jacobian rank 2")
