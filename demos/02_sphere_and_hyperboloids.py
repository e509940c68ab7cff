"""The degree-two story: three surfaces whose profile-square polynomial p is
quadratic, with three different real outcomes.

The sphere is polynomial over C but compact, so no real witness exists.
The one-sheeted hyperboloid has a real proper witness. The two-sheeted
hyperboloid only admits a real parametrization that doubly covers one
sheet; the fiber counter confirms the 2:1 claim by exact elimination.
"""

from revolutio import (
    UniPoly,
    decompose_paa,
    fiber_count,
    parse_poly,
    real_verdict,
    sor_complex_param,
    verify_on_surface,
)

t = UniPoly.variable("t")

for label, first, implicit in [
    ("unit sphere", 1 - t ** 2, "x^2+y^2+z^2-1"),
    ("one-sheeted hyperboloid", t ** 2 + 1, "x^2+y^2-z^2-1"),
    ("two-sheeted hyperboloid", t ** 2 - 1, "x^2+y^2-z^2+1"),
]:
    print(f"== {label}: {implicit} = 0")
    F = parse_poly(implicit)
    d = decompose_paa(first, t)
    cw = sor_complex_param(d)
    print("   complex witness:", cw)
    verify_on_surface(cw, F)  # raises unless the residual is 0 and the rank 2
    print("   verified       : residual 0, jacobian rank 2")
    rv = real_verdict(d)
    print("   real verdict   :", rv.status, "--", rv.reason)
    if rv.witness is not None:
        print("   real witness   :", rv.witness)
        verify_on_surface(rv.witness, F)
        print("   verified       : residual 0, jacobian rank 2")
        if rv.status == "real-nonproper-double-cover":
            print("   fiber at (1,1) :", fiber_count(rv.witness, (1, 1)), "points map to the same image")
    print()
