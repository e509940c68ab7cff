"""Walk the full pipeline on the simplest interesting input, x^2 + y^2 - z = 0.

Every stage prints what it produced: the profile-square curve, its
(p, a, b) normal form, the tubular companion, a complex witness from the
closed formula, the real witness, and the exact verification of both.
"""

from revolutio import (
    decompose_paa,
    implicit_to_p2,
    p2_param_from_graph,
    parse_poly,
    real_verdict,
    sor_complex_param,
    tubularize,
    verify_on_surface,
)

F = parse_poly("x^2+y^2-z")
print("surface          :", F, "= 0")

G = implicit_to_p2(F)
print("profile-square   :", G, "= 0   (w stands for x^2 + y^2)")

x, b = p2_param_from_graph(G)
print("parametrized     :", f"[{x}, {b}]")

d = decompose_paa(x, b)
print("normal form      : p =", d.p, "| a =", d.a, "| b =", d.b, "| degree invariant =", d.delta)

print("tubular companion:", tubularize(d), "= 0")

witness = sor_complex_param(d)
print("complex witness  :", witness)
verify_on_surface(witness, F)  # raises unless the residual is 0 and the rank 2
print("verified         : residual 0, jacobian rank 2")

rv = real_verdict(d)
print("real verdict     :", rv.status, "->", rv.witness)
verify_on_surface(rv.witness, F)
print("verified         : residual 0, jacobian rank 2")
