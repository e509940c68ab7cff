"""A degree-three example with a real witness over Q(sqrt 3), plus mesh
export: vertices are evaluated exactly at rational grid points and only
rounded at the very end, with a certified error bound.
"""

import tempfile
from pathlib import Path

from revolutio import cubic_example, fiber_count, parse_poly, verify_on_surface
from revolutio.mesh import export_obj

F = parse_poly("x^2+y^2-z^3-1")
w = cubic_example()
print("surface :", F, "= 0")
print("witness over", w.tower, ":")
for name, comp in zip("xyz", w.components):
    print(f"   {name}(u,v) =", comp)
verify_on_surface(w, F)  # raises unless the residual is 0 and the rank 2
print("verified: residual 0, jacobian rank 2")
print("fiber at (1,1):", fiber_count(w, (1, 1)))

out = Path(tempfile.gettempdir()) / "cubic_patch.obj"
stats = export_obj(w, 16, (-1, 1), (-1, 1), str(out))
print(f"mesh    : {stats['vertices']} vertices, {stats['faces']} quads -> {out}")
