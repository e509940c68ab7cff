"""Classify every canonical quadric, print the polynomiality verdicts, and
construct a verified witness wherever one exists.
"""

from revolutio import parse_poly, quadric_report, verify_on_surface

GALLERY = [
    "x^2+y^2-z^2",
    "x^2+y^2-1",
    "x^2-y^2-1",
    "x^2-z",
    "x^2+y^2+z^2-1",
    "x^2+y^2-z^2-1",
    "x^2+y^2-z^2+1",
    "x^2-y^2-z",
    "x^2+y^2-z",
    "3*x^2+5*y^2+z^2-7",
    "x^2+2*y^2-3*z^2+4*x-5",
]

for text in GALLERY:
    F = parse_poly(text)
    cls, over_c, over_r, witness = quadric_report(F)
    print(f"{text:28s} {cls:24s} over C: {str(over_c):5s} over R: {over_r}")
    if witness is not None:
        verify_on_surface(witness, F)  # raises unless the residual is 0 and the rank 2
        print(f"{'':28s} witness [{witness.x}, {witness.y}, {witness.z}]")
