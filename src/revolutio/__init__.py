"""Exact symbolic toolkit for polynomial surfaces of revolution.

Decides over C whether a surface of revolution about the z-axis admits a
polynomial parametrization, constructs and verifies one when it does,
settles the real question for profile-square invariants of degree at most
two, and classifies quadrics with their polynomiality verdicts. All
arithmetic is exact, over Q extended by towers of algebraic generators.
"""

from .complexparam import (
    SurfaceParam,
    adjoin_root,
    cylinder_case_param,
    rotate_curve,
    sor_complex_param,
    tower_sqrt,
    tubular_base,
    tubular_lift,
)
from .errors import (
    DegenerateProfile,
    InconsistentRoot,
    InternalInvariant,
    InvalidInput,
    NoRealEmbedding,
    NotAGraph,
    NotDivisible,
    NotEquivalent,
    NotPolynomial,
    NotPolynomialCurve,
    NotSurfaceOfRevolution,
    RevolutioError,
    TowerMismatch,
    Unsupported,
    ZeroDivisor,
)
from .numeric import default_real_embedding, isolate_real_roots, numeric_eval
from .parsing import parse_poly
from .poly import (
    MultiPoly,
    UniPoly,
    exact_divide,
    gcd_unipoly,
    invert_mod,
    is_squarefree,
    rational_roots,
    resultant_eliminate,
    squarefree_decompose,
    squarefree_part,
    sturm_real_root_count,
    substitute,
)
from .profile import (
    P2Decomposition,
    affine_equivalent,
    decompose_paa,
    implicit_to_p2,
    p2_param_from_graph,
    polynomialize_rational,
    surface_implicit,
    tubularize,
)
from .quadrics import classify_quadric, quadric_param, quadric_report, quadric_verdict
from .realparam import (
    ConjecturePredicate,
    RealVerdict,
    conjecture_predicate,
    cubic_example,
    real_param_delta0,
    real_param_delta1,
    real_param_delta2,
    real_verdict,
    sphere_witness,
)
from .tower import QQ, ExtensionTower, FieldElement
from .verify import fiber_count, fiber_count_first_valid, jacobian_generic_rank, verify_on_surface

__version__ = "0.1.0"
