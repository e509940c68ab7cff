"""Exception hierarchy shared by all modules."""

from __future__ import annotations


class RevolutioError(Exception):
    """Base class for every error raised by this package."""


class InvalidInput(RevolutioError):
    """A precondition on user-supplied data is violated."""


class TowerMismatch(RevolutioError):
    """Operands live over incompatible extension towers."""


class ZeroDivisor(RevolutioError):
    """A zero divisor was hit while inverting over a reducible tower step.

    Carries enough data to split the offending minimal polynomial
    (dynamic evaluation): ``step_name`` names the generator and
    ``factor`` is a nontrivial monic factor of its minimal polynomial,
    given as a dense coefficient tuple over the tower below that step.
    """

    def __init__(self, step_name: str, factor: tuple):
        self.step_name = step_name
        self.factor = factor
        super().__init__(f"zero divisor at tower step {step_name!r}")


class NotDivisible(RevolutioError):
    """Exact division failed; ``remainder`` holds the leftover."""

    def __init__(self, remainder):
        self.remainder = remainder
        super().__init__("exact division failed")


class NoRealEmbedding(RevolutioError):
    """A real embedding was requested for a generator without real roots."""


class NotSurfaceOfRevolution(RevolutioError):
    """The implicit equation is not invariant under rotation about the z-axis."""


class NotAGraph(RevolutioError):
    """The profile-square curve is not a graph w = g(z)."""


class NotPolynomialCurve(RevolutioError):
    """The rational curve admits no polynomial reparametrization."""


class NotEquivalent(RevolutioError):
    """No affine reparametrization links the two parametrizations."""


class DegenerateProfile(RevolutioError):
    """The axis coordinate of the profile is constant; the map cannot dominate."""


class NotPolynomial(RevolutioError):
    """The surface admits no polynomial parametrization (e.g. a cylinder of revolution)."""


class InconsistentRoot(RevolutioError):
    """Internal invariant violation: the chosen root does not annihilate p."""


class Unsupported(RevolutioError):
    """The request falls outside the implemented scope (documented non-goal)."""


class InternalInvariant(RevolutioError):
    """A construction failed its own verification; indicates a bug, not bad input."""
