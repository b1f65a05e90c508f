"""Exception taxonomy shared by all modules."""

from __future__ import annotations


class SuperrootsError(Exception):
    """Base class for all domain errors raised by this package."""


class DivisionByZero(SuperrootsError):
    """Division of an exact scalar by an exact zero."""


class NonLinearQuotient(SuperrootsError):
    """Quotient (or product) would leave the ring of degree-one lambda expressions."""


class AmbiguousSign(SuperrootsError):
    """Scalar vanishes at some admissible value of the lambda parameter.

    Deciding zero-ness/sign of such a scalar would silently depend on the
    deformation parameter, so it is reported instead of guessed.
    """


class IsotropicReflectionError(SuperrootsError):
    """Cartan integer or reflection requested against a self-orthogonal root."""


class BasisMismatch(SuperrootsError):
    """Operands live over different ambient bases."""


class OutsideSpan(BasisMismatch):
    """Vector lies outside the span of the roots it is to be expanded over."""


class DependentRoots(SuperrootsError):
    """Roots that must be linearly independent (a functional's basis, a base) are not."""


class RankError(SuperrootsError):
    """Type constructor called with ranks outside its domain of definition."""


class NotARoot(SuperrootsError):
    """Queried vector is not a root of the system at hand."""


class NotRealRoot(SuperrootsError):
    """Operation requires a real (non-isotropic) root."""


class NotAShadowPattern(SuperrootsError):
    """Line assignment does not match any of the four admissible pattern families."""


class NotUniformlyHybrid(SuperrootsError):
    """Shadow classes of a component are not hybrid with one common direction."""


class NoCompatibleBase(SuperrootsError):
    """Base search exhausted its orbit without finding a positivity-compatible base."""

    def __init__(self, message: str, searched: int = 0):
        super().__init__(message)
        self.searched = searched


class CaseMismatch(SuperrootsError):
    """Component membership data fits none of the four zeta construction cases."""


class HypothesisViolated(SuperrootsError):
    """Input subset fails a precondition of the decomposition machinery."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class TooFewSamples(SuperrootsError):
    """Caller-supplied parameter samples are too few to decide a polynomial identity in lambda."""


class NotAFiniteRootSystem(SuperrootsError):
    """Candidate set fails the finite (crystallographic, reduced) root-system checks."""


class DirectionNotDecidable(SuperrootsError):
    """Support-set query falls outside the decidable descriptor algebra."""


class OutsideWindow(SuperrootsError):
    """Exact answer would require data beyond the declared enumeration horizon.

    Not raised yet: it is kept for the planned window-free checks.
    """
