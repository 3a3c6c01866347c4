"""Exception types shared across the package."""


class TwistaError(Exception):
    """Base class for all package errors."""


class _Refusal(TwistaError):
    """Bad input refused with the list of what was found wrong."""

    def __init__(self, message, violations=None):
        super().__init__(message)
        self.violations = list(violations or [])


class InvalidTable(_Refusal):
    """A Cayley table fails the group axioms or its file's declared order."""


class UnsupportedSize(TwistaError):
    """A construction exceeds the supported size cap."""


class CocycleViolation(_Refusal):
    """A table fails the 2-cocycle identity or normalization rows."""


class NotCyclicProduct(TwistaError):
    """The group does not carry the declared product-of-cyclics structure."""


class GroupMismatch(TwistaError):
    """Operands live on different groups."""


class MissingCoefficients(TwistaError):
    """A matrix lies off the span of the twisted translations."""


class NotPositiveDefinite(TwistaError):
    """The function is not positive definite for the given cocycle."""


class DegenerateState(TwistaError):
    """phi(e) <= 0, so no state normalization exists."""


class ZeroVector(TwistaError):
    """An operation requires a nonzero vector."""


class DimensionMismatch(TwistaError):
    """Matrix or vector dimensions are inconsistent."""


class NotHermitian(TwistaError):
    """A Hermitian matrix was required."""


class SolverFailure(TwistaError):
    """A convex solver did not reach the requested gap within budget."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class CertificateError(SolverFailure):
    """A computed result failed its own certificate check."""
