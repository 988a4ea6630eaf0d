"""Exception hierarchy shared by all modules, and the tolerance check."""
import math


class KolmoError(Exception):
    """Base class for all library errors."""


class DomainError(KolmoError, ValueError):
    """An argument is outside the mathematical domain of an operation."""


class UnsupportedSystemError(KolmoError):
    """The exponent system is outside what the requested operation handles."""


class NumericalFailureError(KolmoError):
    """A solver failed to converge; carries the best residual seen."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class NotInteriorError(KolmoError):
    """Input claimed interior of its admissible set but is not."""


class NotBoundaryError(KolmoError):
    """No boundary-shaped spline matches the given norm tuple."""


class NotAttainableError(KolmoError):
    """No ideal spline attains the given norm tuple."""


class PinnedNodeCoincidenceError(KolmoError):
    """The prescribed root coincides with a root of the principal representation."""


def require_tolerance(tol: float):
    """Raise :class:`DomainError` unless ``tol`` is finite and positive."""
    if not 0 < tol < math.inf:
        raise DomainError(f"tolerance must be finite and > 0, got {tol}")
