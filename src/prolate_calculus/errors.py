"""Exception types shared across the package.

Every failure mode carries a short machine-readable ``kind`` tag so the CLI
can report it uniformly.
"""

from __future__ import annotations


class ProlateCalculusError(Exception):
    """Base class for all package errors."""

    kind = "error"


class DomainError(ProlateCalculusError, ValueError):
    """Argument outside the mathematical domain of an operation."""

    kind = "domain"


class RuleTooLargeError(ProlateCalculusError, ValueError):
    """Quadrature order so large that node separation underflows."""

    kind = "rule-too-large"


class SpectralFailureError(ProlateCalculusError, RuntimeError):
    """Eigensolver failed to converge or produced an invalid spectrum."""

    kind = "spectral-failure"


class ConventionViolationError(ProlateCalculusError, RuntimeError):
    """A quantity the sign convention makes real and positive is not."""

    kind = "convention-violation"


class SeriesStallError(ProlateCalculusError, RuntimeError):
    """Series summation did not converge within the term budget."""

    kind = "series-stall"

    def __init__(self, message: str, worst_index: int | None = None):
        super().__init__(message)
        self.worst_index = worst_index


class QuadratureUnresolvedError(ProlateCalculusError, RuntimeError):
    """Operator entries drift when the quadrature order is doubled."""

    kind = "quadrature-unresolved"


class XiQuadratureUnresolvedError(ProlateCalculusError, RuntimeError):
    """Reconstruction integral drifts when the node count is doubled."""

    kind = "xi-quadrature-unresolved"


class OutOfRangeError(ProlateCalculusError, ValueError):
    """Bandwidth outside the range where a path's quantities are representable."""

    kind = "out-of-range"
