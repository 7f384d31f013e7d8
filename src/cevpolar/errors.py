"""Exception hierarchy shared by the whole package."""


class CevError(Exception):
    """Base class for all package errors."""


class DomainError(CevError, ValueError):
    """An argument is outside the mathematical domain of an operation."""


class ConstructionError(CevError, ValueError):
    """Input data cannot be assembled into a valid law, curve or model."""


class UnsupportedModelError(CevError):
    """The model does not satisfy the structural requirements of an operation."""


class NumericError(CevError):
    """Base class for runtime numerical failures; :meth:`payload` is the one
    report of every kind: its ``kind``, the message, then its ``details``."""

    kind = "numeric"

    def __init__(self, message, details=None):
        super().__init__(message)
        self.details = dict(details or {})

    def payload(self):
        return {"error": self.kind, "message": str(self), **self.details}


class QuadratureError(NumericError):
    """Adaptive quadrature failed to reach the requested tolerance.

    Its details carry the partial value and the achieved and requested tolerances,
    so callers can report diagnostics instead of silently trusting a bad value.
    """

    kind = "quadrature"


class DegenerateWeightsError(NumericError):
    """All importance weights underflowed; the threshold is too deep."""

    kind = "degenerate_weights"


class ConfigError(CevError, ValueError):
    """A run configuration (CLI flags or JSON config) is invalid."""
