"""Exception types shared across the package."""


class QsprepError(Exception):
    """Base class for package-specific failures."""


class DimensionError(QsprepError):
    """Operands act on mismatched registers or out-of-range qubits."""


class DegreeOverflowError(QsprepError):
    """A construction would exceed the configured maximum degree."""

    def __init__(self, message, needed=None):
        super().__init__(message)
        self.needed = needed


class CompletionError(QsprepError):
    """Spectral factorization could not complete the polynomial."""


class ConditionError(QsprepError):
    """Polynomial violates the realizability conditions of the ansatz."""


class PhaseFindingError(QsprepError):
    """Phase extraction failed to reach the requested residual."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class InputError(QsprepError, ValueError):
    """An amplitude table or serialized file is malformed or out of range."""


class InfeasibleError(QsprepError):
    """Requested parameters violate a precondition of the construction."""
