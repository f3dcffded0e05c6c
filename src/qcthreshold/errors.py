"""Exception types shared across the package."""


class InvalidParameterError(ValueError):
    """A parameter violates a documented precondition."""


class CoverageError(ValueError):
    """A grid is too small to hold the requested state (mass would leak)."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class RangeError(ValueError):
    """Evaluation would overflow or leave the supported argument range."""


class GridMismatchError(ValueError):
    """Two distributions live on incompatible grids even after resampling."""


class ResolutionError(RuntimeError):
    """Spectral content reaches the grid Nyquist band; results untrustworthy."""


class SolverFailureError(RuntimeError):
    """An evolution run violated a conservation or positivity diagnostic."""


class ValidityError(ValueError):
    """A bound or formula was requested outside its regime of validity."""
