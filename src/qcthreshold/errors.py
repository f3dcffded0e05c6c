"""Exception types shared across the package, one class per exit path of
the CLI: a bad input (code 2) or a run the solver cannot trust (code 3)."""


class InvalidParameterError(ValueError):
    """An input violates a documented precondition: a parameter out of
    range, a grid too small for the state, or an argument outside the
    domain or regime that an operation supports."""


class ResolutionError(RuntimeError):
    """Spectral content reaches the grid Nyquist band; results untrustworthy."""


class SolverFailureError(RuntimeError):
    """An evolution run violated a conservation or positivity diagnostic."""
