"""Exception types shared across the integrator and spectral modules."""


class SingularStepError(ArithmeticError):
    """Raised when a per-block scalar divisor (or the step matrix A) is
    singular or numerically indistinguishable from zero.

    The message names the offending divisor so CLI users can see which
    block and parameter combination broke the solve.
    """


class UnsupportedParametersError(ValueError):
    """Raised when an operation needs rho-derived scheme parameters but the
    given parameter set was constructed from raw alpha values."""


class JacobiConvergenceError(RuntimeError):
    """Raised when the cyclic Jacobi eigensolver fails to reach the target
    off-diagonal norm within the sweep budget."""
