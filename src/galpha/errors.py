"""The exception type shared across the integrator and spectral modules."""


class SingularStepError(ArithmeticError):
    """Raised when a block divisor (or the step matrix A) is singular or
    numerically indistinguishable from zero, or a block of G is not finite.

    The message names the offending divisor so CLI users can see which
    block and parameter combination broke the solve.
    """

