"""The exception type shared across the integrator and spectral modules."""


class SingularStepError(ArithmeticError):
    """Raised when a block divisor is singular by ``params._singular_divisor``
    (NaN, or zero to within 1e-14 of its terms), a block of G is not
    finite, or the dense step matrix A is singular.

    The message names the offending divisor so CLI users can see which
    block and parameter combination broke the solve.
    """

