"""Per-step matrix pair (A, B) and the amplification matrix G = A^-1 B.

The matrices act on the scaled state [U, tau*V, tau^2*A, ...,
tau^(3k-1) * u^(3k-1)] and depend on sigma = lambda*tau^2 only, so the
whole spectral analysis is one-dimensional.  The rows are derived
symbolically from the update equations rather than transcribed, which
matters: the printed fourth-order B has two rows with substituted
coefficients (beta_1 where the derivation gives gamma_1 terms in row 2,
and alpha_2 where it gives alpha_1 terms in row 3); the derived rows are
the ones consistent with the scheme and with the order-4 convergence
test.

``_block_solve`` is the one solve of G's diagonal blocks A_jj^-1 B_jj,
for ``diagonal_blocks``, the spectral module and the error of a failed
dense solve alike.

This module is also the independent oracle for the stepper: one
production step must equal oracle_step on the scaled state.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from .errors import SingularStepError
from .params import SchemeParameters, _singular_divisor
from .stepper import ModalState, Variant


@dataclass(frozen=True)
class AmplificationMatrix:
    G: np.ndarray


def _block_pair(alpha, beta, gamma, c, sigma) -> tuple[np.ndarray, np.ndarray]:
    """The 3x3 pair (A_jj, B_jj) of one block, the classic generalized-
    alpha pair, with implicit coupling c; the arguments are one row of
    ``params.block_rows`` and sigma, which must be finite and >= 0
    (ValueError).  They broadcast; the pair has their shape plus (3, 3)."""
    sigma = np.asarray(sigma, dtype=float)
    inside = (sigma >= 0.0) & (sigma < np.inf)  # NaN fails both
    if not inside.all():
        raise ValueError(f"sigma must be finite and >= 0, got {sigma.flat[inside.argmin()]}")
    alpha, beta, gamma, c, sigma = np.broadcast_arrays(alpha, beta, gamma, c, sigma)
    A = np.zeros(alpha.shape + (3, 3))
    B = np.zeros(alpha.shape + (3, 3))
    A[..., 0, 0] = 1.0
    A[..., 0, 2] = -beta
    A[..., 1, 1] = 1.0
    A[..., 1, 2] = -gamma
    A[..., 2, 0] = sigma * c
    A[..., 2, 2] = alpha
    B[..., 0, 0] = 1.0
    B[..., 0, 1] = 1.0
    B[..., 0, 2] = 0.5 - beta
    B[..., 1, 1] = 1.0
    B[..., 1, 2] = 1.0 - gamma
    B[..., 2, 0] = sigma * (c - 1.0)
    B[..., 2, 2] = alpha - 1.0
    return A, B


def _block_poly(alpha, beta, gamma, c, sigma) -> tuple:
    """Coefficients (p3, p2, p1, p0) of z^3..z^0 of the block polynomial
    det(z A_jj - B_jj) = (z-1)^2 (alpha z - alpha + 1) + sigma (c z + 1 - c)
    (beta z^2 + (gamma - 2 beta + 1/2) z + beta - gamma + 1/2), from
    ``_block_pair``'s arguments; plain arithmetic, so Fractions pass."""
    q = (2 * gamma - 4 * beta + 1) / 2  # z^1 and z^0 coefficients of the quadratic
    r = (2 * beta - 2 * gamma + 1) / 2
    return (
        alpha + sigma * c * beta,
        1 - 3 * alpha + sigma * (c * q + (1 - c) * beta),
        3 * alpha - 2 + sigma * (c * r + (1 - c) * q),
        1 - alpha + sigma * (1 - c) * r,
    )


def assemble_step_matrices(
    p: SchemeParameters, sigma: float, variant: Variant = Variant.FULL_TAYLOR
) -> tuple[np.ndarray, np.ndarray]:
    """Dense 3k x 3k pair (A, B) with A w_{n+1} = B w_n on scaled states.

    A is block diagonal in the 3x3 sense; B is block upper triangular.
    The diagonal blocks are ``_block_pair`` for every variant; the
    variants differ only in B's coupling above the diagonal, which the
    leading blocks' Taylor spans fill in.  For k = 1 the single block is
    the classic 3x3 pair with alpha_m in place of alpha_k.
    """
    k = p.k
    n = 3 * k
    A = np.zeros((n, n))
    B = np.zeros((n, n))
    Ad, Bd = _block_pair(p.alpha, p.beta, p.gamma, p.c, sigma)
    for j in range(k):
        A[3 * j:3 * j + 3, 3 * j:3 * j + 3] = Ad[j]
        B[3 * j:3 * j + 3, 3 * j:3 * j + 3] = Bd[j]
    inv = [1.0 / factorial(m) for m in range(n)]
    full = variant is Variant.FULL_TAYLOR

    for j in range(1, k):  # B's coupling of leading block j to the blocks after it
        b = 3 * (j - 1)
        aj, bj, gj = p.alpha[j - 1], p.beta[j - 1], p.gamma[j - 1]
        # The predictors span columns b+3 .. end-1; ``own`` says whether
        # the displacement and velocity rows carry their Taylor terms there.
        if full:
            end, own = n, True
        elif j == 1:
            end, own = n - 2, True
            # The alpha-shifted acceleration keeps its full span, so the
            # truncated-residual tail survives in the implicit row.
            for m in range(end, n):
                B[2, m] -= inv[m - 2]
        else:
            end, own = b + 6, False
        for m in range(b + 3, end):
            if own:
                B[b, m] += inv[m - b]
                B[b + 1, m] += inv[m - b - 1]
            B[b, m] -= bj * inv[m - b - 2]
            B[b + 1, m] -= gj * inv[m - b - 2]
            B[b + 2, m] += (aj - 1.0) * inv[m - b - 2]
    return A, B


def _solve(p: SchemeParameters, sigma: float, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A^-1 B by dense LU with partial pivoting; a singular A raises
    SingularStepError, naming its singular block by ``diagonal_blocks``."""
    try:
        return np.linalg.solve(A, B)
    except np.linalg.LinAlgError:
        diagonal_blocks(p, sigma)
        raise SingularStepError(f"step matrix A is singular at sigma = {sigma}")


def amplification_matrix(
    p: SchemeParameters, sigma: float, variant: Variant = Variant.FULL_TAYLOR
) -> AmplificationMatrix:
    """G = A^-1 B via dense LU with partial pivoting (columnwise solve)."""
    A, B = assemble_step_matrices(p, sigma, variant)
    return AmplificationMatrix(G=_solve(p, sigma, A, B))


def oracle_step(
    p: SchemeParameters,
    sigma: float,
    scaled_state,
    variant: Variant = Variant.FULL_TAYLOR,
) -> np.ndarray:
    """Advance one scaled state by solving A x = B s directly."""
    A, B = assemble_step_matrices(p, sigma, variant)
    return _solve(p, sigma, A, B @ np.asarray(scaled_state, dtype=float))


def scale_state(s: ModalState, tau: float) -> np.ndarray:
    """Entry j of the scaled vector is tau^j * d[j]."""
    if tau <= 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
    return np.array([tau**j * s.d[j] for j in range(3 * s.k)])


def unscale_state(v, tau: float, k: int) -> ModalState:
    """Exact inverse of scale_state (round trip is the identity), at t = 0."""
    if tau <= 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
    v = np.asarray(v, dtype=float)
    return ModalState(k=k, t=0.0, d=tuple(v[j] / tau**j for j in range(3 * k)))


def _block_solve(rows, sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The one block solve: blocks A_jj^-1 B_jj (..., k, 3, 3) for block
    rows (..., k, 4) as ``params.block_rows`` lays them out, at sigma
    (...), and the (..., k) mask of blocks that come back as zeros: their
    divisor alpha + sigma*c*beta is singular by the stepper's rule,
    ``params._singular_divisor``, or G is not finite.  G's entry
    -sigma*c/div is checked before the solve, as where it overflows the
    LU pivot -div/(sigma*c) can underflow to zero; every other pivot is
    the divisor, or that, to round-off, so the solve meets no zero one."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # extreme schemes, masked
        A, B = _block_pair(*np.moveaxis(rows, -1, 0), sigma[..., None])
        shift = A[..., 2, 0] * rows[..., 1]
        div = A[..., 2, 2] + shift
        bad = _singular_divisor(div, A[..., 2, 2], shift) | ~np.isfinite(A[..., 2, 0] / div)
        A[bad], B[bad] = np.eye(3), 0.0
        G = np.linalg.solve(A, B)
    bad |= ~np.isfinite(G).all(axis=(-2, -1))
    G[bad] = 0.0
    return G, bad


def diagonal_blocks(p: SchemeParameters, sigma) -> np.ndarray:
    """The k diagonal 3x3 blocks A_jj^-1 B_jj of G at every sigma, shape
    sigma.shape + (k, 3, 3); their spectra union to the spectrum of G.
    A singular or non-finite block raises SingularStepError naming the
    first one, at the first such sigma in C order."""
    sigma = np.asarray(sigma, dtype=float)
    G, bad = _block_solve(np.column_stack((p.alpha, p.beta, p.gamma, p.c)), sigma)
    if bad.any():
        at, j = divmod(int(bad.argmax()), p.k)
        s = float(sigma.flat[at])
        raise SingularStepError(f"block {j + 1} divisor alpha_{j + 1} + sigma*c*beta_{j + 1} = "
                                f"{p.alpha[j] + s * p.c[j] * p.beta[j]} at sigma = {s}")
    return G
