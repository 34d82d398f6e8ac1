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

This module is also the independent oracle for the stepper: one
production step must equal oracle_step on the scaled state.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from .errors import SingularStepError
from .params import SchemeParameters
from .stepper import ModalState, Variant


@dataclass(frozen=True)
class StepMatrices:
    k: int
    sigma: float
    A: np.ndarray
    B: np.ndarray


@dataclass(frozen=True)
class AmplificationMatrix:
    k: int
    sigma: float
    G: np.ndarray


def assemble_step_matrices(
    p: SchemeParameters, sigma: float, variant: Variant = Variant.FULL_TAYLOR
) -> StepMatrices:
    """Dense 3k x 3k pair (A, B) with A w_{n+1} = B w_n on scaled states.

    A is block diagonal in the 3x3 sense; B is block upper triangular.
    For k = 1 the single block is the classic 3x3 pair with alpha_m in
    place of alpha_k.
    """
    if sigma < 0.0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    k = p.k
    n = 3 * k
    A = np.zeros((n, n))
    B = np.zeros((n, n))
    inv = [1.0 / factorial(m) for m in range(n)]
    full = variant is Variant.FULL_TAYLOR

    for j in range(1, k):  # leading blocks, implicit coupling c_j = 1
        b = 3 * (j - 1)
        aj, bj, gj = p.alpha[j - 1], p.beta[j - 1], p.gamma[j - 1]
        A[b, b] = 1.0
        A[b, b + 2] = -bj
        A[b + 1, b + 1] = 1.0
        A[b + 1, b + 2] = -gj
        A[b + 2, b] = sigma
        A[b + 2, b + 2] = aj
        if full:
            for m in range(b, n):
                B[b, m] += inv[m - b]
            for m in range(b + 1, n):
                B[b + 1, m] += inv[m - b - 1]
            for m in range(b + 2, n):
                B[b, m] -= bj * inv[m - b - 2]
                B[b + 1, m] -= gj * inv[m - b - 2]
                B[b + 2, m] += (aj - 1.0) * inv[m - b - 2]
        elif j == 1:
            end = n - 3
            for m in range(0, end + 1):
                B[0, m] += inv[m]
            for m in range(1, end + 1):
                B[1, m] += inv[m - 1]
            for m in range(2, end + 1):
                B[0, m] -= bj * inv[m - 2]
                B[1, m] -= gj * inv[m - 2]
                B[2, m] += (aj - 1.0) * inv[m - 2]
            # The alpha-shifted acceleration keeps its full span, so the
            # truncated-residual tail survives in the implicit row.
            for m in range(end + 1, n):
                B[2, m] -= inv[m - 2]
        else:
            B[b, b] = 1.0
            B[b, b + 1] = 1.0
            B[b, b + 2] = 0.5
            B[b + 1, b + 1] = 1.0
            B[b + 1, b + 2] = 1.0
            for m in range(b + 2, b + 6):
                B[b, m] -= bj * inv[m - b - 2]
                B[b + 1, m] -= gj * inv[m - b - 2]
                B[b + 2, m] += (aj - 1.0) * inv[m - b - 2]

    # last block, implicit coupling c_k = alpha_f
    b = 3 * (k - 1)
    ak, bk, gk = p.alpha[k - 1], p.beta[k - 1], p.gamma[k - 1]
    af = p.alpha_f
    A[b, b] = 1.0
    A[b, b + 2] = -bk
    A[b + 1, b + 1] = 1.0
    A[b + 1, b + 2] = -gk
    A[b + 2, b] = sigma * af
    A[b + 2, b + 2] = ak
    B[b, b] = 1.0
    B[b, b + 1] = 1.0
    B[b, b + 2] = 0.5 - bk
    B[b + 1, b + 1] = 1.0
    B[b + 1, b + 2] = 1.0 - gk
    B[b + 2, b] = -sigma * (1.0 - af)
    B[b + 2, b + 2] = ak - 1.0
    return StepMatrices(k=k, sigma=float(sigma), A=A, B=B)


def _check_divisors(p: SchemeParameters, sigma: float) -> None:
    """Name the offending block divisor when A is singular."""
    for j in range(1, p.k + 1):
        c = 1.0 if j < p.k else p.alpha_f
        div = p.alpha[j - 1] + sigma * c * p.beta[j - 1]
        if abs(div) < 1e-14 * max(abs(p.alpha[j - 1]), abs(sigma), 1.0):
            raise SingularStepError(
                f"block {j} divisor alpha_{j} + sigma*c*beta_{j} = {div}"
            )


def amplification_matrix(
    p: SchemeParameters, sigma: float, variant: Variant = Variant.FULL_TAYLOR
) -> AmplificationMatrix:
    """G = A^-1 B via dense LU with partial pivoting (columnwise solve)."""
    sm = assemble_step_matrices(p, sigma, variant)
    try:
        G = np.linalg.solve(sm.A, sm.B)
    except np.linalg.LinAlgError:
        _check_divisors(p, sigma)
        raise SingularStepError(f"step matrix A is singular at sigma = {sigma}")
    return AmplificationMatrix(k=p.k, sigma=float(sigma), G=G)


def oracle_step(
    p: SchemeParameters,
    sigma: float,
    scaled_state,
    variant: Variant = Variant.FULL_TAYLOR,
) -> np.ndarray:
    """Advance one scaled state by solving A x = B s directly."""
    sm = assemble_step_matrices(p, sigma, variant)
    s = np.asarray(scaled_state, dtype=float)
    try:
        return np.linalg.solve(sm.A, sm.B @ s)
    except np.linalg.LinAlgError:
        _check_divisors(p, sigma)
        raise SingularStepError(f"step matrix A is singular at sigma = {sigma}")


def scale_state(s: ModalState, tau: float) -> np.ndarray:
    """Entry j of the scaled vector is tau^j * d[j]."""
    if tau <= 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
    return np.array([tau**j * s.d[j] for j in range(3 * s.k)])


def unscale_state(v, tau: float, k: int, t: float = 0.0) -> ModalState:
    """Exact inverse of scale_state (round trip is the identity)."""
    if tau <= 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
    v = np.asarray(v, dtype=float)
    return ModalState(k=k, t=t, d=tuple(v[j] / tau**j for j in range(3 * k)))


def diagonal_blocks(
    p: SchemeParameters, sigma, variant: Variant = Variant.FULL_TAYLOR
) -> np.ndarray:
    """The k diagonal 3x3 blocks A_jj^-1 B_jj of G at every sigma, shape
    sigma.shape + (k, 3, 3); their spectra union to the spectrum of G.

    A is block diagonal, so these need only A's and B's diagonal blocks.
    Both are affine in sigma: A(s) = A(0) + s*(A(1) - A(0)) is the
    assembly bit for bit, as every sigma entry is 0 at sigma = 0.  A
    singular block raises amplification_matrix's error, with ``sigma``
    set to the first singular sigma in C order.
    """
    sigma = np.asarray(sigma, dtype=float)
    if np.any(sigma < 0.0):
        raise ValueError(f"sigma must be >= 0, got {sigma.min()}")
    j = np.arange(p.k)
    sm0, sm1 = (assemble_step_matrices(p, s, variant) for s in (0.0, 1.0))
    A0, B0, A1, B1 = (M.reshape(p.k, 3, p.k, 3)[j, :, j, :] for M in (sm0.A, sm0.B, sm1.A, sm1.B))
    s = sigma[..., None, None, None]
    A = A0 + s * (A1 - A0)
    try:
        return np.linalg.solve(A, B0 + s * (B1 - B0))
    except np.linalg.LinAlgError:
        # slogdet runs the solve's LU: its sign is 0 exactly where that failed.
        singular = (np.linalg.slogdet(A)[0] == 0.0).any(axis=-1).ravel()
        first = float(sigma.ravel()[singular.argmax()])
        try:
            _check_divisors(p, first)
            raise SingularStepError(f"step matrix A is singular at sigma = {first}")
        except SingularStepError as exc:
            exc.sigma = first
            raise
