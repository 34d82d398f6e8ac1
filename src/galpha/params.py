"""Scheme coefficients for the 2k-order generalized-alpha family.

The user-facing knobs are the high-frequency dissipation controls
rho_inf (one per 3x3 block, each in [0, 1]).  Everything else -- the
alpha shifts, the gamma accuracy conditions and the beta values that
make the block spectra real in the stiff limit -- is derived here in
closed form.  The k = 1 method is the last block alone (alpha_m in
alpha_k's place), so one set of laws covers every order:

    alpha_i = 2/(1+rho_i)                     for i < k,
    alpha_k = (2-rho_k)/(1+rho_k),   alpha_f = 1/(1+rho_k),
    gamma_i = alpha_i - 1/2                   for i < k,
    gamma_k = 1/2 - alpha_f + alpha_k,
    beta_i  = (1 + 4*gamma_i + 4*gamma_i^2)/16 = ((2*gamma_i + 1)/4)^2.

Block j differs from the classic generalized-alpha block only in its
implicit coupling c_j: 1 for a leading block, alpha_f for the last.
``block_rows`` writes the gamma, beta and coupling laws once, for one
scheme's floats and for arrays of many schemes alike.

All objects are immutable value types; the functions are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class DissipationSpec:
    """Half-order k (accuracy 2k) plus one dissipation control per block."""

    k: int
    rho: tuple[float, ...]

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        object.__setattr__(self, "rho", tuple(float(r) for r in self.rho))
        if len(self.rho) != self.k:
            raise ValueError(f"expected {self.k} rho values, got {len(self.rho)}")
        for i, r in enumerate(self.rho):
            if not 0.0 <= r <= 1.0:
                raise ValueError(f"rho[{i}] = {r} outside [0, 1]")


@dataclass(frozen=True)
class SchemeParameters:
    """All coefficients of one 2k-order scheme.

    ``alpha`` holds alpha_1..alpha_k; for k = 1 the single entry is the
    acceleration shift alpha_m (one type serves every order).  ``c``
    holds the block couplings from ``block_rows``.  ``rho`` is the
    originating dissipation spec, or None when the alphas were set
    directly (e.g. for stability-map scans).
    """

    k: int
    alpha: tuple[float, ...]
    alpha_f: float
    beta: tuple[float, ...]
    gamma: tuple[float, ...]
    c: tuple[float, ...]
    rho: DissipationSpec | None = None

    def __post_init__(self):
        # alpha_f and alpha first: beta, gamma and c follow from them
        if not math.isfinite(self.alpha_f):
            raise ValueError(f"alpha_f must be finite, got {self.alpha_f}")
        for name in ("alpha", "beta", "gamma", "c"):
            value = tuple(map(float, getattr(self, name)))
            if len(value) != self.k:
                raise ValueError(f"{name} must have length k = {self.k}")
            if not all(map(math.isfinite, value)):
                raise ValueError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, value)

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "rho": list(self.rho.rho) if self.rho is not None else None,
            "alpha": list(self.alpha),
            "alpha_f": self.alpha_f,
            "beta": list(self.beta),
            "gamma": list(self.gamma),
        }


@dataclass(frozen=True)
class StabilityReport:
    violations: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def derive(spec: DissipationSpec) -> SchemeParameters:
    """Coefficients for any k; alpha_f comes from the last control."""
    rho = spec.rho
    alpha = [2.0 / (1.0 + r) for r in rho[:-1]]
    alpha.append((2.0 - rho[-1]) / (1.0 + rho[-1]))
    p = from_alphas(spec.k, alpha, 1.0 / (1.0 + rho[-1]))
    return replace(p, rho=spec)


def block_conditions(alpha, c):
    """The stability rule 1/2 <= c <= alpha of a block, as its halves
    (c >= 1/2, c <= alpha), for floats, arrays or Fractions of block
    rows' alpha and c: alpha_j >= 1 for a leading block (c = 1), and
    1/2 <= alpha_f <= alpha_k for the last (c = alpha_f).  Routh-Hurwitz
    on ``amplification._block_poly`` reduces to it: the block's radius is
    <= 1 at every sigma > 0 exactly when both halves hold."""
    return 0.5 <= c, c <= alpha


def check_stability_conditions(p: SchemeParameters) -> StabilityReport:
    """The ``block_conditions`` each block misses: alpha_i >= 1 for i < k
    and 1/2 <= alpha_f <= alpha_k (alpha_k = alpha_m for k = 1)."""
    violations = []
    for j, (damped, bounded) in enumerate(map(block_conditions, p.alpha, p.c)):
        if not damped:  # c = 1 >= 1/2 in a leading block
            violations.append("alpha_f >= 1/2")
        if not bounded:
            violations.append(f"alpha_f <= alpha_{p.k}" if j == p.k - 1 else f"alpha_{j + 1} >= 1")
    return StabilityReport(tuple(violations))


class SingularStepError(ArithmeticError):
    """A block that ``_refused`` refuses, in the stepper, the block solve
    or the dense oracle; ``_refusal`` writes the message."""


def _refused(alpha, beta, c, sigma):
    """The one rule for refusing a block, in the stepper, the block solve
    and the dense oracle: (div, refused) for the divisor div = alpha +
    shift, shift = sigma*c*beta (det A_jj), refused where div is NaN or
    |div| < 1e-14 * max(|alpha|, |shift|, 1e-300) (it cancels to
    round-off of its terms), or G's entry -sigma*c/div is not finite
    (there the LU pivot -div/(sigma*c) can underflow to zero; every other
    pivot is div to round-off).  Floats (then div is a float) or arrays."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        sc = sigma * c
        shift = sc * beta
        div = alpha + shift
        floor = 1e-14 * np.maximum(np.maximum(abs(alpha), abs(shift)), 1e-300)
        refused = ~((abs(div) >= floor) & np.isfinite(np.divide(sc, div)))  # NaN fails >=
    return div, refused


def _refusal(j: int, div: float, at: str) -> SingularStepError:
    """The one message: block j (from 0), its divisor, and ``at`` where."""
    return SingularStepError(f"block {j + 1} divisor alpha_{j + 1} + sigma*c*beta_{j + 1} = {div} at {at}")


def block_rows(alpha, alpha_f) -> np.ndarray:
    """The block table: rows (alpha_j, beta_j, gamma_j, c_j) of every
    block, shape alpha's (..., k) + (4,), from alpha (..., k) and alpha_f
    (...), floats or arrays.  This is the one writer of the gamma, beta
    and coupling laws.  The squaring is ``np.float_power``, which rounds
    like Python's float ``** 2`` (numpy's ``** 2`` on an array is off by
    an ulp on some values, e.g. alpha = 2.759).  Past |alpha| ~ 1e154
    beta overflows to inf, and past ~1e308 gamma too, without a warning."""
    alpha = np.asarray(alpha, dtype=float)
    rows = np.ones(alpha.shape + (4,))  # c = 1 for the leading blocks
    rows[..., 0] = alpha
    rows[..., -1, 3] = alpha_f
    with np.errstate(over="ignore"):
        gamma = alpha - 0.5
        gamma[..., -1] = 0.5 - np.asarray(alpha_f, dtype=float) + alpha[..., -1]
        rows[..., 2] = gamma
        # zeroes the imaginary part of the block eigenvalues in the stiff limit
        rows[..., 1] = np.float_power((2.0 * gamma + 1.0) / 4.0, 2)
    return rows


def from_alphas(
    k: int, alpha: Sequence[float], alpha_f: float
) -> SchemeParameters:
    """Build parameters from raw alpha values, with beta, gamma and c
    from ``block_rows``.  A non-finite alpha or alpha_f raises
    ValueError naming it, and a finite alpha whose beta overflows raises
    OverflowError.  ``derive`` completes its alphas here, and then the
    result carries no dissipation spec."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    alpha = tuple(float(a) for a in alpha)
    if len(alpha) != k:
        raise ValueError(f"expected {k} alpha values, got {len(alpha)}")
    _, beta, gamma, c = block_rows(alpha, alpha_f).T.tolist()
    if not all(map(math.isfinite, beta)) and all(map(math.isfinite, (*alpha, alpha_f))):
        raise OverflowError(f"beta is not finite at alpha = {alpha}, alpha_f = {alpha_f}")
    return SchemeParameters(
        k=k, alpha=alpha, alpha_f=float(alpha_f), beta=beta, gamma=gamma, c=c, rho=None,
    )
