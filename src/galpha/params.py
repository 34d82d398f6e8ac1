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

``gamma_beta`` writes the gamma and beta laws once, for one scheme's
floats and for arrays of many schemes alike.

All objects are immutable value types; the functions are pure.
"""

from __future__ import annotations

import json
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
    acceleration shift alpha_m (one type serves every order).  ``rho`` is
    the originating dissipation spec, or None when the alphas were set
    directly (e.g. for stability-map scans).
    """

    k: int
    alpha: tuple[float, ...]
    alpha_f: float
    beta: tuple[float, ...]
    gamma: tuple[float, ...]
    rho: DissipationSpec | None = None

    def __post_init__(self):
        object.__setattr__(self, "alpha", tuple(float(a) for a in self.alpha))
        object.__setattr__(self, "beta", tuple(float(b) for b in self.beta))
        object.__setattr__(self, "gamma", tuple(float(g) for g in self.gamma))
        for name in ("alpha", "beta", "gamma"):
            if len(getattr(self, name)) != self.k:
                raise ValueError(f"{name} must have length k = {self.k}")

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "rho": list(self.rho.rho) if self.rho is not None else None,
            "alpha": list(self.alpha),
            "alpha_f": self.alpha_f,
            "beta": list(self.beta),
            "gamma": list(self.gamma),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


@dataclass(frozen=True)
class StabilityReport:
    passed: bool
    violations: tuple[str, ...]


def derive(spec: DissipationSpec) -> SchemeParameters:
    """Coefficients for any k; alpha_f comes from the last control."""
    rho = spec.rho
    alpha = [2.0 / (1.0 + r) for r in rho[:-1]]
    alpha.append((2.0 - rho[-1]) / (1.0 + rho[-1]))
    p = from_alphas(spec.k, alpha, 1.0 / (1.0 + rho[-1]))
    return replace(p, rho=spec)


def check_stability_conditions(p: SchemeParameters) -> StabilityReport:
    """Closed-form sufficient conditions for unconditional stability.

    For k >= 2: alpha_i >= 1 for i < k and 1/2 <= alpha_f <= alpha_k.
    For k = 1 only the second pair applies (with alpha_k = alpha_m).
    Exact comparisons on the stored values; no tolerance.
    """
    violations = []
    for i in range(p.k - 1):
        if not p.alpha[i] >= 1.0:
            violations.append(f"alpha_{i + 1} >= 1")
    if not p.alpha_f >= 0.5:
        violations.append("alpha_f >= 1/2")
    if not p.alpha_f <= p.alpha[-1]:
        violations.append(f"alpha_f <= alpha_{p.k}")
    return StabilityReport(passed=not violations, violations=tuple(violations))


def gamma_beta(alpha, alpha_f):
    """The gamma and beta laws: gamma_j and beta_j of every block from
    alpha (..., k) and alpha_f (...), floats or arrays; both come back
    with alpha's shape.  The squaring is ``np.float_power``, which rounds
    like Python's float ``** 2`` (numpy's ``** 2`` on an array is off by
    an ulp on some values, e.g. alpha = 2.759).  Past |alpha| ~ 1e154
    beta overflows to inf, and past ~1e308 gamma too, without a warning."""
    alpha = np.asarray(alpha, dtype=float)
    with np.errstate(over="ignore"):
        gamma = alpha - 0.5
        gamma[..., -1] = 0.5 - np.asarray(alpha_f, dtype=float) + alpha[..., -1]
        # zeroes the imaginary part of the block eigenvalues in the stiff limit
        beta = np.float_power((2.0 * gamma + 1.0) / 4.0, 2)
    return gamma, beta


def from_alphas(
    k: int, alpha: Sequence[float], alpha_f: float
) -> SchemeParameters:
    """Build parameters from raw alpha values, recomputing gamma and beta
    with ``gamma_beta``; raises OverflowError where a beta is not finite.
    ``derive`` completes its alphas here, and then the result carries no
    dissipation spec."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    alpha = tuple(float(a) for a in alpha)
    if len(alpha) != k:
        raise ValueError(f"expected {k} alpha values, got {len(alpha)}")
    gamma, beta = gamma_beta(alpha, alpha_f)
    if not np.isfinite(beta).all():
        raise OverflowError(f"beta is not finite at alpha = {alpha}, alpha_f = {alpha_f}")
    return SchemeParameters(
        k=k, alpha=alpha, alpha_f=float(alpha_f),
        beta=tuple(beta.tolist()), gamma=tuple(gamma.tolist()), rho=None,
    )
