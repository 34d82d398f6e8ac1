"""Empirical order verification and the per-block recurrence check.

The model problem u'' + lambda*u = 0 has the closed-form solution used
as the error oracle; orders are least-squares slopes of log(error)
against log(tau) at the end time.  Errors below the round-off floor are
excluded from the fit (sixth-order schemes reach machine noise within a
few refinements) and counted, not silently dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import cos, isnan, sin, sqrt

import numpy as np

from .amplification import _block_poly, diagonal_blocks
from .params import SchemeParameters
from .stepper import StepConfig, Variant, _csv_rows, integrate

ROUNDOFF_FLOOR = 1e-12
RECURRENCE_TERMS = 50


@dataclass(frozen=True)
class ConvergenceStudy:
    """One study; each row is (n_steps, tau, error_u, error_v)."""

    k: int
    rho: tuple[float, ...] | None
    variant: Variant
    lam: float
    T: float
    rows: tuple[tuple[int, float, float, float], ...]
    fitted_order_u: float
    fitted_order_v: float
    discarded: int

    def write_csv(self, fh) -> None:
        rho = list(self.rho) if self.rho is not None else []
        header = (
            ["k", "variant"]
            + [f"rho{i + 1}" for i in range(len(rho))]
            + ["n_steps", "tau", "error_u", "error_v"]
        )
        rows = [[self.k, self.variant.value, *rho, *r] for r in self.rows]
        fh.write(_csv_rows([header, *rows], str))

    def summary_dict(self) -> dict:
        return {
            "k": self.k,
            "rho": list(self.rho) if self.rho is not None else None,
            "variant": self.variant.value,
            "lambda": self.lam,
            "T": self.T,
            # an undefined (NaN) order is null, which strict JSON parsers accept
            "fitted_order_u": None if isnan(self.fitted_order_u) else self.fitted_order_u,
            "fitted_order_v": None if isnan(self.fitted_order_v) else self.fitted_order_v,
            "discarded": self.discarded,
        }


def exact_solution(lam: float, u0: float, v0: float, t: float) -> tuple[float, float]:
    """(u, v) of u'' + lambda*u = 0 at time t; linear branch for lambda = 0."""
    if lam < 0.0:
        raise ValueError(f"lambda must be >= 0, got {lam}")
    if lam == 0.0:
        return (u0 + v0 * t, v0)
    w = sqrt(lam)
    return (
        u0 * cos(w * t) + (v0 / w) * sin(w * t),
        -u0 * w * sin(w * t) + v0 * cos(w * t),
    )


def fit_order(taus, errors) -> float:
    """Least-squares slope of log(error) vs log(tau)."""
    taus = np.asarray(taus, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if taus.size < 2:
        raise ValueError("need at least 2 points to fit an order")
    if np.any(errors <= 0.0):
        raise ValueError("all errors must be positive")
    return float(np.polyfit(np.log(taus), np.log(errors), 1)[0])


def refinement(T: float, steps_list) -> list[tuple[int, float]]:
    """(n, tau = T/n) per step count: at least 3 counts, strictly
    ascending from 1, over a positive end time T."""
    steps = [int(n) for n in steps_list]
    if len(steps) < 3 or steps[0] < 1 or any(b <= a for a, b in zip(steps, steps[1:])):
        raise ValueError(f"need >= 3 strictly ascending step counts from 1, got {steps}")
    if not T > 0.0:
        raise ValueError(f"T must be positive, got {T}")
    return [(n, T / n) for n in steps]


def run_convergence(
    p: SchemeParameters,
    lam: float,
    u0: float,
    v0: float,
    T: float,
    steps_list,
    variant: Variant = Variant.FULL_TAYLOR,
) -> ConvergenceStudy:
    """Integrate once per step count and fit end-time error orders."""
    grid = refinement(T, steps_list)
    ue, ve = exact_solution(lam, u0, v0, T)
    rows = []
    for n, tau in grid:
        cfg = StepConfig(tau=tau, variant=variant)
        _, u, v, *_ = integrate(p, lam, cfg, u0, v0, n).rows[-1]
        rows.append((n, tau, abs(u - ue), abs(v - ve)))
    taus, errors_u, errors_v = np.array(rows)[:, 1:].T

    def _fit(errors):
        keep = errors >= ROUNDOFF_FLOOR
        if keep.sum() < 2:
            return float("nan")
        return fit_order(taus[keep], errors[keep])

    return ConvergenceStudy(
        k=p.k,
        rho=p.rho.rho if p.rho is not None else None,
        variant=variant,
        lam=lam,
        T=T,
        rows=tuple(rows),
        fitted_order_u=_fit(errors_u),
        fitted_order_v=_fit(errors_v),
        discarded=int((errors_u < ROUNDOFF_FLOOR).sum()),
    )


def verify_recurrence(p: SchemeParameters, sigma: float, component: int) -> float:
    """Max relative residual of the 4-term recurrence

        p3*w_{n+3} + p2*w_{n+2} + p1*w_{n+1} + p0*w_n = 0

    with the closed-form block polynomial ``amplification._block_poly``,
    for the scalar sequence read off one component of repeated solved-
    block applications.  Divided by p3 and the largest |w_n| seen, over
    RECURRENCE_TERMS + 1 terms."""
    k = p.k
    if not 0 <= component < 3 * k:
        raise ValueError(f"component must be in [0, {3 * k})")
    j, idx = divmod(component, 3)
    blk = diagonal_blocks(p, sigma)[j]
    p3, p2, p1, p0 = _block_poly(p.alpha[j], p.beta[j], p.gamma[j], p.c[j], sigma)
    vec = np.ones(3)
    seq = []
    for _ in range(RECURRENCE_TERMS):
        seq.append(vec[idx])
        vec = blk @ vec
    seq.append(vec[idx])
    w = np.asarray(seq)
    scale = float(np.max(np.abs(w)))
    if scale == 0.0:
        return 0.0
    res = (p3 * w[3:] + p2 * w[2:-1] + p1 * w[1:-2] + p0 * w[:-3]) / p3
    return float(np.max(np.abs(res)) / scale)
