"""Empirical order verification and the per-block recurrence check.

The model problem u'' + lambda*u = 0 has the closed-form solution used
as the error oracle; orders are least-squares slopes of log(error)
against log(tau) at the end time.  Errors below the round-off floor are
excluded from the fit (sixth-order schemes reach machine noise within a
few refinements) and counted, not silently dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import cos, sin, sqrt

import numpy as np

from .amplification import diagonal_blocks
from .params import SchemeParameters
from .spectral import char_coeffs_3x3
from .stepper import StepConfig, Variant, _csv_rows, integrate

ROUNDOFF_FLOOR = 1e-12


@dataclass(frozen=True)
class StudyRow:
    n_steps: int
    tau: float
    error_u: float
    error_v: float


@dataclass(frozen=True)
class ConvergenceStudy:
    k: int
    rho: tuple[float, ...] | None
    variant: Variant
    lam: float
    u0: float
    v0: float
    T: float
    rows: tuple[StudyRow, ...]
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
        rows = [
            [self.k, self.variant.value, *rho, r.n_steps, r.tau, r.error_u, r.error_v]
            for r in self.rows
        ]
        fh.write(_csv_rows([header, *rows], str))

    def summary_dict(self) -> dict:
        return {
            "k": self.k,
            "rho": list(self.rho) if self.rho is not None else None,
            "variant": self.variant.value,
            "lambda": self.lam,
            "T": self.T,
            "fitted_order_u": self.fitted_order_u,
            "fitted_order_v": self.fitted_order_v,
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
        eu = abs(u - ue)
        ev = abs(v - ve)
        rows.append(StudyRow(n_steps=n, tau=tau, error_u=eu, error_v=ev))

    def _fit(getter):
        pts = [(r.tau, getter(r)) for r in rows if getter(r) >= ROUNDOFF_FLOOR]
        if len(pts) < 2:
            return float("nan")
        return fit_order([t for t, _ in pts], [e for _, e in pts])

    discarded = sum(1 for r in rows if r.error_u < ROUNDOFF_FLOOR)
    return ConvergenceStudy(
        k=p.k,
        rho=p.rho.rho if p.rho is not None else None,
        variant=variant,
        lam=lam,
        u0=u0,
        v0=v0,
        T=T,
        rows=tuple(rows),
        fitted_order_u=_fit(lambda r: r.error_u),
        fitted_order_v=_fit(lambda r: r.error_v),
        discarded=discarded,
    )


def verify_recurrence(
    p: SchemeParameters,
    sigma: float,
    component: int,
    n_terms: int = 50,
) -> float:
    """Max relative residual of the 4-term invariant recurrence

        w_{n+1} - G1*w_n + G2*w_{n-1} - G3*w_{n-2} = 0

    for the scalar sequence read off one component of repeated diagonal-
    block applications (Cayley-Hamilton on the 3x3 block).  Normalized
    by the largest |w_n| seen."""
    if n_terms < 4:
        raise ValueError("need at least 4 terms")
    k = p.k
    if not 0 <= component < 3 * k:
        raise ValueError(f"component must be in [0, {3 * k})")
    blk = diagonal_blocks(p, sigma)[component // 3]
    idx = component % 3
    g1, g2, g3 = char_coeffs_3x3(blk)
    vec = np.ones(3)
    seq = []
    for _ in range(n_terms):
        seq.append(vec[idx])
        vec = blk @ vec
    seq.append(vec[idx])
    w = np.asarray(seq)
    scale = float(np.max(np.abs(w)))
    if scale == 0.0:
        return 0.0
    res = w[3:] - g1 * w[2:-1] + g2 * w[1:-2] - g3 * w[:-3]
    return float(np.max(np.abs(res)) / scale)
