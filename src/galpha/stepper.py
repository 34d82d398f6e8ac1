"""Time stepping for the scalar oscillator u'' + lambda*u = 0.

The integrator carries the 3k time derivatives u, u', u'', ..., up to
order 3k-1 (physical, unscaled values).  The 3x3 block is the unit of
the scheme: the k = 1 method is the last block alone, and a step of any
order advances every block the same way.  Block j, at state offset b,
forms Taylor predictors of u^(b), u^(b+1) and u^(b+2), solves one scalar
implicit equation for its residual

    r_j = (-lambda*(d[b] + c_j*(pred_u - d[b])) - pred_a) / div_j,
    div_j = alpha_j + lambda*tau^2*c_j*beta_j,

with coupling c_j = 1 for the leading blocks and c_k = alpha_f for the
last one, and corrects the predictors by beta_j*tau^2*r_j,
gamma_j*tau*r_j and r_j.  Every block reads step-n values only, so the
result does not depend on the order the blocks are visited in.

The Taylor spans are the only difference between the variants.  The
last block always spans its own three entries.  FULL_TAYLOR (the
default) extends every leading block's predictors over all higher
derivatives in the state, which attains order 2k.  AS_PRINTED truncates
the leading blocks: the first block predicts from entries up to 3k-3,
except for the acceleration in its residual, which keeps the full span;
a middle block predicts u and u' from its own three entries, and u''
from its own entry plus the next block's three.
It is kept as a comparison mode and tops out near order 3 for k = 3.

Everything but the state is fixed for a given (parameters, lambda, tau,
variant); ``_StepPlan`` computes it once, so ``integrate`` pays for the
tau^m/m! table, the divisors and the stability check once per run.  A
plan also takes a 1-D array of lambdas: each state entry is then an
array over modes, and every mode gets the same operations in the same
order as a scalar plan for its own lambda, so the numbers agree bit for
bit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum
from math import factorial
from operator import mul

import numpy as np

from .errors import SingularStepError
from .params import SchemeParameters, check_stability_conditions


class Variant(str, Enum):
    FULL_TAYLOR = "full"
    AS_PRINTED = "printed"


@dataclass(frozen=True)
class OscillatorMode:
    """One modal stiffness lambda of u'' + lambda*u = 0 (units 1/time^2).

    ``_StepPlan`` also accepts a 1-D array of lambdas, one per mode.
    """

    lam: float


@dataclass(frozen=True)
class StepConfig:
    tau: float
    variant: Variant = Variant.FULL_TAYLOR
    allow_negative_lambda: bool = False

    def __post_init__(self):
        if not self.tau > 0.0:
            raise ValueError(f"tau must be positive, got {self.tau}")


@dataclass(frozen=True)
class ModalState:
    """Derivatives d[j] ~ u^(j)(t) for j = 0..3k-1 at one time level."""

    k: int
    t: float
    d: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "d", tuple(float(x) for x in self.d))
        if len(self.d) != 3 * self.k:
            raise ValueError(f"state must hold 3k = {3 * self.k} entries")


@dataclass(frozen=True)
class Trajectory:
    times: tuple[float, ...]
    states: tuple[ModalState, ...]

    def __post_init__(self):
        if len(self.times) != len(self.states):
            raise ValueError("times and states must have equal length")
        for a, b in zip(self.times, self.times[1:]):
            if not b > a:
                raise ValueError("times must be strictly increasing")

    def write_csv(self, fh) -> None:
        """Columns t, d0..d{3k-1}; full double precision."""
        header = ",".join(["t"] + [f"d{j}" for j in range(3 * self.states[0].k)])
        rows = ((t, *s.d) for t, s in zip(self.times, self.states))
        fh.write(header + "\r\n" + _csv_rows(rows))


def _csv_rows(rows, cell=repr) -> str:
    """Rows as CSV lines, each cell formatted by ``cell``: ``repr`` for
    rows of numbers, ``str`` for rows that also hold text such as names
    (a float's ``str`` is its ``repr``, but ``repr`` is the faster call).
    Byte-identical to ``csv.writer`` fed the same cells, at a fraction
    of its cost; no cell here needs quoting."""
    return "".join(",".join(map(cell, row)) + "\r\n" for row in rows)


def init_state(mode: OscillatorMode, u0: float, v0: float, k: int) -> ModalState:
    """Exact initial derivatives via repeated differentiation of
    u'' = -lambda*u: d[2m] = (-lambda)^m u0, d[2m+1] = (-lambda)^m v0."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    lam = mode.lam
    d = []
    for j in range(3 * k):
        base = u0 if j % 2 == 0 else v0
        d.append((-lam) ** (j // 2) * base + 0.0)  # + 0.0 drops negative zero
    return ModalState(k=k, t=0.0, d=tuple(d))


def _span(coef, i: int, end: int) -> tuple[slice, tuple[float, ...]]:
    """Taylor terms of entries end..i+1 (highest first) about entry i."""
    return slice(end, i, -1), tuple(coef[end - i : 0 : -1])


class _StepPlan:
    """Per-block coefficient tables of one step, built once per
    (parameters, lambda, tau, variant).

    ``mode.lam`` is a float or a 1-D array of per-mode lambdas; the
    checks apply to every entry.  Rejects a negative lambda unless
    allowed, warns once if the parameters violate the
    unconditional-stability conditions, and raises SingularStepError on a
    vanishing block divisor, naming the lambda it occurs at.
    """

    def __init__(self, p: SchemeParameters, mode: OscillatorMode, cfg: StepConfig):
        lam, tau = mode.lam, cfg.tau
        lams = np.ravel(lam)
        if not cfg.allow_negative_lambda and np.any(lams < 0.0):
            raise ValueError(
                f"lambda = {float(lams[lams < 0.0][0])} < 0 rejected; set allow_negative_lambda"
            )
        report = check_stability_conditions(p)
        if not report.passed:
            warnings.warn(
                "parameters violate the unconditional-stability conditions: "
                + ", ".join(report.violations),
                stacklevel=3,
            )
        k, n = p.k, 3 * p.k
        coef = [tau**m / factorial(m) for m in range(n)]
        full = cfg.variant is Variant.FULL_TAYLOR
        self.k, self.lam = k, lam
        self.blocks = []
        for j in range(k):
            b = 3 * j
            c = p.alpha_f if j == k - 1 else 1.0
            # last entry of the u/u' predictors, of the updated u'', and of
            # the u'' predictor in the residual
            if full or j == k - 1:
                top_uv = top_a = top_res = n - 1
            elif j == 0:
                top_uv, top_a, top_res = n - 3, n - 3, n - 1
            else:
                top_uv, top_a, top_res = b + 2, b + 5, b + 5
            alpha, shift = p.alpha[j], lam * tau * tau * c * p.beta[j]
            div = alpha + shift
            floor = 1e-14 * np.maximum(np.maximum(abs(alpha), abs(shift)), 1e-300)
            singular = np.ravel(abs(div) < floor)
            if singular.any():
                i = int(singular.argmax())
                raise SingularStepError(
                    f"scalar divisor alpha + lambda*tau^2*c*beta = {float(np.ravel(div)[i])} "
                    f"at lambda = {float(lams[i])} "
                    f"(alpha = {alpha}, shift = {float(np.ravel(shift)[i])})"
                )
            self.blocks.append((
                b, c, div, p.beta[j] * tau * tau, p.gamma[j] * tau,
                _span(coef, b, top_uv),
                _span(coef, b + 1, top_uv),
                _span(coef, b + 2, top_a),
                _span(coef, b + 2, top_res),
            ))

    def advance(self, d) -> list:
        """Derivatives at step n+1 from those at step n (floats, or
        arrays over modes for an array plan)."""
        lam = self.lam
        new = [0.0] * (3 * self.k)
        for b, c, div, bt2, gt, (su, cu), (sv, cv), (sa, ca), (sr, cr) in self.blocks:
            pred_u = d[b] + sum(map(mul, d[su], cu))
            res_a = d[b + 2] + sum(map(mul, d[sr], cr))
            r = (-lam * (d[b] + c * (pred_u - d[b])) - res_a) / div
            new[b] = pred_u + bt2 * r
            new[b + 1] = d[b + 1] + sum(map(mul, d[sv], cv)) + gt * r
            new[b + 2] = d[b + 2] + sum(map(mul, d[sa], ca)) + r
        return new


def step(
    p: SchemeParameters, mode: OscillatorMode, cfg: StepConfig, s: ModalState
) -> ModalState:
    """One step of any order and variant."""
    if s.k != p.k:
        raise ValueError(f"state has k = {s.k}, parameters have k = {p.k}")
    d = _StepPlan(p, mode, cfg).advance(s.d)
    return ModalState(k=p.k, t=s.t + cfg.tau, d=d)


def integrate(
    p: SchemeParameters,
    mode: OscillatorMode,
    cfg: StepConfig,
    u0: float,
    v0: float,
    n_steps: int,
) -> Trajectory:
    """n_steps uniform steps from the exact initial state; n_steps+1
    snapshots at t_i = i*tau."""
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    plan = _StepPlan(p, mode, cfg)
    s = init_state(mode, u0, v0, p.k)
    states = [s]
    for i in range(1, n_steps + 1):
        # times are exactly i*tau, so long runs do not drift
        s = ModalState(k=p.k, t=i * cfg.tau, d=plan.advance(s.d))
        states.append(s)
    return Trajectory(
        times=tuple(st.t for st in states), states=tuple(states)
    )
