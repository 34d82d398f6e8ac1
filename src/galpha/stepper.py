"""Time stepping for the scalar oscillator u'' + lambda*u = 0.

The integrator carries the 3k time derivatives u, u', u'', ..., up to
order 3k-1 (physical, unscaled values).  The 3x3 block is the unit of
the scheme: the k = 1 method is the last block alone, and a step of any
order advances every block the same way.  Block j, at state offset b,
forms Taylor predictors of u^(b), u^(b+1) and u^(b+2), solves one scalar
implicit equation for its residual

    r_j = (-lambda*(d[b] + c_j*(pred_u - d[b])) - pred_a) / div_j,
    div_j = alpha_j + lambda*tau^2*c_j*beta_j,

with beta_j, gamma_j and the coupling c_j (1 for a leading block,
alpha_f for the last) as ``params.block_rows`` writes their laws, and
corrects the predictors by beta_j*tau^2*r_j, gamma_j*tau*r_j and r_j.
Every block reads step-n values only, so the result does not depend on
the order the blocks are visited in.

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
variant); ``_plan`` computes it once, so ``integrate`` pays for the
tau^m/m! table, the divisors and the stability check once per run.  The
step itself is generated code: the block layout depends only on (k,
variant), so ``_advance_code`` writes one straight-line ``advance(d)``
per structure and compiles it once, and each plan binds its own
constants (tau^m/m!, -lambda, couplings, divisors) to that code by name
through the function's globals.  No number is formatted into the source.
Each Taylor sum is written out as an explicit left-to-right
accumulation from the int 0, highest derivative first, so every result
keeps the bits (and the signs of zeros) of a plain loop that adds the
terms in that order.

Lambda is a plain number (a negative one is rejected), and a plan
raises OverflowError naming lambda and tau where a coefficient is not
finite.  A plan also takes a 1-D array of lambdas:
each state entry is then an array over modes, and every mode gets the
same operations in the same order as a scalar plan for its own lambda,
so the numbers agree bit for bit.

``integrate`` stores a scalar run as rows [t_i, d0, ..., d{3k-1}] and
builds no per-step ``ModalState``; ``Trajectory.times`` and
``Trajectory.states`` are views derived from those rows.
"""

from __future__ import annotations

import functools
import math
import types
import warnings
from dataclasses import dataclass
from enum import Enum
from math import factorial

import numpy as np

from .params import SchemeParameters, _refusal, _refused, check_stability_conditions


class Variant(str, Enum):
    FULL_TAYLOR = "full"
    AS_PRINTED = "printed"


@dataclass(frozen=True)
class StepConfig:
    tau: float
    variant: Variant = Variant.FULL_TAYLOR

    def __post_init__(self):
        # a numpy scalar would otherwise reach the trajectory's t column
        object.__setattr__(self, "tau", float(self.tau))
        # the step's layout is chosen by identity, so "printed" must become the member
        object.__setattr__(self, "variant", Variant(self.variant))
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


class Trajectory:
    """Snapshots of one scalar run, stored as rows [t, d0, ..., d{3k-1}].

    ``Trajectory(times=..., states=...)`` builds the rows from states of
    one k at strictly increasing times; ``integrate`` fills them
    directly.  ``times`` and ``states`` are derived from the rows on
    each access, so read ``rows`` where a few entries will do.
    """

    def __init__(self, times, states):
        if len(times) != len(states):
            raise ValueError("times and states must have equal length")
        if not states:
            raise ValueError("a trajectory needs at least one state")
        for a, b in zip(times, times[1:]):
            if not b > a:
                raise ValueError("times must be strictly increasing")
        self.k = states[0].k
        if any(s.k != self.k for s in states):
            raise ValueError("states must share one k")
        self.rows = [[t, *s.d] for t, s in zip(times, states)]

    @classmethod
    def _of_rows(cls, k: int, rows: list) -> Trajectory:
        traj = cls.__new__(cls)
        traj.k, traj.rows = k, rows
        return traj

    @property
    def times(self) -> tuple[float, ...]:
        return tuple(row[0] for row in self.rows)

    @property
    def states(self) -> tuple[ModalState, ...]:
        return tuple(ModalState(k=self.k, t=row[0], d=row[1:]) for row in self.rows)

    def __eq__(self, other):
        if not isinstance(other, Trajectory):
            return NotImplemented
        return self.k == other.k and self.rows == other.rows

    def write_csv(self, fh) -> None:
        """Columns t, d0..d{3k-1}; full double precision."""
        header = ",".join(["t"] + [f"d{j}" for j in range(3 * self.k)])
        fh.write(header + "\r\n" + _csv_rows(self.rows))


def _csv_rows(rows, cell=repr) -> str:
    """Rows as CSV lines, each cell formatted by ``cell``: ``repr`` for
    rows of numbers, ``str`` for rows that also hold text such as names
    (a float's ``str`` is its ``repr``, but ``repr`` is the faster call).
    Byte-identical to ``csv.writer`` fed the same cells, at a fraction
    of its cost; no cell here needs quoting."""
    return "".join(",".join(map(cell, row)) + "\r\n" for row in rows)


def init_state(lam: float, u0: float, v0: float, k: int) -> ModalState:
    """Exact initial derivatives via repeated differentiation of
    u'' = -lambda*u: d[2m] = (-lambda)^m u0, d[2m+1] = (-lambda)^m v0.
    A u0 or v0 that is not finite raises ValueError, and an entry that
    overflows raises OverflowError naming lambda."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not (math.isfinite(u0) and math.isfinite(v0)):
        raise ValueError(f"u0 and v0 must be finite, got u0 = {u0!r}, v0 = {v0!r}")
    d = []
    for j in range(3 * k):
        base = u0 if j % 2 == 0 else v0
        try:
            x = (-lam) ** (j // 2) * base + 0.0  # + 0.0 drops negative zero
        except OverflowError:
            x = math.inf
        if not math.isfinite(x):
            name = "u0" if j % 2 == 0 else "v0"
            raise OverflowError(f"(-lambda)^{j // 2} * {name} is not finite at lambda = {lam!r}")
        d.append(x)
    return ModalState(k=k, t=0.0, d=tuple(d))


def _tops(k: int, variant: Variant) -> list[tuple[int, int, int]]:
    """Per block, the last state entry of the u/u' predictors, of the
    updated u'', and of the u'' predictor in the residual."""
    n = 3 * k
    tops = []
    for j in range(k):
        if variant is Variant.FULL_TAYLOR or j == k - 1:
            tops.append((n - 1, n - 1, n - 1))
        elif j == 0:
            tops.append((n - 3, n - 3, n - 1))
        else:
            tops.append((3 * j + 2, 3 * j + 5, 3 * j + 5))
    return tops


def _taylor(i: int, end: int) -> str:
    """Source of d[i] plus its Taylor terms d[e]*tau^(e-i)/(e-i)! for
    e = end..i+1, accumulated left to right from the int 0."""
    terms = "".join(f" + d{e}*t{e - i}" for e in range(end, i, -1))
    return f"d{i} + (0{terms})"


def _advance_source(k: int, variant: Variant) -> str:
    """Straight-line source of one step for this structure.  Free names,
    bound per plan: ``nlam`` (-lambda), ``t1``.. (tau^m/m!), and per block
    j ``c{j}`` (coupling), ``q{j}`` (divisor), ``bt{j}`` (beta*tau^2) and
    ``gt{j}`` (gamma*tau)."""
    n = 3 * k
    lines = ["def advance(d):", "    " + ", ".join(f"d{i}" for i in range(n)) + ", = d"]
    new = []
    for j, (top_uv, top_a, top_res) in enumerate(_tops(k, variant)):
        b = 3 * j
        lines += [
            f"    u{j} = {_taylor(b, top_uv)}",
            f"    a{j} = {_taylor(b + 2, top_res)}",
            f"    r{j} = (nlam * (d{b} + c{j} * (u{j} - d{b})) - a{j}) / q{j}",
        ]
        # the updated u'' reuses the residual's predictor when they share a span
        acc = f"a{j}" if top_a == top_res else f"({_taylor(b + 2, top_a)})"
        new += [f"u{j} + bt{j} * r{j}", f"{_taylor(b + 1, top_uv)} + gt{j} * r{j}", f"{acc} + r{j}"]
    lines.append("    return (" + ", ".join(new) + ",)")
    return "\n".join(lines) + "\n"


@functools.lru_cache(maxsize=None)
def _advance_code(k: int, variant: Variant) -> types.CodeType:
    """``_advance_source`` compiled once per structure."""
    module = compile(_advance_source(k, variant), f"<galpha step k={k} {variant.value}>", "exec")
    return next(c for c in module.co_consts if isinstance(c, types.CodeType))


def _plan(p: SchemeParameters, lam, cfg: StepConfig):
    """``advance``, the structure's generated step bound to the
    coefficients of one (parameters, lambda, tau, variant).

    ``lam`` is a float or a 1-D array of per-mode lambdas; the checks
    apply to every entry.  Rejects a negative lambda, warns once if the
    parameters violate the unconditional-stability conditions, raises
    OverflowError naming lambda and tau where a coefficient is not
    finite (the divisor first), and SingularStepError where
    ``params._refused`` refuses a block at sigma = lambda*tau^2.
    """
    tau = cfg.tau
    if np.ndim(lam) == 0:
        lam = float(lam)  # a numpy scalar would otherwise reach every row
    lams = np.ravel(lam)
    if np.any(lams < 0.0):
        raise ValueError(f"lambda = {float(lams[lams < 0.0][0])} < 0 rejected")
    report = check_stability_conditions(p)
    if not report.passed:
        warnings.warn(
            "parameters violate the unconditional-stability conditions: "
            + ", ".join(report.violations),
            stacklevel=3,
        )

    def overflow(what, i=0):
        return OverflowError(f"{what} is not finite at lambda = {float(lams[i])!r}, tau = {tau!r}")

    k = p.k
    try:
        env = {"nlam": -lam, **{f"t{m}": tau**m / factorial(m) for m in range(1, 3 * k)}}
    except OverflowError:
        raise overflow("a power of tau") from None
    with np.errstate(over="ignore"):
        sigma = lam * tau * tau
    for j in range(k):
        div, refused = _refused(p.alpha[j], p.beta[j], p.c[j], sigma)
        bt2, gt = p.beta[j] * tau * tau, p.gamma[j] * tau
        bad = np.ravel(~np.isfinite(div))
        if bad.any():
            raise overflow(f"block {j + 1} divisor alpha + lambda*tau^2*c*beta", int(bad.argmax()))
        if not (math.isfinite(bt2) and math.isfinite(gt)):
            raise overflow(f"block {j + 1} coefficient beta*tau^2 or gamma*tau")
        if refused.any():
            i = int(np.argmax(refused))
            raise _refusal(j, float(np.ravel(div)[i]), f"lambda = {float(lams[i])!r}, tau = {tau!r}")
        env.update({f"c{j}": p.c[j], f"q{j}": div, f"bt{j}": bt2, f"gt{j}": gt})
    # advance(d): the derivatives at step n+1, as a tuple, from those at
    # step n (floats, or arrays over modes for an array plan)
    return types.FunctionType(_advance_code(k, cfg.variant), env)


def step(p: SchemeParameters, lam: float, cfg: StepConfig, s: ModalState) -> ModalState:
    """One step of any order and variant."""
    if s.k != p.k:
        raise ValueError(f"state has k = {s.k}, parameters have k = {p.k}")
    return ModalState(k=p.k, t=s.t + cfg.tau, d=_plan(p, lam, cfg)(s.d))


def integrate(
    p: SchemeParameters,
    lam: float,
    cfg: StepConfig,
    u0: float,
    v0: float,
    n_steps: int,
) -> Trajectory:
    """n_steps uniform steps from the exact initial state; n_steps+1
    rows [t_i, *d] at t_i = i*tau.  Raises OverflowError naming lambda
    and tau if the state overflows."""
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    advance = _plan(p, lam, cfg)
    tau = cfg.tau
    d = init_state(lam, u0, v0, p.k).d
    rows = [[0.0, *d]]
    append = rows.append
    for i in range(1, n_steps + 1):
        d = advance(d)
        # times are exactly i*tau, so long runs do not drift
        append([i * tau, *d])
    # The step divides only by finite divisors, so an entry that is not
    # finite stays so to the last row.
    if not all(map(math.isfinite, d)):
        raise OverflowError(f"the state is not finite at lambda = {float(lam)!r}, tau = {tau!r}")
    return Trajectory._of_rows(p.k, rows)
