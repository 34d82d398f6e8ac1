"""Eigenvalue analysis of the amplification matrix, batched over sigma.

Because G is block upper triangular with 3x3 diagonal blocks, its
spectrum is the union of the k block spectra, which both variants share.
Every block here comes from the one block solve,
``amplification._block_solve``.  ``eigvals`` takes the blocks at every
sigma in one (..., k, 3, 3) stack and all their eigenvalues in a single
``np.linalg.eigvals`` call, then post-processes each block's three roots
as array operations:

* A fully clustered triple is collapsed onto the real axis.  In the
  stiff limit the last block tends to a triple root at rho_k, and the
  computed roots split from it in a cube-root-of-unity pattern whose
  individual magnitudes drift as O(split) while their product stays
  put; the collapse uses |product|^(1/3), which recovers the limit to
  round-off.
* Otherwise conjugate pairs whose imaginary part is negligible are
  flattened onto the real axis with their magnitude kept exact, so the
  O(sigma^-1/2) splitting of the stiff-limit double roots does not
  surface as spurious imaginary parts while spectral radii stay
  accurate to round-off.

Results are arrays with sigma's shape in front: ``eigvals`` gives
(..., k, 3) complex values, ``spectral_radius`` one float per sigma, and
``sweep_spectrum`` a ``Spectrum`` of the three arrays.

A stability map is one array pass from its axes to its radii.
``stability_map`` builds every grid point's k block rows (alpha, beta,
gamma, c) at once from the two ``linspace`` axes and the fixed values
with ``params.block_rows``, which writes the gamma, beta and coupling
laws, and solves each distinct row once: leading block j depends on
alpha_j alone and the last block on (alpha_k, alpha_f) alone, so across
a 2-D grid most points share most of their blocks.  Every (distinct
block, sigma) pair goes through one block solve -> eigvals -> radius
pass per slab of at most MAP_SLAB_BLOCKS pairs, and a point's radius is
the largest of its k blocks' radii.  A block the solve masks (singular
by the stepper's divisor rule, ``params._singular_divisor``, or not
finite: beta overflows past |alpha| ~ 1e154) gets radius inf, as does
every point holding it.  ``classify_stability`` is the one-point
case of the same pass, with all k blocks of the scheme in each pair.
Radii are grid maxima, but "stable" is exact for every sigma > 0: each
block meets ``params.block_conditions`` and the radius is finite.

Sigma convention: sigma = lambda*tau^2, finite and >= 0; sweeps use a
positive log axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import SchemeParameters, block_conditions, block_rows, check_stability_conditions
from .amplification import _block_solve, diagonal_blocks


@dataclass(frozen=True)
class Spectrum:
    """A sweep: sigma (N,), eigs (N, k, 3) as ``eigvals`` gives them, and
    the spectral radius (N,) at each sigma."""

    sigma: np.ndarray
    eigs: np.ndarray
    radius: np.ndarray


def _require_finite(obj, *names) -> None:
    """ValueError naming the first of ``obj``'s fields that is not finite."""
    for name in names:
        if not math.isfinite(getattr(obj, name)):
            raise ValueError(f"{name} must be finite, got {getattr(obj, name)}")


# A sweep is solved as one array, so its memory grows with the point
# count: at ~420 B per 3x3 block, 1e5 sigmas peak near 42 MB per block.
# A stability map holds its points' block rows whole, so it has the same cap.
MAX_SWEEP_POINTS = 100_000


@dataclass(frozen=True)
class SweepConfig:
    sigma_min: float = 1e-6
    sigma_max: float = 1e8
    n_points: int = 60

    def grid(self) -> np.ndarray:
        _require_finite(self, "sigma_min", "sigma_max")
        if not (0.0 < self.sigma_min < self.sigma_max):
            raise ValueError("need 0 < sigma_min < sigma_max")
        if not 2 <= self.n_points <= MAX_SWEEP_POINTS:
            raise ValueError(f"need 2 to {MAX_SWEEP_POINTS} sweep points, got {self.n_points}")
        return np.logspace(
            np.log10(self.sigma_min), np.log10(self.sigma_max), self.n_points
        )


@dataclass(frozen=True)
class ParameterAxis:
    name: str  # "alpha1".."alphaK" or "alpha_f"
    lo: float
    hi: float
    n: int

    def __post_init__(self):
        _require_finite(self, "lo", "hi")
        if self.n < 2:
            raise ValueError(f"axis resolution must be >= 2, got {self.n}")


@dataclass(frozen=True)
class StabilityMapPoint:
    x: float
    y: float
    max_radius: float
    stable: bool


@dataclass(frozen=True)
class StabilityMap:
    k: int
    x_axis: ParameterAxis
    y_axis: ParameterAxis
    fixed: dict
    points: tuple[StabilityMapPoint, ...]


# A conjugate pair this close to the real axis (relative to its
# magnitude) is flattened onto it with |z| kept exact.  In the stiff
# limit each block collapses onto double or triple real roots whose
# O(sigma^-1/2) complex splitting would otherwise surface as spurious
# imaginary parts; preserving the magnitude keeps spectral radii
# unaffected by the flattening.  Criterion 3 fails without it: at
# sigma = 1e10, max |Im| is 3.8e-5 against its bound of 1e-6.
FLATTEN_TOL = 1e-3

# Three roots within this relative separation of each other are a
# clustered triple and are collapsed (see the module docstring).
# Criterion 3 fails without the collapse: at sigma = 1e10 the magnitudes
# deviate from rho by 6.9e-4 against its bound of 1e-4.
CLUSTER_TOL = 1e-2


def _settle(r) -> np.ndarray:
    """Raw block eigenvalues (..., 3) with clustered triples collapsed
    and near-real pairs flattened (see the module docstring); unsorted."""
    r = r.astype(complex)
    mag = np.abs(r)
    spread = np.abs(r - np.roll(r, 1, axis=-1)).max(axis=-1)
    clustered = spread < CLUSTER_TOL * np.maximum(1.0, mag.max(axis=-1))
    # Pairs with |Im| <= FLATTEN_TOL * max(1, |z|) become two real values
    # of the same magnitude, signed by the real part.
    near_real = (r.imag != 0.0) & (np.abs(r.imag) <= FLATTEN_TOL * np.maximum(1.0, mag))
    z = np.where(near_real, np.where(r.real >= 0.0, mag, -mag), r)
    # A clustered triple becomes three real values of magnitude
    # |r1*r2*r3|^(1/3), signed by the real trace.  The product is formed
    # for clustered triples only: an unclustered one can overflow it.
    t = r[clustered]
    collapsed = np.abs(t[:, 0] * t[:, 1] * t[:, 2]) ** (1.0 / 3.0)
    z[clustered] = np.where(t.real.sum(axis=-1) >= 0.0, collapsed, -collapsed)[:, None]
    return z


def eigvals(p: SchemeParameters, sigma) -> np.ndarray:
    """Spectrum of G at every sigma as the union of the k block spectra,
    shape sigma.shape + (k, 3).  Each block's three values are sorted by
    descending magnitude, ties by descending real, then imaginary part."""
    z = _settle(np.linalg.eigvals(diagonal_blocks(p, sigma)))
    order = np.lexsort((-z.imag, -z.real, -np.abs(z)), axis=-1)
    return np.take_along_axis(z, order, axis=-1)


def limit_eigs_sigma_zero(p: SchemeParameters) -> list[float]:
    """Closed-form sigma -> 0 eigenvalues: each block contributes
    {1, 1, (alpha_j - 1)/alpha_j}."""
    out = []
    for j, aj in enumerate(p.alpha):
        if aj == 0.0:
            raise ValueError(f"alpha_{j + 1} = 0 has no sigma->0 limit")
        out.extend([1.0, 1.0, (aj - 1.0) / aj])
    return out


def limit_eigs_sigma_inf(p: SchemeParameters) -> list[float]:
    """Closed-form sigma -> infinity magnitudes for rho-derived schemes:
    leading blocks give {rho_j, rho_j, 0}, the last block {rho_k}^3."""
    if p.rho is None:
        raise ValueError("sigma->infinity limits require rho-derived parameters")
    rho = p.rho.rho
    out: list[float] = []
    for j in range(p.k - 1):
        out.extend([rho[j], rho[j], 0.0])
    out.extend([rho[-1]] * 3)
    return out


def spectral_radius(p: SchemeParameters, sigma):
    """Largest eigenvalue magnitude of G at every sigma (sigma's shape)."""
    return np.abs(eigvals(p, sigma)).max(axis=(-2, -1))


def sweep_spectrum(
    p: SchemeParameters, sigma_min: float, sigma_max: float, n_points: int
) -> Spectrum:
    sigma = SweepConfig(sigma_min, sigma_max, n_points).grid()
    eigs = eigvals(p, sigma)
    return Spectrum(sigma=sigma, eigs=eigs, radius=np.abs(eigs).max(axis=(-2, -1)))


# (block, sigma) pairs per slab of a batched stability map, one 3x3 block
# each.  A block peaks at ~420 B (its pair, LU, G and eigenvalues), so a
# slab stays near 28 MB however large the map or its sweep is.
MAP_SLAB_BLOCKS = 1 << 16


def _radii(rows, sigma) -> np.ndarray:
    """Spectral radius of G for each (scheme, sigma) pair, from one
    ``_block_solve`` -> eigvals pass over the pairs' diagonal blocks:
    each scheme's block rows (..., k, 4) as ``params.block_rows`` lays
    them out, broadcast against sigma (...).  A pair with a block that
    the solve masks (where ``diagonal_blocks`` raises) gets radius inf
    instead of failing the pass."""
    G, bad = _block_solve(rows, sigma)
    radius = np.abs(_settle(np.linalg.eigvals(G))).max(axis=(-2, -1))
    radius[bad.any(axis=-1)] = np.inf
    return radius


def classify_stability(
    p: SchemeParameters, sweep: SweepConfig = SweepConfig()
) -> tuple[bool, float, float]:
    """(stable, max radius, argmax sigma): ``check_stability_conditions``
    passes and the radius is finite; the radius is the sweep grid's
    maximum, inf at the first sigma where a block is singular by the
    stepper's divisor rule or not finite."""
    grid = sweep.grid()
    radius = _radii(np.column_stack((p.alpha, p.beta, p.gamma, p.c)), grid)
    i = int(radius.argmax())
    stable = check_stability_conditions(p).passed and bool(np.isfinite(radius[i]))
    return (stable, float(radius[i]), float(grid[i]))


def check_map_names(k: int, fixed: dict, x_axis: ParameterAxis, y_axis: ParameterAxis) -> None:
    """Reject a map of more than MAX_SWEEP_POINTS points, whose axes
    coincide, whose axis or fixed names are not among "alpha1".."alpha{k}"
    and "alpha_f", that leaves one of them neither fixed nor varied, or
    whose fixed values are not finite."""
    if x_axis.n * y_axis.n > MAX_SWEEP_POINTS:
        raise ValueError(f"need at most {MAX_SWEEP_POINTS} map points, got {x_axis.n * y_axis.n}")
    if x_axis.name == y_axis.name:
        raise ValueError("axes must vary distinct parameters")
    names = [f"alpha{i + 1}" for i in range(k)] + ["alpha_f"]
    for ax in (x_axis, y_axis):
        if ax.name not in names:
            raise ValueError(f"unknown parameter axis {ax.name!r}")
    for name, value in fixed.items():
        if name not in names:
            raise ValueError(f"unknown fixed parameter {name!r}")
        if not math.isfinite(value):
            raise ValueError(f"fixed {name} must be finite, got {value}")
    for name in names:
        if name not in fixed and name not in (x_axis.name, y_axis.name):
            raise ValueError(f"parameter {name} is neither fixed nor varied")


def stability_map(
    k: int,
    fixed: dict,
    x_axis: ParameterAxis,
    y_axis: ParameterAxis,
    sweep: SweepConfig = SweepConfig(),
) -> StabilityMap:
    """Classify a 2-D grid of raw alpha parameters in one array pass, as
    the module docstring lays out.  Parameter names are "alpha1"..
    "alpha{k}" and "alpha_f"; points run row-major from y.  Distinct
    block rows are told apart by bit pattern, so each block's arithmetic
    is the same as inside its point, and the radii are those of solving
    every (point, sigma) pair whole."""
    check_map_names(k, fixed, x_axis, y_axis)
    grid = sweep.grid()
    n = x_axis.n * y_axis.n
    vals = {name: float(v) for name, v in fixed.items()}
    vals[x_axis.name] = np.tile(np.linspace(x_axis.lo, x_axis.hi, x_axis.n), y_axis.n)
    vals[y_axis.name] = np.repeat(np.linspace(y_axis.lo, y_axis.hi, y_axis.n), x_axis.n)
    alpha = np.stack([np.broadcast_to(vals[f"alpha{i + 1}"], n) for i in range(k)], axis=-1)
    alpha_f = np.broadcast_to(vals["alpha_f"], n)
    rows = block_rows(alpha, alpha_f)
    # each bit pattern of the points' block rows kept once
    distinct, which = np.unique(rows.reshape(-1, 4).view(np.int64), axis=0, return_inverse=True)
    distinct = distinct.view(float)[:, None]  # (blocks, 1, 4): one block per scheme
    # one radius per (block, sigma) pair, MAP_SLAB_BLOCKS pairs at a time
    pair_radius = np.empty(len(distinct) * grid.size)
    for lo in range(0, pair_radius.size, MAP_SLAB_BLOCKS):
        i = np.arange(lo, min(lo + MAP_SLAB_BLOCKS, pair_radius.size))
        pair_radius[i] = _radii(distinct[i // grid.size], grid[i % grid.size])
    block_radius = pair_radius.reshape(len(distinct), grid.size).max(axis=1)
    radius = block_radius[which].reshape(n, k).max(axis=1)
    damped, bounded = block_conditions(rows[..., 0], rows[..., 3])
    stable = ((damped & bounded).all(axis=1) & np.isfinite(radius)).tolist()
    points = tuple(map(
        StabilityMapPoint,
        vals[x_axis.name].tolist(), vals[y_axis.name].tolist(), radius.tolist(), stable,
    ))
    return StabilityMap(k=k, x_axis=x_axis, y_axis=y_axis, fixed=dict(fixed), points=points)
