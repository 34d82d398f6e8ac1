"""Eigenvalue analysis of the amplification matrix, batched over sigma.

Because G is block upper triangular with 3x3 diagonal blocks, its
spectrum is the union of the k block spectra.  ``eigvals`` takes the
diagonal blocks at every sigma from ``amplification.diagonal_blocks``
in one (..., k, 3, 3) stack and all their eigenvalues in a single
``np.linalg.eigvals`` call, then post-processes each block's three
roots as array operations:

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

Sigma convention: sigma = lambda*tau^2 >= 0 everywhere; sweeps use a
positive log axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import SchemeParameters, from_alphas
from .errors import SingularStepError, UnsupportedParametersError
from .amplification import diagonal_blocks
from .stepper import Variant


@dataclass(frozen=True)
class CubicCoefficients:
    """Invariants (trace, minor sum, determinant) of a 3x3 matrix."""

    G1: float
    G2: float
    G3: float


@dataclass(frozen=True)
class Spectrum:
    """A sweep: sigma (N,), eigs (N, k, 3) as ``eigvals`` gives them, and
    the spectral radius (N,) at each sigma."""

    sigma: np.ndarray
    eigs: np.ndarray
    radius: np.ndarray


@dataclass(frozen=True)
class SweepConfig:
    sigma_min: float = 1e-6
    sigma_max: float = 1e8
    n_points: int = 60

    def grid(self) -> np.ndarray:
        if not (0.0 < self.sigma_min < self.sigma_max):
            raise ValueError("need 0 < sigma_min < sigma_max")
        if self.n_points < 2:
            raise ValueError("need at least 2 sweep points")
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


# Grid-based stability proxy: radii up to 1 + this slack count as stable,
# absorbing round-off for spectra sitting exactly on the unit circle.
STABILITY_TOL = 1e-9


def char_coeffs_3x3(M) -> CubicCoefficients:
    """Exact trace / principal-minor sum / determinant of a 3x3 matrix."""
    M = np.asarray(M, dtype=float)
    g1 = M[0, 0] + M[1, 1] + M[2, 2]
    g2 = (
        M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
        + M[0, 0] * M[2, 2] - M[0, 2] * M[2, 0]
        + M[1, 1] * M[2, 2] - M[1, 2] * M[2, 1]
    )
    g3 = (
        M[0, 0] * (M[1, 1] * M[2, 2] - M[1, 2] * M[2, 1])
        - M[0, 1] * (M[1, 0] * M[2, 2] - M[1, 2] * M[2, 0])
        + M[0, 2] * (M[1, 0] * M[2, 1] - M[1, 1] * M[2, 0])
    )
    return CubicCoefficients(G1=g1, G2=g2, G3=g3)


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


def eigvals(
    p: SchemeParameters, sigma, variant: Variant = Variant.FULL_TAYLOR
) -> np.ndarray:
    """Spectrum of G at every sigma as the union of the k block spectra,
    shape sigma.shape + (k, 3).  Each block's three values are sorted by
    descending magnitude, ties by descending real, then imaginary part."""
    r = np.linalg.eigvals(diagonal_blocks(p, sigma, variant)).astype(complex)
    mag = np.abs(r)
    # A clustered triple becomes three real values of magnitude
    # |r1*r2*r3|^(1/3), signed by the real trace.
    spread = np.abs(r - np.roll(r, 1, axis=-1)).max(axis=-1)
    clustered = spread < CLUSTER_TOL * np.maximum(1.0, mag.max(axis=-1))
    collapsed = np.abs(r[..., 0] * r[..., 1] * r[..., 2]) ** (1.0 / 3.0)
    collapsed = np.where(r.real.sum(axis=-1) >= 0.0, collapsed, -collapsed)
    # Otherwise pairs with |Im| <= FLATTEN_TOL * max(1, |z|) become two
    # real values of the same magnitude, signed by the real part.
    near_real = (r.imag != 0.0) & (np.abs(r.imag) <= FLATTEN_TOL * np.maximum(1.0, mag))
    flat = np.where(near_real, np.where(r.real >= 0.0, mag, -mag), r)
    z = np.where(clustered[..., None], collapsed[..., None], flat)
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
        raise UnsupportedParametersError(
            "sigma->infinity limits require rho-derived parameters"
        )
    rho = p.rho.rho
    out: list[float] = []
    for j in range(p.k - 1):
        out.extend([rho[j], rho[j], 0.0])
    out.extend([rho[-1]] * 3)
    return out


def spectral_radius(
    p: SchemeParameters, sigma, variant: Variant = Variant.FULL_TAYLOR
):
    """Largest eigenvalue magnitude of G at every sigma (sigma's shape)."""
    return np.abs(eigvals(p, sigma, variant)).max(axis=(-2, -1))


def sweep_spectrum(
    p: SchemeParameters,
    sigma_min: float,
    sigma_max: float,
    n_points: int,
    variant: Variant = Variant.FULL_TAYLOR,
) -> Spectrum:
    sigma = SweepConfig(sigma_min, sigma_max, n_points).grid()
    eigs = eigvals(p, sigma, variant)
    return Spectrum(sigma=sigma, eigs=eigs, radius=np.abs(eigs).max(axis=(-2, -1)))


def classify_stability(
    p: SchemeParameters,
    sweep: SweepConfig = SweepConfig(),
    variant: Variant = Variant.FULL_TAYLOR,
) -> tuple[bool, float, float]:
    """(stable, max radius, argmax sigma) over the sweep grid.

    Grid-based proxy for unconditional stability; a singular assembly at
    any grid point counts as unstable, reported at the first such sigma.
    """
    grid = sweep.grid()
    try:
        radius = spectral_radius(p, grid, variant)
    except SingularStepError as exc:
        return (False, float("inf"), exc.sigma)
    i = int(radius.argmax())
    return (bool(radius[i] <= 1.0 + STABILITY_TOL), float(radius[i]), float(grid[i]))


def _axis_value(name: str, fixed: dict, ax_vals: dict) -> float:
    if name in ax_vals:
        return ax_vals[name]
    if name in fixed:
        return float(fixed[name])
    raise ValueError(f"parameter {name} is neither fixed nor varied")


def check_map_names(k: int, fixed: dict, x_axis: ParameterAxis, y_axis: ParameterAxis) -> None:
    """Reject a map whose axes coincide, or whose axis or fixed names are
    not among "alpha1".."alpha{k}" and "alpha_f"."""
    if x_axis.name == y_axis.name:
        raise ValueError("axes must vary distinct parameters")
    names = [f"alpha{i + 1}" for i in range(k)] + ["alpha_f"]
    for ax in (x_axis, y_axis):
        if ax.name not in names:
            raise ValueError(f"unknown parameter axis {ax.name!r}")
    for name in fixed:
        if name not in names:
            raise ValueError(f"unknown fixed parameter {name!r}")


def stability_map(
    k: int,
    fixed: dict,
    x_axis: ParameterAxis,
    y_axis: ParameterAxis,
    sweep: SweepConfig = SweepConfig(),
) -> StabilityMap:
    """Classify a 2-D grid of raw alpha parameters.

    Parameter names are "alpha1".."alpha{k}" and "alpha_f"; gamma and
    beta are recomputed from the order-condition laws at every point.
    """
    check_map_names(k, fixed, x_axis, y_axis)
    points = []
    for y in np.linspace(y_axis.lo, y_axis.hi, y_axis.n):
        for x in np.linspace(x_axis.lo, x_axis.hi, x_axis.n):
            ax_vals = {x_axis.name: float(x), y_axis.name: float(y)}
            alpha = [_axis_value(f"alpha{i + 1}", fixed, ax_vals) for i in range(k)]
            alpha_f = _axis_value("alpha_f", fixed, ax_vals)
            try:
                p = from_alphas(k, alpha, alpha_f)
                stable, max_r, _ = classify_stability(p, sweep)
            except (ArithmeticError, np.linalg.LinAlgError):
                stable, max_r = False, float("inf")
            points.append(StabilityMapPoint(float(x), float(y), max_r, stable))
    return StabilityMap(
        k=k, x_axis=x_axis, y_axis=y_axis, fixed=dict(fixed), points=tuple(points)
    )
