"""Modal front-end for symmetric systems u'' + K u = 0 (unit mass).

numpy's ``eigh`` (LAPACK) diagonalizes K.  Each mode is then an
independent scalar oscillator; one step plan, built for the array of
modal lambdas, advances every mode together, with each mode's numbers
bit-identical to a scalar ``integrate`` of that mode.  A modal lambda
within the decomposition's backward error of zero, |lambda| <=
n * eps * max|lambda|, is integrated as a rigid-body mode (lambda = 0),
so a semi-definite K does not fail on a round-off negative lambda.  The
results are rotated back to physical coordinates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .params import SchemeParameters
from .stepper import StepConfig, _csv_rows, _plan, init_state

# Not used here; bench/test_bench.py::test_tracer_restores_every_patched_function
# reads galpha.modal.integrate.
from .stepper import integrate  # noqa: F401


def _symmetric(K) -> np.ndarray:
    """K as a new float array, checked to be non-empty, square, finite
    and symmetric to 1e-12 of its largest entry."""
    K = np.array(K, dtype=float)
    if K.size == 0:
        raise ValueError("K must be non-empty")
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ValueError("K must be a square matrix")
    if not np.isfinite(K).all():
        raise ValueError("K must be finite")
    scale = np.max(np.abs(K)) or 1.0
    if np.max(np.abs(K - K.T)) > 1e-12 * scale:
        raise ValueError("K is not symmetric")
    return K


@dataclass(frozen=True)
class SymmetricSystem:
    K: np.ndarray
    u0: np.ndarray
    v0: np.ndarray

    def __post_init__(self):
        K = _symmetric(self.K)
        u0 = np.asarray(self.u0, dtype=float)
        v0 = np.asarray(self.v0, dtype=float)
        n = K.shape[0]
        if u0.shape != (n,) or v0.shape != (n,):
            raise ValueError("u0 and v0 must be length-n vectors")
        if not (np.isfinite(u0).all() and np.isfinite(v0).all()):
            raise ValueError("u0 and v0 must be finite")
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "u0", u0)
        object.__setattr__(self, "v0", v0)

    @property
    def n(self) -> int:
        return self.K.shape[0]


@dataclass(frozen=True)
class ModalDecomposition:
    lambdas: np.ndarray  # ascending
    Q: np.ndarray  # orthogonal, columns are eigenvectors


@dataclass(frozen=True)
class SystemTrajectory:
    times: np.ndarray
    displacements: np.ndarray  # shape (n_steps+1, n_dof)
    velocities: np.ndarray

    def write_csv(self, fh) -> None:
        n = self.displacements.shape[1]
        header = ",".join(["t"] + [f"u{i}" for i in range(n)] + [f"v{i}" for i in range(n)])
        rows = np.column_stack((self.times, self.displacements, self.velocities)).tolist()
        fh.write(header + "\r\n" + _csv_rows(rows))


def load_system(path) -> SymmetricSystem:
    """Read the JSON schema {"K": [[...]], "u0": [...], "v0": [...]}."""
    with open(path) as fh:
        data = json.load(fh)
    return SymmetricSystem(K=data["K"], u0=data["u0"], v0=data["v0"])


def jacobi_eig(K) -> ModalDecomposition:
    """Symmetric eigendecomposition of K by LAPACK (``np.linalg.eigh``):
    ascending lambdas and orthonormal Q, backward stable.

    Not a Jacobi iteration; the name is kept because
    bench/ops.py::capture_decompositions and bench/test_bench.py wrap
    galpha.modal.jacobi_eig by it."""
    return ModalDecomposition(*np.linalg.eigh(_symmetric(K)))


def integrate_system(
    sys: SymmetricSystem,
    p: SchemeParameters,
    cfg: StepConfig,
    n_steps: int,
) -> SystemTrajectory:
    """Transform to modal coordinates, advance every mode with one step
    plan over the array of modal lambdas (rigid-body modes at 0),
    transform back.  Raises OverflowError naming lambda and tau if a
    modal coordinate or the result is not finite."""
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    dec = jacobi_eig(sys.K)
    bound = sys.n * np.finfo(float).eps * np.max(np.abs(dec.lambdas))
    lambdas = np.where(np.abs(dec.lambdas) <= bound, 0.0, dec.lambdas)

    def overflow(lam):
        return OverflowError(f"the state is not finite at lambda = {lam!r}, tau = {cfg.tau!r}")

    with np.errstate(over="ignore", invalid="ignore"):
        y0 = dec.Q.T @ sys.u0
        w0 = dec.Q.T @ sys.v0
        bad = ~(np.isfinite(y0) & np.isfinite(w0))
        if bad.any():
            raise overflow(float(lambdas[bad.argmax()]))
        advance = _plan(p, lambdas, cfg)
        # the exact initial derivatives of each mode, as 3k arrays over modes
        d = list(np.array([
            init_state(lam, y, w, p.k).d
            for lam, y, w in zip(lambdas.tolist(), y0.tolist(), w0.tolist())
        ]).T)
        U = np.empty((n_steps + 1, sys.n))
        V = np.empty((n_steps + 1, sys.n))
        U[0], V[0] = d[0], d[1]
        for i in range(1, n_steps + 1):
            d = advance(d)
            U[i], V[i] = d[0], d[1]
        U, V = U @ dec.Q.T, V @ dec.Q.T
    if not (np.isfinite(U).all() and np.isfinite(V).all()):
        raise overflow(lambdas.tolist())
    return SystemTrajectory(times=np.arange(n_steps + 1) * cfg.tau, displacements=U, velocities=V)
