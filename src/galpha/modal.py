"""Modal front-end for symmetric systems u'' + K u = 0 (unit mass).

A Jacobi eigensolver diagonalizes K.  Each sweep runs the round-robin
(Brent-Luk) ordering: rounds of disjoint index pairs that together
cover every pair once, with one rotation matrix per round that applies
all of that round's rotations at once.  Each mode is then an
independent scalar oscillator; one step plan, built for the array of
modal lambdas, advances every mode together, with each mode's numbers
bit-identical to a scalar ``integrate`` of that mode.  The results are
rotated back to physical coordinates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import JacobiConvergenceError
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
    sweeps: int = 0  # Jacobi sweeps run; the default lets callers build one from (lambdas, Q)


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
    return SymmetricSystem(
        K=np.array(data["K"], dtype=float),
        u0=np.array(data["u0"], dtype=float),
        v0=np.array(data["v0"], dtype=float),
    )


def _round_robin(n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Circle-method schedule of one Jacobi sweep over an n x n matrix:
    index pairs (i, j), i < j, split into rounds of disjoint pairs that
    together cover every pair exactly once.  An odd n is padded with a
    dummy index whose pairs are dropped, so a sweep has n - 1 rounds for
    even n and n for odd n."""
    m = n + n % 2
    players = list(range(m))
    rounds = []
    for _ in range(m - 1):
        pairs = [
            (min(a, b), max(a, b))
            for a, b in zip(players[: m // 2], players[::-1])
            if max(a, b) < n
        ]
        if pairs:
            i, j = np.array(pairs).T
            rounds.append((i, j))
        players = [players[0], players[-1], *players[1:-1]]
    return rounds


def jacobi_eig(K, tol: float = 1e-12, max_sweeps: int = 100) -> ModalDecomposition:
    """Round-robin cyclic Jacobi sweeps until the off-diagonal Frobenius
    norm drops below tol * ||K||_F.  Adequate and robust at desk scale."""
    A = _symmetric(K)
    n = A.shape[0]
    Q = np.eye(n)
    norm = np.linalg.norm(A, "fro") or 1.0
    schedule = _round_robin(n)

    def off(M):
        # norm of the strictly off-diagonal part, computed directly
        # (subtracting diagonal sums of squares cancels catastrophically)
        return np.linalg.norm(M - np.diag(np.diag(M)))

    sweeps = 0
    while off(A) > tol * norm:
        if sweeps >= max_sweeps:
            raise JacobiConvergenceError(
                f"Jacobi did not converge in {max_sweeps} sweeps "
                f"(off-diagonal {off(A):.3e}, target {tol * norm:.3e})"
            )
        for i, j in schedule:
            aij = A[i, j]
            skip = aij == 0.0
            theta = 0.5 * (A[j, j] - A[i, i]) / np.where(skip, 1.0, aij)
            # theta^2 would overflow past 1e150; use the asymptotic root there
            big = np.abs(theta) > 1e150
            th = np.where(big, 1.0, theta)
            t = np.sign(th) / (np.abs(th) + np.sqrt(th * th + 1.0))
            t[big] = 0.5 / theta[big]
            t[theta == 0.0] = 1.0
            t[skip] = 0.0  # a zero entry gets the identity rotation
            c = 1.0 / np.sqrt(t * t + 1.0)
            s = t * c
            R = np.eye(n)
            R[i, i] = R[j, j] = c
            R[i, j] = s
            R[j, i] = -s
            A = R.T @ A @ R
            Q = Q @ R
        sweeps += 1
    lam = np.diag(A).copy()
    order = np.argsort(lam)
    return ModalDecomposition(lambdas=lam[order], Q=Q[:, order], sweeps=sweeps)


def integrate_system(
    sys: SymmetricSystem,
    p: SchemeParameters,
    cfg: StepConfig,
    n_steps: int,
) -> SystemTrajectory:
    """Transform to modal coordinates, advance every mode with one step
    plan over the array of modal lambdas, transform back."""
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    dec = jacobi_eig(sys.K)
    y0 = dec.Q.T @ sys.u0
    w0 = dec.Q.T @ sys.v0
    advance = _plan(p, dec.lambdas, cfg)
    # the exact initial derivatives of each mode, as 3k arrays over modes
    d = list(np.array([
        init_state(lam, y, w, p.k).d
        for lam, y, w in zip(dec.lambdas.tolist(), y0.tolist(), w0.tolist())
    ]).T)
    U = np.empty((n_steps + 1, sys.n))
    V = np.empty((n_steps + 1, sys.n))
    U[0], V[0] = d[0], d[1]
    for i in range(1, n_steps + 1):
        d = advance(d)
        U[i], V[i] = d[0], d[1]
    return SystemTrajectory(
        times=np.arange(n_steps + 1) * cfg.tau,
        displacements=U @ dec.Q.T,
        velocities=V @ dec.Q.T,
    )
