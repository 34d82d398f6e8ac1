import io
import json
import math

import numpy as np
import pytest

from galpha import (
    DissipationSpec,
    JacobiConvergenceError,
    StepConfig,
    SymmetricSystem,
    derive,
    integrate_system,
    jacobi_eig,
    load_system,
)

K_2DOF = np.array([[2.0, -1.0], [-1.0, 2.0]])  # modes lambda = 1, 3


class TestSymmetricSystem:
    def test_accepts_valid_input(self):
        sys_ = SymmetricSystem(K=K_2DOF, u0=[1.0, 0.0], v0=[0.0, 0.0])
        assert sys_.n == 2

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            SymmetricSystem(K=np.ones((2, 3)), u0=[0, 0], v0=[0, 0])

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            SymmetricSystem(K=[[1.0, 2.0], [0.0, 1.0]], u0=[0, 0], v0=[0, 0])

    def test_rejects_wrong_vector_length(self):
        with pytest.raises(ValueError):
            SymmetricSystem(K=K_2DOF, u0=[1.0], v0=[0.0, 0.0])


class TestJacobiEig:
    def test_known_2x2(self):
        dec = jacobi_eig(K_2DOF)
        assert dec.lambdas == pytest.approx([1.0, 3.0], abs=1e-12)

    def test_eigenvalues_ascending(self):
        rng = np.random.default_rng(31)
        M = rng.normal(size=(5, 5))
        K = M + M.T
        dec = jacobi_eig(K)
        assert np.all(np.diff(dec.lambdas) >= 0.0)

    def test_residual_and_orthogonality_random_6x6(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            M = rng.normal(size=(6, 6))
            K = M + M.T
            dec = jacobi_eig(K)
            scale = np.linalg.norm(K)
            assert np.max(np.abs(K @ dec.Q - dec.Q * dec.lambdas)) <= 1e-10 * scale
            assert np.max(np.abs(dec.Q.T @ dec.Q - np.eye(6))) <= 1e-12

    def test_diagonal_input_is_trivial(self):
        dec = jacobi_eig(np.diag([3.0, 1.0, 2.0]))
        assert dec.lambdas == pytest.approx([1.0, 2.0, 3.0])

    def test_convergence_failure_raises(self):
        with pytest.raises(JacobiConvergenceError):
            jacobi_eig(K_2DOF, max_sweeps=0)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            jacobi_eig([[1.0, 2.0], [0.0, 1.0]])


class TestLoadSystem:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "system.json"
        path.write_text(
            json.dumps(
                {"K": [[2.0, -1.0], [-1.0, 2.0]], "u0": [1.0, 0.0], "v0": [0.0, 0.5]}
            )
        )
        sys_ = load_system(path)
        assert sys_.K.tolist() == K_2DOF.tolist()
        assert sys_.u0.tolist() == [1.0, 0.0]
        assert sys_.v0.tolist() == [0.0, 0.5]


def exact_2dof(t: float, u0) -> np.ndarray:
    """Analytic two-mode solution of u'' + K u = 0 for K_2DOF, v0 = 0."""
    lam, Q = np.linalg.eigh(K_2DOF)
    return Q @ (np.cos(np.sqrt(lam) * t) * (Q.T @ np.asarray(u0)))


class TestIntegrateSystem:
    def test_matches_analytic_two_mode_solution(self):
        p = derive(DissipationSpec(2, (0.5, 0.5)))
        sys_ = SymmetricSystem(K=K_2DOF, u0=[1.0, 0.0], v0=[0.0, 0.0])
        T, n = 2.0, 64
        traj = integrate_system(sys_, p, StepConfig(tau=T / n), n)
        assert traj.displacements[-1] == pytest.approx(
            exact_2dof(T, [1.0, 0.0]), abs=1e-5
        )

    def test_fourth_order_tau_halving(self):
        p = derive(DissipationSpec(2, (0.5, 0.5)))
        sys_ = SymmetricSystem(K=K_2DOF, u0=[1.0, 0.0], v0=[0.0, 0.0])
        T = 2.0
        errs = []
        for n in (16, 32, 64):
            traj = integrate_system(sys_, p, StepConfig(tau=T / n), n)
            errs.append(np.max(np.abs(traj.displacements[-1] - exact_2dof(T, [1.0, 0.0]))))
        for coarse, fine in zip(errs, errs[1:]):
            assert 12.0 <= coarse / fine <= 20.0

    def test_energy_bounded_without_dissipation(self):
        p = derive(DissipationSpec(2, (1.0, 1.0)))
        sys_ = SymmetricSystem(K=K_2DOF, u0=[1.0, 0.0], v0=[0.0, 0.0])
        traj = integrate_system(sys_, p, StepConfig(tau=0.02), 500)
        assert np.max(np.abs(traj.displacements)) <= 1.0 + 1e-6

    def test_csv_export(self):
        p = derive(DissipationSpec(2, (0.5, 0.5)))
        sys_ = SymmetricSystem(K=K_2DOF, u0=[1.0, 0.0], v0=[0.0, 0.0])
        traj = integrate_system(sys_, p, StepConfig(tau=0.5), 2)
        buf = io.StringIO()
        traj.write_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "t,u0,u1,v0,v1"
        assert len(lines) == 4
        first = [float(x) for x in lines[1].split(",")]
        assert first == pytest.approx([0.0, 1.0, 0.0, 0.0, 0.0], abs=1e-12)
