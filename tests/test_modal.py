import csv
import io
import json
import math
import warnings

import numpy as np
import pytest

import galpha.modal
from galpha import (
    DissipationSpec,
    StepConfig,
    SymmetricSystem,
    SystemTrajectory,
    Variant,
    derive,
    from_alphas,
    integrate,
    integrate_system,
    jacobi_eig,
    load_system,
)

K_2DOF = np.array([[2.0, -1.0], [-1.0, 2.0]])  # modes lambda = 1, 3


def random_spd(rng, n: int) -> np.ndarray:
    M = rng.normal(size=(n, n))
    return M @ M.T / n + 0.5 * np.eye(n)


def spring_chain(n: int) -> np.ndarray:
    """Fixed-fixed chain: tridiagonal, so most entries start exactly 0."""
    c = np.linspace(0.5, 2.0, n + 1)
    return np.diag(c[:-1] + c[1:]) - np.diag(c[1:-1], 1) - np.diag(c[1:-1], -1)


def assert_eigendecomposition(K, dec) -> None:
    n = K.shape[0]
    ref = np.linalg.eigvalsh(K)
    assert np.max(np.abs(dec.lambdas - ref)) <= 1e-12 * max(np.max(np.abs(ref)), 1.0)
    assert np.max(np.abs(K @ dec.Q - dec.Q * dec.lambdas)) <= 1e-10 * np.linalg.norm(K)
    assert np.max(np.abs(dec.Q.T @ dec.Q - np.eye(n))) <= 1e-12


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

    @pytest.mark.parametrize("K, u0, v0", [
        ([[2.0, math.nan], [math.nan, 2.0]], [1.0, 0.0], [0.0, 0.0]),
        ([[math.inf, -1.0], [-1.0, 2.0]], [1.0, 0.0], [0.0, 0.0]),
        (K_2DOF, [math.inf, 0.0], [0.0, 0.0]),
        (K_2DOF, [1.0, 0.0], [0.0, math.nan]),
    ])
    def test_rejects_nonfinite_input(self, K, u0, v0):
        # a NaN K once decomposed to Q = I and integrated the wrong system
        with pytest.raises(ValueError, match="finite"):
            SymmetricSystem(K=K, u0=u0, v0=v0)

    def test_load_system_rejects_nan_stiffness(self, tmp_path):
        path = tmp_path / "system.json"
        path.write_text('{"K": [[2.0, NaN], [NaN, 2.0]], "u0": [1.0, 0.0], "v0": [0.0, 0.0]}')
        with pytest.raises(ValueError, match="finite"):
            load_system(path)

    def test_rejects_empty_stiffness(self):
        with pytest.raises(ValueError, match="K must be non-empty"):
            SymmetricSystem(K=np.zeros((0, 0)), u0=[], v0=[])

    def test_load_system_rejects_empty_stiffness(self, tmp_path):
        path = tmp_path / "system.json"
        path.write_text('{"K": [], "u0": [], "v0": []}')
        with pytest.raises(ValueError, match="K must be non-empty"):
            load_system(path)


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

    def test_n80_matches_eigvalsh(self):
        rng = np.random.default_rng(80)
        M = rng.normal(size=(80, 80))
        assert_eigendecomposition(M + M.T, jacobi_eig(M + M.T))

    @pytest.mark.parametrize("n", [1, 3, 7])
    def test_odd_and_single_dof(self, n):
        K = random_spd(np.random.default_rng(n), n)
        assert_eigendecomposition(K, jacobi_eig(K))

    def test_spring_chain_zero_entries(self):
        K = spring_chain(12)
        assert_eigendecomposition(K, jacobi_eig(K))

    def test_repeated_eigenvalues_orthonormal_q(self):
        # lambda = 2 four times and 3 once
        v = np.arange(1.0, 6.0) / np.linalg.norm(np.arange(1.0, 6.0))
        K = 2.0 * np.eye(5) + np.outer(v, v)
        assert_eigendecomposition(K, jacobi_eig(K))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            jacobi_eig([[1.0, 2.0], [0.0, 1.0]])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            jacobi_eig([[2.0, math.nan], [math.nan, 2.0]])

    @pytest.mark.parametrize("scale", [1e300, 1e160])
    def test_overflowing_norm_matches_eigvalsh(self, scale):
        # once K's diagonal after 0 sweeps, with numpy overflow warnings
        K = np.array([[1.0, 0.5], [0.5, 1.0]]) * scale
        np.testing.assert_allclose(jacobi_eig(K).lambdas, np.linalg.eigvalsh(K), rtol=1e-14)


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

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("variant", [Variant.FULL_TAYLOR, Variant.AS_PRINTED])
    @pytest.mark.parametrize("pattern", ["dense", "chain"])
    def test_modes_bit_identical_to_scalar_integrate(self, monkeypatch, k, variant, pattern):
        rng = np.random.default_rng(k)
        n, n_steps = 7, 40
        K = random_spd(rng, n) if pattern == "dense" else spring_chain(n)
        sys_ = SymmetricSystem(K=K, u0=rng.normal(size=n), v0=rng.normal(size=n))
        p = derive(DissipationSpec(k, tuple(rng.uniform(0.0, 1.0, k))))
        cfg = StepConfig(tau=0.7 / math.sqrt(np.linalg.eigvalsh(K)[-1]), variant=variant)
        decs = []

        def capture(K):
            decs.append(jacobi_eig(K))
            return decs[-1]

        monkeypatch.setattr(galpha.modal, "jacobi_eig", capture)
        traj = integrate_system(sys_, p, cfg, n_steps)
        (dec,) = decs
        y0, w0 = dec.Q.T @ sys_.u0, dec.Q.T @ sys_.v0
        U = np.empty((n_steps + 1, n))
        V = np.empty((n_steps + 1, n))
        for m in range(n):
            ref = integrate(p, float(dec.lambdas[m]), cfg,
                            float(y0[m]), float(w0[m]), n_steps)
            U[:, m] = [s.d[0] for s in ref.states]
            V[:, m] = [s.d[1] for s in ref.states]
        assert np.array_equal(traj.times, np.array(ref.times))
        assert np.array_equal(traj.displacements, U @ dec.Q.T)
        assert np.array_equal(traj.velocities, V @ dec.Q.T)

    @pytest.mark.parametrize("u0, v0, modes", [
        # the second modal coordinate overflows (once NaN rows, or a RuntimeWarning)
        ((1.7e308, -1.7e308), (0.0, 0.0), [1]),
        # finite modal coordinates whose steps overflow
        ((1.2e308, 1.2e308), (1.2e308, 1.2e308), [0, 1]),
    ])
    def test_overflowing_state_names_lambda(self, u0, v0, modes):
        p = derive(DissipationSpec(1, (0.5,)))
        lambdas = jacobi_eig(K_2DOF).lambdas[modes].tolist()
        lam = lambdas[0] if len(modes) == 1 else lambdas
        sys_ = SymmetricSystem(K=K_2DOF, u0=u0, v0=v0)
        with pytest.raises(OverflowError) as exc:
            integrate_system(sys_, p, StepConfig(tau=0.5), 3)
        assert f"at lambda = {lam!r}, tau = 0.5" in str(exc.value)

    def test_unstable_parameters_warn_once(self):
        p = from_alphas(2, (0.9, 1.0), 0.6)
        sys_ = SymmetricSystem(K=spring_chain(5), u0=np.ones(5), v0=np.zeros(5))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            integrate_system(sys_, p, StepConfig(tau=0.1), 20)
        assert len(caught) == 1
        assert "alpha_1" in str(caught[0].message)

    @pytest.mark.parametrize("K", [
        # the zero mode once came out at -2.0e-17 (Jacobi) and at -9.7e-17 (eigh)
        [[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]],
        [[1.0, -1.0, 0.0, 0.0], [-1.0, 2.0, -1.0, 0.0], [0.0, -1.0, 2.0, -1.0], [0.0, 0.0, -1.0, 1.0]],
    ])
    def test_free_free_chain_moves_rigidly(self, K):
        n = len(K)
        sys_ = SymmetricSystem(K=K, u0=np.ones(n), v0=np.full(n, 0.5))
        p = derive(DissipationSpec(2, (0.5, 0.5)))
        traj = integrate_system(sys_, p, StepConfig(tau=0.1), 20)
        exact = 1.0 + 0.5 * traj.times[:, None]
        assert np.max(np.abs(traj.displacements - exact)) <= 1e-12
        assert np.max(np.abs(traj.velocities - 0.5)) <= 1e-12

    @pytest.mark.parametrize("K", [
        np.diag([-1e-10, 1.0]),
        # the free-free chain shifted down: its zero mode at -1e-12
        np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]]) - 1e-12 * np.eye(3),
    ])
    def test_negative_mode_past_round_off_rejected(self, K):
        n = len(K)
        sys_ = SymmetricSystem(K=K, u0=np.ones(n), v0=np.zeros(n))
        p = derive(DissipationSpec(2, (0.5, 0.5)))
        with pytest.raises(ValueError, match="< 0 rejected"):
            integrate_system(sys_, p, StepConfig(tau=0.1), 20)

    def test_small_mode_past_round_off_kept(self):
        # lambda = 1e-10 moves u by about 2e-10 from u0 + v0*t by t = 2
        sys_ = SymmetricSystem(K=np.diag([1e-10, 1.0]), u0=[1.0, 0.0], v0=[0.5, 0.0])
        p = derive(DissipationSpec(2, (0.5, 0.5)))
        cfg = StepConfig(tau=0.1)
        traj = integrate_system(sys_, p, cfg, 20)
        ref = integrate(p, 1e-10, cfg, 1.0, 0.5, 20)
        expected = [s.d[0] for s in ref.states]
        assert np.max(np.abs(traj.displacements[:, 0] - expected)) <= 1e-15
        assert np.max(np.abs(traj.displacements[:, 0] - (1.0 + 0.5 * traj.times))) > 1e-11


def test_csv_matches_csv_writer():
    rng = np.random.default_rng(3)
    special = [-0.0, 5e-324, -5e-324, 1e300, -1e-300, 1.7976931348623157e308]
    size = 101 * 8 - len(special)
    scale = 10.0 ** rng.integers(-300, 300, size)
    values = np.concatenate([special, rng.normal(size=size) * scale])
    rng.shuffle(values)
    values = values.reshape(101, 8)
    traj = SystemTrajectory(times=values[:, 0], displacements=values[:, 1:5], velocities=values[:, 5:])
    want = io.StringIO()
    w = csv.writer(want)
    w.writerow(["t", "u0", "u1", "u2", "u3", "v0", "v1", "v2", "v3"])
    for row in values:
        w.writerow([repr(float(x)) for x in row])
    got = io.StringIO()
    traj.write_csv(got)
    assert got.getvalue() == want.getvalue()
