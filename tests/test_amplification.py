import math
from dataclasses import replace

import numpy as np
import pytest

from galpha import (
    DissipationSpec,
    SingularStepError,
    StepConfig,
    SweepConfig,
    Variant,
    amplification_matrix,
    assemble_step_matrices,
    derive,
    diagonal_blocks,
    from_alphas,
    init_state,
    integrate,
    oracle_step,
    scale_state,
    spectral_radius,
    unscale_state,
)
from galpha.amplification import _block_pair
from galpha.spectral import eigvals
from galpha.stepper import _plan


K2 = derive(DissipationSpec(2, (0.5, 0.5)))
# alpha = (4/3, 1), alpha_f = 2/3, gamma = (5/6, 5/6), beta = (4/9, 4/9)


class TestStructure:
    def test_a_is_block_diagonal(self):
        for k in (1, 2, 3):
            p = derive(DissipationSpec(k, (0.4,) * k))
            A, _ = assemble_step_matrices(p, 2.5)
            mask = np.ones_like(A, dtype=bool)
            for j in range(k):
                mask[3 * j : 3 * j + 3, 3 * j : 3 * j + 3] = False
            assert np.all(A[mask] == 0.0)

    def test_b_is_block_upper_triangular(self):
        for k in (2, 3):
            p = derive(DissipationSpec(k, (0.4,) * k))
            _, B = assemble_step_matrices(p, 2.5)
            for j in range(1, k):
                assert np.all(B[3 * j :, : 3 * j] == 0.0)

    def test_g_is_block_upper_triangular(self):
        p = derive(DissipationSpec(3, (0.2, 0.5, 0.8)))
        G = amplification_matrix(p, 7.0).G
        for j in range(1, 3):
            assert np.max(np.abs(G[3 * j :, : 3 * j])) < 1e-14

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            assemble_step_matrices(K2, -1.0)


class TestK2Entries:
    def test_a_implicit_rows(self):
        sigma = 0.7
        A, _ = assemble_step_matrices(K2, sigma)
        a1, a2, af = 4.0 / 3.0, 1.0, 2.0 / 3.0
        assert A[2].tolist() == [sigma, 0.0, a1, 0.0, 0.0, 0.0]
        assert A[5].tolist() == pytest.approx([0.0, 0.0, 0.0, sigma * af, 0.0, a2])

    def test_a_predictor_rows(self):
        A, _ = assemble_step_matrices(K2, 0.7)
        b1, g1 = 4.0 / 9.0, 5.0 / 6.0
        assert A[0].tolist() == pytest.approx([1.0, 0.0, -b1, 0.0, 0.0, 0.0])
        assert A[1].tolist() == pytest.approx([0.0, 1.0, -g1, 0.0, 0.0, 0.0])

    def test_b_last_block_rows(self):
        sigma = 0.7
        _, B = assemble_step_matrices(K2, sigma)
        b2, g2, a2, af = 4.0 / 9.0, 5.0 / 6.0, 1.0, 2.0 / 3.0
        assert B[3].tolist() == pytest.approx([0, 0, 0, 1.0, 1.0, 0.5 - b2])
        assert B[4].tolist() == pytest.approx([0, 0, 0, 0.0, 1.0, 1.0 - g2])
        assert B[5].tolist() == pytest.approx(
            [0, 0, 0, -sigma * (1.0 - af), 0.0, a2 - 1.0]
        )

    def test_b_first_row_taylor_minus_beta(self):
        _, B = assemble_step_matrices(K2, 0.7)
        b1 = 4.0 / 9.0
        want = [1.0, 1.0, 0.5 - b1, 1 / 6 - b1, 1 / 24 - b1 / 2, 1 / 120 - b1 / 6]
        assert B[0].tolist() == pytest.approx(want)

    def test_b_row2_uses_gamma_not_beta(self):
        # derived velocity-predictor row; coefficients carry gamma_1
        _, B = assemble_step_matrices(K2, 0.7)
        g1 = 5.0 / 6.0
        want = [0.0, 1.0, 1.0 - g1, 0.5 - g1, 1 / 6 - g1 / 2, 1 / 24 - g1 / 6]
        assert B[1].tolist() == pytest.approx(want)

    def test_b_row3_uses_alpha1_not_alpha2(self):
        # derived acceleration row; the shift is (alpha_1 - 1), not (alpha_2 - 1)
        _, B = assemble_step_matrices(K2, 0.7)
        a1 = 4.0 / 3.0
        want = [0.0, 0.0, a1 - 1, a1 - 1, (a1 - 1) / 2, (a1 - 1) / 6]
        assert B[2].tolist() == pytest.approx(want)

    def test_k1_block_matches_classic_pair(self):
        p = derive(DissipationSpec(1, (0.5,)))  # alpha_m = 1, alpha_f = 2/3, gamma = 5/6, beta = 4/9
        sigma = 1.3
        A, B = assemble_step_matrices(p, sigma)
        am, af, b1, g1 = 1.0, 2.0 / 3.0, 4.0 / 9.0, 5.0 / 6.0
        want_A = np.array([[1, 0, -b1], [0, 1, -g1], [sigma * af, 0, am]])
        want_B = np.array(
            [[1, 1, 0.5 - b1], [0, 1, 1 - g1], [-sigma * (1 - af), 0, am - 1]]
        )
        assert np.max(np.abs(A - want_A)) < 1e-15
        assert np.max(np.abs(B - want_B)) < 1e-15


class TestAmplification:
    def test_solves_a_g_equals_b(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            k = int(rng.integers(1, 4))
            p = derive(DissipationSpec(k, tuple(rng.uniform(0, 1, k))))
            sigma = 10.0 ** rng.uniform(-6, 6)
            A, B = assemble_step_matrices(p, sigma)
            G = amplification_matrix(p, sigma).G
            assert np.max(np.abs(A @ G - B)) <= 1e-12 * np.max(np.abs(B))

    def test_sigma_zero_propagates_linear_state_exactly(self):
        G = amplification_matrix(K2, 0.0).G
        w = np.array([2.0, 3.0, 0.0, 0.0, 0.0, 0.0])  # scaled linear-in-t state
        assert (G @ w).tolist() == pytest.approx([5.0, 3.0, 0, 0, 0, 0], abs=1e-14)

    def test_variants_agree_for_k1_and_differ_for_k3(self):
        p1 = derive(DissipationSpec(1, (0.5,)))
        G_full = amplification_matrix(p1, 1.0, Variant.FULL_TAYLOR).G
        G_printed = amplification_matrix(p1, 1.0, Variant.AS_PRINTED).G
        assert np.array_equal(G_full, G_printed)
        p3 = derive(DissipationSpec(3, (0.5, 0.5, 0.5)))
        G_full = amplification_matrix(p3, 1.0, Variant.FULL_TAYLOR).G
        G_printed = amplification_matrix(p3, 1.0, Variant.AS_PRINTED).G
        assert np.max(np.abs(G_full - G_printed)) > 1e-3

    def test_singular_divisor_is_reported(self):
        # alpha_m = -1, beta = 1/16: det A = alpha_m + sigma*alpha_f*beta = 0
        p = from_alphas(1, (-1.0,), 0.5)
        with pytest.raises(SingularStepError, match="divisor"):
            amplification_matrix(p, 32.0)
        with pytest.raises(SingularStepError):
            oracle_step(p, 32.0, [1.0, 0.0, 0.0])

    def test_non_finite_block_is_reported(self):
        # a hand-built beta_2 = inf leaves block 2 not finite (once NaN entries)
        p = replace(from_alphas(2, (1.5, 1.2), 0.7), beta=(0.5, math.inf))
        with pytest.raises(SingularStepError, match=r"block 2 divisor .* = inf at sigma = 2.0"):
            diagonal_blocks(p, [2.0, 4.0])

    def test_diagonal_blocks_cover_full_spectrum(self):
        p = derive(DissipationSpec(3, (0.3, 0.6, 0.9)))
        union = np.linalg.eigvals(diagonal_blocks(p, 4.2)).ravel()
        full = np.linalg.eigvals(amplification_matrix(p, 4.2).G)
        assert np.sort(np.abs(union)) == pytest.approx(
            np.sort(np.abs(full)), abs=1e-10
        )

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_variants_share_the_block_pair(self, k):
        # The variants differ only above the diagonal, so every spectral
        # result is variant-free.
        p = derive(DissipationSpec(k, (0.3, 0.6, 0.9, 0.1)[:k]))
        c = [1.0] * (k - 1) + [p.alpha_f]
        for sigma in (0.0, 1e-6, 1.0, 1e8):
            A, B = _block_pair(p.alpha, p.beta, p.gamma, c, sigma)
            for variant in Variant:
                dense_A, dense_B = assemble_step_matrices(p, sigma, variant)
                for j in range(k):
                    d = slice(3 * j, 3 * j + 3)
                    assert np.array_equal(dense_A[d, d], A[j])
                    assert np.array_equal(dense_B[d, d], B[j])

    def test_block_pair_broadcasts(self):
        alpha, beta, gamma = np.array([1.5, 2.0]), np.array([0.3, 0.5]), np.array([0.9, 1.1])
        sigma = np.array([[0.5], [2.0], [8.0]])
        A, B = _block_pair(alpha, beta, gamma, 0.7, sigma)
        assert A.shape == B.shape == (3, 2, 3, 3)
        for i, j in np.ndindex(3, 2):
            a, b = _block_pair(alpha[j], beta[j], gamma[j], 0.7, sigma[i, 0])
            assert np.array_equal(A[i, j], a) and np.array_equal(B[i, j], b)

    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_diagonal_blocks_match_the_dense_solve(self, k, variant):
        # Either variant's dense solve has the same diagonal blocks.
        p = derive(DissipationSpec(k, (0.3, 0.6, 0.9, 0.1)[:k]))
        sigmas = [0.0, 1e-6, 1.0, 1e8]
        blocks = diagonal_blocks(p, sigmas)
        assert blocks.shape == (4, k, 3, 3)
        for sigma, got in zip(sigmas, blocks):
            G = amplification_matrix(p, sigma, variant).G
            want = np.stack([G[3 * j : 3 * j + 3, 3 * j : 3 * j + 3] for j in range(k)])
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_diagonal_blocks_reject_negative_sigma(self):
        with pytest.raises(ValueError):
            diagonal_blocks(K2, [1.0, -1.0])


@pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
@pytest.mark.parametrize("call", [
    lambda p, sigma: eigvals(p, sigma),
    lambda p, sigma: spectral_radius(p, [1.0, sigma]),
    lambda p, sigma: diagonal_blocks(p, sigma),
    lambda p, sigma: assemble_step_matrices(p, sigma),
    lambda p, sigma: amplification_matrix(p, sigma),
    lambda p, sigma: oracle_step(p, sigma, [1.0] * 6),
], ids=["eigvals", "spectral_radius", "diagonal_blocks", "assemble_step_matrices",
        "amplification_matrix", "oracle_step"])
def test_non_finite_sigma_is_rejected(call, sigma):
    # once NaN matrices without an error, a RuntimeWarning, or numpy's bare
    # "Array must not contain infs or NaNs"
    with pytest.raises(ValueError, match=f"sigma must be finite and >= 0, got {sigma}"):
        call(K2, sigma)


class TestScaling:
    def test_scale_pattern(self):
        s = init_state(0.0, 1.0, 1.0, 1)
        s = type(s)(k=1, t=0.0, d=(2.0, 3.0, 4.0))
        assert scale_state(s, 0.5).tolist() == [2.0, 1.5, 1.0]

    def test_round_trip_identity(self):
        rng = np.random.default_rng(11)
        d = rng.normal(size=9)
        s = unscale_state(d, 1.0, 3)
        for tau in (0.1, 0.25, 2.0):
            back = unscale_state(scale_state(s, tau), tau, 3)
            assert back.d == pytest.approx(s.d, rel=1e-14)

    def test_rejects_nonpositive_tau(self):
        s = init_state(1.0, 1.0, 0.0, 1)
        with pytest.raises(ValueError):
            scale_state(s, 0.0)
        with pytest.raises(ValueError):
            unscale_state([1.0, 0.0, 0.0], -1.0, 1)


class TestEqualControlDefect:
    """Findings about the paper's all-zero-control schemes.  They describe
    the program; they are not bounds the scheme should meet."""

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_diagonal_blocks_are_identical_at_zero_controls(self, k):
        # alpha = 2, gamma = 3/2, beta = 1 and c = 1 in every block
        blocks = diagonal_blocks(derive(DissipationSpec(k, (0.0,) * k)), SweepConfig().grid())
        assert blocks.shape == (60, k, 3, 3)
        for j in range(1, k):
            assert np.array_equal(blocks[:, j], blocks[:, 0])

    LAM = 4.0 * np.pi**2

    @classmethod
    def energy_amplitude(cls, rho, n_steps):
        """sqrt(u^2 + u'^2/lambda) at steps 0..n_steps from u = 1, u' = 0,
        lambda = 4 pi^2, tau = 0.01 (100 steps per period); exactly 1.
        Only u and u' are kept, so long runs stay small."""
        p = derive(DissipationSpec(len(rho), rho))
        advance = _plan(p, cls.LAM, StepConfig(tau=0.01))
        d = init_state(cls.LAM, 1.0, 0.0, p.k).d
        u, v = [d[0]], [d[1]]
        for _ in range(n_steps):
            d = advance(d)
            u.append(d[0])
            v.append(d[1])
        return np.sqrt(np.array(u) ** 2 + np.array(v) ** 2 / cls.LAM)

    def test_k1_amplitude_stays_bounded(self):
        assert self.energy_amplitude((0.0,), 20_000).max() <= 1.0 + 1e-9  # measured 1 + 4.8e-10

    def test_k2_amplitude_doubles_within_20k_steps(self):
        # the two identical blocks form a Jordan chain on the principal pair
        assert self.energy_amplitude((0.0, 0.0), 20_000).max() > 2.0  # measured 2.167

    def test_k2_amplitude_peaks_near_one_over_one_minus_radius(self):
        # n*|z|^n, the growth of a Jordan chain of length 2, peaks near
        # n = 1/(1 - |z|): measured 5.44 at step 129 109, against 130 349
        p = derive(DissipationSpec(2, (0.0, 0.0)))
        want = 1.0 / (1.0 - spectral_radius(p, self.LAM * 0.01**2))
        amplitude = self.energy_amplitude((0.0, 0.0), 200_000)
        assert abs(int(amplitude.argmax()) - want) <= 0.05 * want
        assert amplitude.max() > 5.0

    def test_rho_one_overshoot_is_fourth_order_in_tau(self):
        # criterion 8's case: max|u| - 1 over T = 1 is 3.35e-5, 2.12e-6,
        # 1.33e-7 and 8.33e-9 at tau = 0.02, 0.01, 0.005 and 0.0025
        p = derive(DissipationSpec(2, (1.0, 1.0)))
        overshoot = []
        for n in (50, 100, 200, 400):
            rows = np.array(integrate(p, self.LAM, StepConfig(tau=1.0 / n), 1.0, 0.0, n).rows)
            overshoot.append(np.abs(rows[:, 1]).max() - 1.0)
        ratios = [a / b for a, b in zip(overshoot, overshoot[1:])]
        assert all(15.0 < r < 17.0 for r in ratios)  # measured 15.8, 15.9 and 16.0
