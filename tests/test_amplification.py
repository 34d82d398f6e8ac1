from fractions import Fraction
from itertools import product

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
from galpha.amplification import _block_pair, _block_poly, _block_solve
from galpha.params import _singular_divisor, block_conditions, block_rows
from galpha.spectral import _radii, eigvals
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
        # finite coefficients whose block 2 solve overflows: beta_2 ~ 6e299
        # over the divisor alpha_2 = 1e-300
        p = from_alphas(2, (1.5, 1e-300), -1e150)
        with pytest.raises(SingularStepError, match=r"block 2 divisor .* = 1e-300 at sigma = 0.0"):
            diagonal_blocks(p, [0.0, 2.0])

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


class TestSingularRule:
    """One divisor rule, ``params._singular_divisor``, decides a singular
    block for the stepper and for the block solve alike."""

    def test_near_singular_block_is_refused_by_every_layer(self):
        # alpha_m = -1, beta = 1/16, alpha_f = 1/2: the divisor -1 + sigma/32
        # is 2.2e-16 one ulp above sigma = 32, round-off of its terms; once
        # the solve divided by it and eigvals reported 2.25e16
        p = from_alphas(1, (-1.0,), 0.5)
        sigma = np.nextafter(32.0, np.inf)
        message = "divisor .* = 2.220446049250313e-16 at sigma = 32.00000000000001"
        with pytest.raises(SingularStepError, match=message):
            eigvals(p, sigma)
        with pytest.raises(SingularStepError, match=message):
            diagonal_blocks(p, [1.0, sigma])
        radius = _radii(np.column_stack((p.alpha, p.beta, p.gamma, p.c)), np.array([1.0, sigma]))
        assert np.isfinite(radius[0]) and radius[1] == np.inf
        with pytest.warns(UserWarning, match="alpha_f <= alpha_1"):  # alpha_m = -1 < alpha_f
            with pytest.raises(SingularStepError, match="at lambda = 32.00000000000001"):
                _plan(p, sigma, StepConfig(tau=1.0))

    def test_a_pivot_that_underflows_is_masked_not_raised(self):
        # alpha_m = 1e-300, alpha_f = 1: beta = 0, so the divisor is alpha_m
        # and the rule passes it; at sigma = 1e25 the LU swaps rows and its
        # pivot -1e-300/1e25 underflows to zero, while G's entry -sigma/1e-300
        # overflows
        rows = block_rows([1e-300], 1.0)
        assert rows[0, 1] == 0.0 and not _singular_divisor(1e-300, 1e-300, 0.0)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(*_block_pair(*rows[0], 1e25))
        G, bad = _block_solve(rows, np.array(1e25))
        assert bad.tolist() == [True] and not G.any()

    @staticmethod
    def _extreme(rng, shape):
        """Floats of every scale: signed zeros, small values of either
        sign, and +-10^U(-300, 300)."""
        x = np.where(rng.random(shape) < 0.5, -1.0, 1.0) * 10.0 ** rng.uniform(-300, 300, shape)
        kind = rng.integers(0, 4, shape)
        x[kind == 0] = np.where(rng.random(shape) < 0.5, -0.0, 0.0)[kind == 0]
        x[kind == 1] = rng.uniform(-3.0, 3.0, shape)[kind == 1]
        return x

    def test_block_solve_masks_the_rule_or_a_non_finite_g(self):
        rng = np.random.default_rng(23)
        n, k = 1500, 2
        alpha, alpha_f = self._extreme(rng, (n, k)), self._extreme(rng, n)
        tied = rng.random(n) < 0.2  # gamma_k near -1/2: beta_k is 0 or tiny
        alpha_f[tied] = 1.0 + alpha[tied, -1]
        rows = block_rows(alpha, alpha_f)
        sigma = 10.0 ** rng.uniform(-300, 300, n)
        sigma[rng.random(n) < 0.1] = 0.0
        # a quarter of the schemes sit within 50 ulps of a root of the last divisor
        a, b, _, c = rows[:, -1].T
        with np.errstate(all="ignore"):
            root = -a / (c * b) * (1.0 + np.finfo(float).eps * rng.integers(-50, 51, n))
        near = (rng.random(n) < 0.25) & (root >= 0.0) & (root < np.inf)
        sigma[near] = root[near]
        G, bad = _block_solve(rows, sigma)
        seen = {"rule": 0, "overflow": 0, "raise": 0, "solved": 0}
        for i, j in np.ndindex(n, k):
            with np.errstate(all="ignore"):
                A, B = _block_pair(*rows[i, j], sigma[i])
                shift = A[2, 0] * rows[i, j, 1]
                singular = _singular_divisor(A[2, 2] + shift, A[2, 2], shift)
                overflow = not np.isfinite(A[2, 0] / (A[2, 2] + shift))  # G's entry -sigma*c/div
                try:
                    want = np.linalg.solve(A, B)
                except np.linalg.LinAlgError:
                    want = np.full((3, 3), np.nan)
                    seen["raise"] += 1
            seen["rule"] += bool(singular) and np.isfinite(want).all()
            seen["overflow"] += overflow and not singular
            if singular or overflow or not np.isfinite(want).all():
                assert bad[i, j] and not G[i, j].any(), (rows[i, j], sigma[i])
            else:
                assert not bad[i, j] and np.array_equal(G[i, j], want), (rows[i, j], sigma[i])
                seen["solved"] += 1
        # every case occurs: near-singular blocks LAPACK would solve, entries
        # that overflow, plain solves that raise, and blocks solved as usual
        assert min(seen.values()) > 0, seen


def _exact_row(alpha, alpha_f=None):
    """(alpha, beta, gamma, c) of a leading block (alpha_f None) or of
    the last block, from the gamma and beta laws in exact arithmetic."""
    if alpha_f is None:
        gamma, c = alpha - Fraction(1, 2), 1
    else:
        gamma, c = Fraction(1, 2) - alpha_f + alpha, alpha_f
    return alpha, ((2 * gamma + 1) / 4) ** 2, gamma, c


def _mul(a, b):
    """Product of two polynomials, coefficients by ascending power."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _hurwitz(row, sigma):
    """(b0, b1, b2, b3) of (1 - s)^3 p((1 + s)/(1 - s)) for the block
    polynomial p of ``_block_poly``: p's roots lie in |z| <= 1 where
    this cubic's lie in Re s <= 0."""
    b = [0] * 4
    for m, coeff in zip((3, 2, 1, 0), _block_poly(*row, sigma)):
        term = [coeff]
        for _ in range(m):
            term = _mul(term, [1, 1])
        for _ in range(3 - m):
            term = _mul(term, [1, -1])
        b = [x + y for x, y in zip(b, term)]
    return b


class TestBlockPolynomial:
    """``_block_poly`` is det(z A_jj - B_jj) in closed form, and Routh-
    Hurwitz on it is the stability rule of ``block_conditions``."""

    def test_is_the_determinant_of_the_block_pair(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            alpha, beta, gamma, c = rng.uniform(-2.0, 3.0, 4)
            sigma, z = 10.0 ** rng.uniform(-3, 3), complex(*rng.normal(size=2))
            A, B = _block_pair(alpha, beta, gamma, c, sigma)
            want = np.linalg.det(z * A - B)
            got = np.polyval(_block_poly(alpha, beta, gamma, c, sigma), z)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-10)

    def test_routh_hurwitz_coefficients_and_factorizations_are_exact(self):
        rng = np.random.default_rng(22)
        fractions = lambda n: [Fraction(int(rng.integers(-40, 80)), int(rng.integers(1, 20)))
                               for _ in range(n)]
        for alpha, alpha_f, sigma in zip(fractions(30), fractions(30), fractions(30)):
            sigma = abs(sigma) + Fraction(1, 7)
            for row, D in (
                (_exact_row(alpha), 2 * sigma**2 * alpha**2 * (alpha - 1)),
                (_exact_row(alpha, alpha_f),
                 2 * sigma**2 * (alpha - alpha_f) * (alpha + alpha_f - 1) ** 2),
            ):
                _, _, gamma, c = row
                b0, b1, b2, b3 = _hurwitz(row, sigma)
                assert isinstance(b3, Fraction)
                assert (b0, b1) == (sigma, 2 * sigma * (c + gamma - 1))
                assert b2 * b1 - b3 * b0 == D

    def test_routh_hurwitz_for_every_sigma_is_the_stability_rule(self):
        # Each b is affine in sigma and D = b2*b1 - b3*b0 is sigma^2 times a
        # constant, so "every b >= 0 and D >= 0 for every sigma > 0" reads
        # off sigma = 0, 1 and 2 exactly.  The grid holds the boundaries
        # alpha = 1, alpha_f = 1/2, alpha_f = alpha_k and alpha_f + alpha_k = 1.
        grid = [Fraction(n, 4) for n in range(-4, 10)]
        rows = [_exact_row(a) for a in grid] + [_exact_row(a, f) for a, f in product(grid, grid)]
        verdicts = set()
        for row in rows:
            at0, at1, at2 = (_hurwitz(row, Fraction(s)) for s in (0, 1, 2))
            slope = [y - x for x, y in zip(at0, at1)]
            assert at2 == [x + 2 * v for x, v in zip(at0, slope)]
            b0, b1, b2, b3 = at1
            hurwitz = min(at0 + slope) >= 0 and b2 * b1 - b3 * b0 >= 0
            rule = all(block_conditions(row[0], row[3]))
            assert hurwitz == rule, row
            verdicts.add(rule)
        assert verdicts == {True, False}


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
