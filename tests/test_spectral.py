import numpy as np
import pytest

from galpha import (
    DissipationSpec,
    ParameterAxis,
    SingularStepError,
    SweepConfig,
    UnsupportedParametersError,
    Variant,
    amplification_matrix,
    char_coeffs_3x3,
    classify_stability,
    derive,
    eigvals,
    from_alphas,
    limit_eigs_sigma_inf,
    limit_eigs_sigma_zero,
    spectral_radius,
    stability_map,
    sweep_spectrum,
)


class TestCharCoeffs:
    def test_matches_numpy_poly(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            M = rng.normal(size=(3, 3))
            c = char_coeffs_3x3(M)
            # np.poly returns [1, -G1, G2, -G3]
            want = np.poly(M)
            assert (1.0, -c.G1, c.G2, -c.G3) == pytest.approx(tuple(want), rel=1e-10)

    def test_identity_matrix(self):
        c = char_coeffs_3x3(np.eye(3))
        assert (c.G1, c.G2, c.G3) == (3.0, 3.0, 1.0)


class TestEigvals:
    def test_matches_dense_eigensolver_at_moderate_sigma(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            k = int(rng.integers(1, 4))
            p = derive(DissipationSpec(k, tuple(rng.uniform(0, 1, k))))
            sigma = 10.0 ** rng.uniform(-3, 3)
            es = eigvals(p, sigma)
            dense = np.linalg.eigvals(amplification_matrix(p, sigma).G)
            assert np.sort(np.abs(es), axis=None) == pytest.approx(
                np.sort(np.abs(dense)), abs=1e-8
            )

    def test_blocks_grouping_and_sort(self):
        p = derive(DissipationSpec(2, (0.5, 0.5)))
        es = eigvals(p, 1.0)
        assert es.shape == (2, 3) and es.dtype == complex
        for b in es:
            mags = [abs(z) for z in b]
            assert mags == sorted(mags, reverse=True)

    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_batched_equals_stacked_scalar_calls(self, k, variant):
        p = derive(DissipationSpec(k, (0.0, 0.5, 1.0)[:k]))
        grid = np.concatenate([[0.0], SweepConfig(1e-6, 1e10, 80).grid()])
        batched = eigvals(p, grid, variant)
        stacked = np.stack([eigvals(p, float(s), variant) for s in grid])
        assert batched.shape == (grid.size, k, 3)
        assert np.array_equal(batched, stacked)
        radius = spectral_radius(p, grid, variant)
        assert np.array_equal(radius, [spectral_radius(p, float(s), variant) for s in grid])

    def test_singular_sigma_names_the_divisor(self):
        # alpha_1 = 0 gives beta_1 = 0: block 1's divisor vanishes at every sigma
        p = from_alphas(2, (0.0, 1.0), 0.6)
        with pytest.raises(SingularStepError, match="block 1 divisor"):
            eigvals(p, 1.0)

    def test_singular_sigma_in_a_batch_is_the_first_one(self):
        # alpha_m = -1, beta = 1/16, alpha_f = 1/2: det A = 0 at sigma = 32 only
        p = from_alphas(1, (-1.0,), 0.5)
        with pytest.raises(SingularStepError, match="divisor") as err:
            eigvals(p, [1.0, 32.0, 64.0])
        assert err.value.sigma == 32.0


class TestLimits:
    def test_sigma_zero_closed_form(self):
        p = derive(DissipationSpec(2, (0.5, 0.5)))
        # alpha = (4/3, 1) -> (alpha-1)/alpha = (1/4, 0)
        assert limit_eigs_sigma_zero(p) == pytest.approx([1, 1, 0.25, 1, 1, 0.0])

    def test_sigma_zero_matches_spectrum(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            p = derive(DissipationSpec(2, tuple(rng.uniform(0, 1, 2))))
            got = np.sort(np.abs(eigvals(p, 1e-12)), axis=None)
            want = np.sort(np.abs(limit_eigs_sigma_zero(p)))
            assert got == pytest.approx(want, abs=1e-6)

    def test_sigma_zero_rejects_zero_alpha(self):
        p = from_alphas(1, (0.0,), 0.5)
        with pytest.raises(ValueError):
            limit_eigs_sigma_zero(p)

    def test_sigma_inf_closed_form(self):
        p = derive(DissipationSpec(2, (0.1, 0.4)))
        assert limit_eigs_sigma_inf(p) == [0.1, 0.1, 0.0, 0.4, 0.4, 0.4]

    def test_sigma_inf_matches_spectrum(self):
        p = derive(DissipationSpec(2, (0.1, 0.4)))
        es = eigvals(p, 1e10)
        got = np.sort(np.abs(es), axis=None)
        want = np.sort(np.abs(limit_eigs_sigma_inf(p)))
        assert got == pytest.approx(want, abs=1e-4)
        assert np.max(np.abs(es.imag)) <= 1e-6

    def test_sigma_inf_requires_rho(self):
        p = from_alphas(2, (2.0, 1.0), 0.6)
        with pytest.raises(UnsupportedParametersError):
            limit_eigs_sigma_inf(p)

    def test_k1_radius_approaches_rho(self):
        p = derive(DissipationSpec(1, (0.3,)))
        assert spectral_radius(p, 1e8) == pytest.approx(0.3, abs=1e-4)


class TestSweep:
    def test_grid_endpoints_and_length(self):
        spec = sweep_spectrum(
            derive(DissipationSpec(1, (0.5,))), sigma_min=1e-4, sigma_max=1e2, n_points=7
        )
        assert spec.sigma.shape == spec.radius.shape == (7,)
        assert spec.eigs.shape == (7, 1, 3)
        assert spec.sigma[0] == pytest.approx(1e-4)
        assert spec.sigma[-1] == pytest.approx(1e2)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            SweepConfig(sigma_min=1.0, sigma_max=0.5).grid()
        with pytest.raises(ValueError):
            SweepConfig(n_points=1).grid()

    def test_radius_field_consistent(self):
        p = derive(DissipationSpec(1, (0.2,)))
        spec = sweep_spectrum(p, 1e-3, 1e3, 5)
        for sigma, eigs, radius in zip(spec.sigma, spec.eigs, spec.radius):
            assert radius == np.max(np.abs(eigs))
            assert radius == spectral_radius(p, float(sigma))


class TestClassifyStability:
    def test_rho_derived_schemes_are_stable(self):
        for k in (1, 2, 3):
            p = derive(DissipationSpec(k, (0.5,) * k))
            stable, max_r, _ = classify_stability(p)
            assert stable
            assert max_r <= 1.0 + 1e-9

    def test_detects_instability(self):
        p = from_alphas(2, (0.9, 1.0), 0.6)  # alpha_1 < 1
        stable, max_r, arg = classify_stability(p)
        assert not stable
        assert max_r > 1.1
        assert arg > 0.0

    def test_singular_scheme_is_unstable_at_the_first_grid_sigma(self):
        p = from_alphas(2, (0.0, 1.0), 0.6)  # block 1 divisor is 0 everywhere
        assert classify_stability(p) == (False, float("inf"), 1e-06)


class TestStabilityMap:
    def test_condition_region_is_stable(self):
        smap = stability_map(
            2,
            {"alpha1": 2.0},
            ParameterAxis("alpha_f", 0.0, 2.0, 9),
            ParameterAxis("alpha2", 0.0, 2.0, 9),
            SweepConfig(n_points=15),
        )
        assert len(smap.points) == 81
        for pt in smap.points:
            if 0.5 <= pt.x <= pt.y:  # x = alpha_f, y = alpha_2
                assert pt.stable, (pt.x, pt.y, pt.max_radius)

    def test_axis_validation(self):
        ax = ParameterAxis("alpha_f", 0.0, 1.0, 3)
        with pytest.raises(ValueError):
            stability_map(2, {}, ax, ax)
        with pytest.raises(ValueError):
            stability_map(2, {"alpha1": 2.0}, ax, ParameterAxis("bogus", 0, 1, 3))
        with pytest.raises(ValueError):
            ParameterAxis("alpha1", 0, 1, 1)
        with pytest.raises(ValueError):
            # alpha2 neither fixed nor varied
            stability_map(2, {}, ax, ParameterAxis("alpha1", 0, 1, 3))
