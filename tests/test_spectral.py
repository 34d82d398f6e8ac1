from itertools import combinations

import numpy as np
import pytest

from galpha import spectral
from galpha import (
    DissipationSpec,
    ParameterAxis,
    SingularStepError,
    SweepConfig,
    Variant,
    amplification_matrix,
    check_stability_conditions,
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
        batched = eigvals(p, grid)
        stacked = np.stack([eigvals(p, float(s)) for s in grid])
        assert batched.shape == (grid.size, k, 3)
        assert np.array_equal(batched, stacked)
        radius = spectral_radius(p, grid)
        assert np.array_equal(radius, [spectral_radius(p, float(s)) for s in grid])
        # eigvals takes no variant: settling the eigenvalues of either
        # variant's dense G diagonal blocks gives the same magnitudes
        for s, es in zip(grid, batched):
            G = amplification_matrix(p, float(s), variant).G
            blocks = np.stack([G[3 * j:3 * j + 3, 3 * j:3 * j + 3] for j in range(k)])
            dense = np.sort(np.abs(spectral._settle(np.linalg.eigvals(blocks))), axis=-1)
            assert np.sort(np.abs(es), axis=-1) == pytest.approx(dense, rel=1e-9, abs=1e-14)

    def test_singular_sigma_names_the_divisor(self):
        # alpha_1 = 0 gives beta_1 = 0: block 1's divisor vanishes at every sigma
        p = from_alphas(2, (0.0, 1.0), 0.6)
        with pytest.raises(SingularStepError, match="block 1 divisor"):
            eigvals(p, 1.0)

    def test_singular_sigma_in_a_batch_is_the_first_one(self):
        # alpha_m = -1, beta = 1/16, alpha_f = 1/2: det A = 0 at sigma = 32 only
        p = from_alphas(1, (-1.0,), 0.5)
        with pytest.raises(SingularStepError, match="divisor .* at sigma = 32.0"):
            eigvals(p, [1.0, 32.0, 64.0])


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
        with pytest.raises(ValueError):
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

    def test_point_cap_is_checked_before_allocating(self, monkeypatch):
        monkeypatch.setattr(np, "logspace", lambda *a, **kw: pytest.fail("grid was allocated"))
        for n in (spectral.MAX_SWEEP_POINTS + 1, 10**8):
            with pytest.raises(ValueError, match="sweep points"):
                SweepConfig(n_points=n).grid()

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
        with pytest.raises(ValueError, match="bogus"):
            stability_map(2, {"alpha1": 2.0, "bogus": 5.0}, ax, ParameterAxis("alpha2", 0, 1, 3))
        with pytest.raises(ValueError):
            ParameterAxis("alpha1", 0, 1, 1)
        with pytest.raises(ValueError, match="neither fixed nor varied"):
            stability_map(2, {}, ax, ParameterAxis("alpha1", 0, 1, 3))
        # rejected before the grid is allocated (once a numpy memory error)
        huge = ParameterAxis("alpha_f", 0, 1, 3_000_000), ParameterAxis("alpha1", 0, 1, 3_000_000)
        with pytest.raises(ValueError, match="map points"):
            stability_map(1, {}, *huge)

    @pytest.mark.parametrize("field, build", [
        ("lo", lambda: ParameterAxis("alpha1", np.nan, 2.0, 5)),
        ("hi", lambda: ParameterAxis("alpha1", 1.0, np.inf, 5)),
        ("fixed alpha_f", lambda: stability_map(
            2, {"alpha_f": np.nan}, ParameterAxis("alpha1", 1.0, 2.0, 3),
            ParameterAxis("alpha2", 1.0, 2.0, 3), SweepConfig(n_points=5))),
        ("sigma_min", lambda: SweepConfig(np.nan, 1e3, 5).grid()),
        ("sigma_max", lambda: SweepConfig(1e-3, np.inf, 5).grid()),
    ])
    def test_non_finite_inputs_are_rejected_by_name(self, field, build):
        # once an inf bound gave nan/inf points or sigmas, and a NaN fixed
        # value a map of radius inf everywhere, without an error
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            build()

    def test_points_equal_one_point_classify(self):
        x_axis, y_axis = ParameterAxis("alpha_f", 0.0, 2.0, 6), ParameterAxis("alpha1", 0.0, 2.0, 5)
        sweep = SweepConfig(n_points=9)
        smap = stability_map(2, {"alpha2": 1.2}, x_axis, y_axis, sweep)
        for pt in smap.points:
            stable, max_r, _ = classify_stability(from_alphas(2, (pt.y, 1.2), pt.x), sweep)
            assert (pt.stable, pt.max_radius) == (stable, max_r)
        assert sum(pt.max_radius == np.inf for pt in smap.points) == 6  # the alpha1 = 0 row

    def test_singular_and_huge_radius_points_in_one_batch(self):
        # alpha1 = 0 is singular; alpha1 ~ 1e-299 gives a block eigenvalue
        # near -1/alpha1, whose triple product once overflowed (a warning,
        # so an error under this suite's filter).
        sweep = SweepConfig(n_points=9)
        smap = stability_map(
            2, {"alpha2": 1.3}, ParameterAxis("alpha1", 0.0, 1e-299, 3),
            ParameterAxis("alpha_f", 0.6, 1.0, 3), sweep,
        )
        grid = sweep.grid()
        for pt in smap.points:
            assert not pt.stable
            if pt.x == 0.0:
                assert pt.max_radius == np.inf
                continue
            p = from_alphas(2, (pt.x, 1.3), pt.y)
            assert pt.max_radius == spectral_radius(p, grid).max()
            dense = max(np.abs(np.linalg.eigvals(amplification_matrix(p, s).G)).max() for s in grid)
            assert pt.max_radius == pytest.approx(dense, rel=1e-7)
            assert pt.max_radius > 1e298

    def test_overflowing_coefficients_are_unstable_points(self):
        # beta = ((2*gamma + 1)/4)^2 overflows a float past |alpha| ~ 1e154
        smap = stability_map(
            2, {"alpha2": 1.3}, ParameterAxis("alpha1", 1.0, 1e200, 3),
            ParameterAxis("alpha_f", 0.6, 1.0, 2), SweepConfig(n_points=5),
        )
        assert [pt.max_radius == np.inf for pt in smap.points] == [False, True, True] * 2
        assert not any(pt.stable for pt in smap.points[1:3])

    def test_one_pair_per_slab_is_bit_identical(self, monkeypatch):
        args = (2, {"alpha2": 1.5}, ParameterAxis("alpha1", 0.0, 2.5, 7),
                ParameterAxis("alpha_f", 0.0, 2.0, 6), SweepConfig(n_points=11))
        whole = stability_map(*args)
        monkeypatch.setattr(spectral, "MAP_SLAB_BLOCKS", 1)
        sliced = stability_map(*args)
        assert [pt.stable for pt in sliced.points] == [pt.stable for pt in whole.points]
        assert np.array_equal([pt.max_radius for pt in sliced.points],
                              [pt.max_radius for pt in whole.points])
        assert np.isinf([pt.max_radius for pt in whole.points]).sum() == 6


@pytest.mark.parametrize("args", [
    # criterion 5's two maps
    (2, {"alpha1": 2.0}, ParameterAxis("alpha_f", 0.0, 2.0, 41),
     ParameterAxis("alpha2", 0.0, 2.0, 41), SweepConfig(n_points=20)),
    (2, {"alpha2": 2.0}, ParameterAxis("alpha1", 0.0, 2.0, 41),
     ParameterAxis("alpha_f", 0.0, 2.0, 41), SweepConfig(n_points=20)),
    (3, {"alpha1": 1.5, "alpha3": 1.25}, ParameterAxis("alpha2", 0.0, 2.0, 21),
     ParameterAxis("alpha_f", 0.0, 2.0, 21), SweepConfig()),
])
def test_exact_verdict_agrees_with_the_grid_radius(args):
    # The verdict is the closed-form rule; the radii are numerics on a
    # grid.  Criterion 4's bound on the radius must tell the same points
    # stable, so the grid keeps checking the closed form.
    radius, stable = _map_arrays(stability_map(*args))
    assert np.array_equal(stable, radius <= 1.0 + 1e-9)
    assert stable.any() and not stable.all()


def _all_pairs_map(k, fixed, x_axis, y_axis, sweep):
    """Reference radii and verdicts of a map, row-major from y, from one
    ``_radii`` call over every (point, sigma) pair with all k blocks of
    the point in each pair; a point whose coefficients overflow is inf.
    A point is stable when it passes ``check_stability_conditions`` and
    its radius is finite."""
    rows, at, n, passed = [], [], 0, []
    for y in np.linspace(y_axis.lo, y_axis.hi, y_axis.n).tolist():
        for x in np.linspace(x_axis.lo, x_axis.hi, x_axis.n).tolist():
            vals = {**fixed, x_axis.name: x, y_axis.name: y}
            try:
                p = from_alphas(k, [vals[f"alpha{i + 1}"] for i in range(k)], vals["alpha_f"])
            except OverflowError:
                passed.append(False)
            else:
                rows.append(np.column_stack((p.alpha, p.beta, p.gamma, p.c)))
                at.append(n)
                passed.append(check_stability_conditions(p).passed)
            n += 1
    radius = np.full(n, np.inf)
    if at:
        radius[at] = spectral._radii(np.array(rows)[:, None], sweep.grid()).max(axis=1)
    return radius, np.array(passed) & np.isfinite(radius)


def _map_arrays(smap):
    radius = np.array([pt.max_radius for pt in smap.points])
    return radius, np.array([pt.stable for pt in smap.points])


def _axis_pairs(k):
    return [(k, x, y) for x, y in combinations([f"alpha{i + 1}" for i in range(k)] + ["alpha_f"], 2)]


class TestStabilityMapBlocks:
    """A map solves each distinct block once (leading block j depends on
    alpha_j only, the last on alpha_k and alpha_f) and must give the
    radii of the all-pairs pass bit for bit."""

    @pytest.mark.parametrize("k, x_name, y_name", _axis_pairs(2) + _axis_pairs(3) + _axis_pairs(4))
    def test_equals_the_all_pairs_pass_on_every_axis_pair(self, k, x_name, y_name):
        names = [f"alpha{i + 1}" for i in range(k)] + ["alpha_f"]
        fixed = {nm: 1.2 + 0.2 * j for j, nm in enumerate(names[:-1]) if nm not in (x_name, y_name)}
        if "alpha_f" not in (x_name, y_name):
            fixed["alpha_f"] = 0.8
        args = (k, fixed, ParameterAxis(x_name, 0.0, 2.5, 5), ParameterAxis(y_name, 0.4, 2.2, 4),
                SweepConfig(n_points=7))
        radius, stable = _all_pairs_map(*args)
        got_radius, got_stable = _map_arrays(stability_map(*args))
        assert np.array_equal(got_radius, radius) and np.array_equal(got_stable, stable)
        assert stable.any() and not stable.all()

    @pytest.mark.parametrize("args", [
        # signed zeros on both a leading and the last block, and in the coupling
        (2, {"alpha1": -0.0}, ParameterAxis("alpha2", 0.0, -0.0, 3),
         ParameterAxis("alpha_f", 0.0, -0.0, 3)),
        (3, {"alpha1": 1.5, "alpha_f": -0.0}, ParameterAxis("alpha2", -1.0, 1.0, 3),
         ParameterAxis("alpha3", 0.0, -0.0, 3)),
        # singular (alpha1 = 0) points beside regular ones
        (3, {"alpha2": 1.4, "alpha_f": 0.8}, ParameterAxis("alpha1", 0.0, 2.0, 5),
         ParameterAxis("alpha3", 0.5, 1.5, 3)),
        # overflowing coefficients (|alpha| > 1e154), singular and huge-radius points
        (2, {"alpha2": 1.3}, ParameterAxis("alpha1", 0.0, 1e200, 4),
         ParameterAxis("alpha_f", 0.6, 1.0, 2)),
        (2, {"alpha2": 1.3}, ParameterAxis("alpha1", 0.0, 1e-299, 3),
         ParameterAxis("alpha_f", 0.6, 1.0, 3)),
        # every point overflows
        (4, {"alpha2": 1.3, "alpha3": 1.2, "alpha_f": 0.7}, ParameterAxis("alpha1", 1e160, 1e200, 3),
         ParameterAxis("alpha4", 1e170, 1e190, 2)),
    ])
    def test_equals_the_all_pairs_pass_on_special_points(self, args):
        args += (SweepConfig(n_points=9),)
        radius, stable = _all_pairs_map(*args)
        got_radius, got_stable = _map_arrays(stability_map(*args))
        assert np.array_equal(got_radius, radius) and np.array_equal(got_stable, stable)

    @pytest.mark.parametrize("args, blocks", [
        # 9 first blocks, 9 second blocks and one last block, not 9 * 9 * 3
        ((3, {"alpha3": 1.2, "alpha_f": 0.7}, ParameterAxis("alpha1", 0.5, 2.5, 9),
          ParameterAxis("alpha2", 0.6, 2.6, 9)), 19),
        # 0.0 and -0.0 stay apart: one first block, 2 x 2 last blocks
        ((2, {"alpha1": 1.5}, ParameterAxis("alpha2", 0.0, -0.0, 3),
          ParameterAxis("alpha_f", 0.0, -0.0, 3)), 5),
    ])
    def test_each_distinct_block_is_solved_once(self, monkeypatch, args, blocks):
        received = []

        def counting(rows, sigma):
            assert rows.shape[-2] == 1  # one block per scheme
            received.append(len(sigma))
            return radii(rows, sigma)

        radii = spectral._radii
        monkeypatch.setattr(spectral, "_radii", counting)
        sweep = SweepConfig(n_points=11)
        stability_map(*args, sweep)
        assert sum(received) == blocks * sweep.n_points
