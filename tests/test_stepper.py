import io
import warnings

import numpy as np
import pytest

from galpha import (
    DissipationSpec,
    OscillatorMode,
    StepConfig,
    Variant,
    derive,
    from_alphas,
    init_state,
    integrate,
    oracle_step,
    scale_state,
    step,
    unscale_state,
)


def rho_spec(*rho):
    return DissipationSpec(len(rho), rho)


class TestInitState:
    def test_k2_pattern(self):
        s = init_state(OscillatorMode(4.0), 1.0, 2.0, 2)
        assert s.d == (1.0, 2.0, -4.0, -8.0, 16.0, 32.0)
        assert s.t == 0.0

    def test_zero_lambda(self):
        s = init_state(OscillatorMode(0.0), 3.0, 5.0, 2)
        assert s.d == (3.0, 5.0, 0.0, 0.0, 0.0, 0.0)

    def test_matches_repeated_differentiation_oracle(self):
        # u^(j+2) = -lambda * u^(j), applied entry by entry
        lam, u0, v0, k = 1.0, 1.0, 0.0, 3
        d = [u0, v0]
        for j in range(3 * k - 2):
            d.append(-lam * d[j])
        s = init_state(OscillatorMode(lam), u0, v0, k)
        assert s.d == tuple(d)
        assert s.d == (1, 0, -1, 0, 1, 0, -1, 0, 1)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            init_state(OscillatorMode(1.0), 1.0, 0.0, 0)


class TestStepK1:
    def test_zero_lambda_linear_advance(self):
        p = derive(rho_spec(0.5))
        s = init_state(OscillatorMode(0.0), 2.0, 3.0, 1)
        s1 = step(p, OscillatorMode(0.0), StepConfig(tau=0.5), s)
        assert s1.d == (3.5, 3.0, 0.0)
        assert s1.t == 0.5

    def test_matches_amplification_oracle(self):
        p = derive(rho_spec(0.5))
        lam, tau = 1.0, 0.1
        s = init_state(OscillatorMode(lam), 1.0, 0.0, 1)
        s1 = step(p, OscillatorMode(lam), StepConfig(tau=tau), s)
        w1 = oracle_step(p, lam * tau * tau, scale_state(s, tau))
        expected = unscale_state(w1, tau, 1, t=tau)
        assert s1.d == pytest.approx(expected.d, rel=1e-12)

    def test_second_order_tau_halving(self):
        # full period of cos(2*pi*t); velocity error ratio ~ 4 per halving
        lam = 4 * np.pi**2
        p = derive(rho_spec(1.0))
        errs = []
        for n in (64, 128, 256):
            traj = integrate(p, OscillatorMode(lam), StepConfig(tau=1.0 / n), 1.0, 0.0, n)
            errs.append(abs(traj.states[-1].d[1] - 0.0))
        for e_coarse, e_fine in zip(errs, errs[1:]):
            assert 2.5 < e_coarse / e_fine < 6.0


class TestStepHighOrder:
    def test_zero_lambda_exact_polynomial(self):
        p = derive(rho_spec(0.3, 0.8))
        s = init_state(OscillatorMode(0.0), 2.0, 3.0, 2)
        s1 = step(p, OscillatorMode(0.0), StepConfig(tau=0.5), s)
        assert s1.d == (3.5, 3.0, 0.0, 0.0, 0.0, 0.0)

    def test_matches_amplification_oracle_k2(self):
        p = derive(rho_spec(0.5, 0.5))
        lam, tau = 1.0, 0.1
        s = init_state(OscillatorMode(lam), 1.0, 0.0, 2)
        s1 = step(p, OscillatorMode(lam), StepConfig(tau=tau), s)
        w1 = oracle_step(p, lam * tau * tau, scale_state(s, tau))
        expected = unscale_state(w1, tau, 2, t=tau)
        assert s1.d == pytest.approx(expected.d, rel=1e-11)

    @pytest.mark.parametrize("variant", [Variant.FULL_TAYLOR, Variant.AS_PRINTED])
    def test_oracle_equivalence_random_draws(self, variant):
        rng = np.random.default_rng(7)
        for _ in range(100):
            k = int(rng.integers(1, 5))
            rho = tuple(rng.uniform(0.0, 1.0, k))
            p = derive(DissipationSpec(k, rho))
            sigma = 10.0 ** rng.uniform(-6, 4)
            tau = 10.0 ** rng.uniform(-2, 0)
            lam = sigma / tau**2
            d = rng.normal(0.0, 1.0, 3 * k)
            s = unscale_state([tau**j * d[j] for j in range(3 * k)], tau, k)
            cfg = StepConfig(tau=tau, variant=variant)
            got = np.array(step(p, OscillatorMode(lam), cfg, s).d)
            w1 = oracle_step(p, sigma, scale_state(s, tau), variant=variant)
            want = np.array(unscale_state(w1, tau, k).d)
            floor = 1e-14 * max(np.max(np.abs(got)), np.max(np.abs(want)))
            denom = np.maximum(np.maximum(np.abs(got), np.abs(want)), floor)
            assert np.max(np.abs(got - want) / denom) < 1e-11

    def test_fourth_order_convergence(self):
        lam = 4 * np.pi**2
        p = derive(rho_spec(0.5, 0.5))
        errs = []
        for n in (8, 16, 32, 64):
            traj = integrate(p, OscillatorMode(lam), StepConfig(tau=1.0 / n), 1.0, 0.0, n)
            errs.append(abs(traj.states[-1].d[1] - 0.0))
        slope = np.polyfit(np.log([1 / 8, 1 / 16, 1 / 32, 1 / 64]), np.log(errs), 1)[0]
        assert slope == pytest.approx(4.0, abs=0.2)

    def test_unstable_parameters_warn(self):
        p = from_alphas(2, (0.9, 1.0), 0.6)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            integrate(p, OscillatorMode(1.0), StepConfig(tau=0.1), 1.0, 0.0, 50)
        assert len(caught) == 1
        assert issubclass(caught[0].category, UserWarning)
        assert "alpha_1" in str(caught[0].message)

    def test_rejects_mismatched_k(self):
        p = derive(rho_spec(0.5, 0.5))
        s = init_state(OscillatorMode(1.0), 1.0, 0.0, 3)
        with pytest.raises(ValueError):
            step(p, OscillatorMode(1.0), StepConfig(tau=0.1), s)


class TestIntegrate:
    def test_zero_lambda_ramp(self):
        p = derive(rho_spec(0.5))
        traj = integrate(p, OscillatorMode(0.0), StepConfig(tau=1.0), 1.0, 1.0, 3)
        assert [s.d[0] for s in traj.states] == [1.0, 2.0, 3.0, 4.0]

    def test_no_amplitude_growth_at_rho_one(self):
        p = derive(rho_spec(1.0, 1.0))
        traj = integrate(
            p, OscillatorMode(4 * np.pi**2), StepConfig(tau=0.01), 1.0, 0.0, 100
        )
        # discrete amplitude overshoot is O(tau^4); 2.1e-6 at tau = 0.01
        assert max(abs(s.d[0]) for s in traj.states) <= 1.0 + 1e-5

    def test_times_strictly_increasing(self):
        p = derive(rho_spec(0.2))
        traj = integrate(p, OscillatorMode(3.0), StepConfig(tau=0.05), 1.0, 2.0, 17)
        assert len(traj.times) == 18
        assert all(b > a for a, b in zip(traj.times, traj.times[1:]))

    def test_polynomial_exactness_all_orders(self):
        for k in (1, 2, 3):
            for r in (0.0, 0.5, 1.0):
                p = derive(DissipationSpec(k, (r,) * k))
                traj = integrate(p, OscillatorMode(0.0), StepConfig(tau=0.25), 1.5, -2.0, 20)
                for t, s in zip(traj.times, traj.states):
                    assert abs(s.d[0] - (1.5 - 2.0 * t)) <= 1e-13

    def test_determinism(self):
        p = derive(rho_spec(0.3, 0.7))
        args = (p, OscillatorMode(2.5), StepConfig(tau=0.03), 1.0, -0.5, 50)
        t1 = integrate(*args)
        t2 = integrate(*args)
        assert t1 == t2

    def test_negative_lambda_policy(self):
        p = derive(rho_spec(0.5))
        with pytest.raises(ValueError):
            integrate(p, OscillatorMode(-1.0), StepConfig(tau=0.1), 1.0, 0.0, 2)
        cfg = StepConfig(tau=0.1, allow_negative_lambda=True)
        traj = integrate(p, OscillatorMode(-1.0), cfg, 1.0, 0.0, 2)
        assert traj.states[-1].d[0] > 1.0  # growing mode

    def test_rejects_bad_inputs(self):
        p = derive(rho_spec(0.5))
        with pytest.raises(ValueError):
            integrate(p, OscillatorMode(1.0), StepConfig(tau=0.1), 1.0, 0.0, 0)
        with pytest.raises(ValueError):
            StepConfig(tau=0.0)


def test_trajectory_csv_export():
    p = derive(rho_spec(0.5))
    traj = integrate(p, OscillatorMode(0.0), StepConfig(tau=1.0), 1.0, 1.0, 2)
    buf = io.StringIO()
    traj.write_csv(buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "t,d0,d1,d2"
    assert lines[1] == "0.0,1.0,1.0,0.0"
    assert lines[3].startswith("2.0,3.0,")
