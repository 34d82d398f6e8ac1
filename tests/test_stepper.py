import csv
import io
import warnings
from math import factorial

import numpy as np
import pytest

from galpha import (
    DissipationSpec,
    ModalState,
    SingularStepError,
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
import galpha.stepper
from galpha.stepper import Trajectory, _csv_rows, _plan, _tops


def rho_spec(*rho):
    return DissipationSpec(len(rho), rho)


class TestInitState:
    def test_k2_pattern(self):
        s = init_state(4.0, 1.0, 2.0, 2)
        assert s.d == (1.0, 2.0, -4.0, -8.0, 16.0, 32.0)
        assert s.t == 0.0

    def test_zero_lambda(self):
        s = init_state(0.0, 3.0, 5.0, 2)
        assert s.d == (3.0, 5.0, 0.0, 0.0, 0.0, 0.0)

    def test_matches_repeated_differentiation_oracle(self):
        # u^(j+2) = -lambda * u^(j), applied entry by entry
        lam, u0, v0, k = 1.0, 1.0, 0.0, 3
        d = [u0, v0]
        for j in range(3 * k - 2):
            d.append(-lam * d[j])
        s = init_state(lam, u0, v0, k)
        assert s.d == tuple(d)
        assert s.d == (1, 0, -1, 0, 1, 0, -1, 0, 1)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            init_state(1.0, 1.0, 0.0, 0)


class TestStepK1:
    def test_zero_lambda_linear_advance(self):
        p = derive(rho_spec(0.5))
        s = init_state(0.0, 2.0, 3.0, 1)
        s1 = step(p, 0.0, StepConfig(tau=0.5), s)
        assert s1.d == (3.5, 3.0, 0.0)
        assert s1.t == 0.5

    def test_matches_amplification_oracle(self):
        p = derive(rho_spec(0.5))
        lam, tau = 1.0, 0.1
        s = init_state(lam, 1.0, 0.0, 1)
        s1 = step(p, lam, StepConfig(tau=tau), s)
        w1 = oracle_step(p, lam * tau * tau, scale_state(s, tau))
        expected = unscale_state(w1, tau, 1)
        assert s1.d == pytest.approx(expected.d, rel=1e-12)

    def test_second_order_tau_halving(self):
        # full period of cos(2*pi*t); velocity error ratio ~ 4 per halving
        lam = 4 * np.pi**2
        p = derive(rho_spec(1.0))
        errs = []
        for n in (64, 128, 256):
            traj = integrate(p, lam, StepConfig(tau=1.0 / n), 1.0, 0.0, n)
            errs.append(abs(traj.states[-1].d[1] - 0.0))
        for e_coarse, e_fine in zip(errs, errs[1:]):
            assert 2.5 < e_coarse / e_fine < 6.0


class TestStepHighOrder:
    def test_zero_lambda_exact_polynomial(self):
        p = derive(rho_spec(0.3, 0.8))
        s = init_state(0.0, 2.0, 3.0, 2)
        s1 = step(p, 0.0, StepConfig(tau=0.5), s)
        assert s1.d == (3.5, 3.0, 0.0, 0.0, 0.0, 0.0)

    def test_matches_amplification_oracle_k2(self):
        p = derive(rho_spec(0.5, 0.5))
        lam, tau = 1.0, 0.1
        s = init_state(lam, 1.0, 0.0, 2)
        s1 = step(p, lam, StepConfig(tau=tau), s)
        w1 = oracle_step(p, lam * tau * tau, scale_state(s, tau))
        expected = unscale_state(w1, tau, 2)
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
            got = np.array(step(p, lam, cfg, s).d)
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
            traj = integrate(p, lam, StepConfig(tau=1.0 / n), 1.0, 0.0, n)
            errs.append(abs(traj.states[-1].d[1] - 0.0))
        slope = np.polyfit(np.log([1 / 8, 1 / 16, 1 / 32, 1 / 64]), np.log(errs), 1)[0]
        assert slope == pytest.approx(4.0, abs=0.2)

    def test_unstable_parameters_warn(self):
        p = from_alphas(2, (0.9, 1.0), 0.6)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            integrate(p, 1.0, StepConfig(tau=0.1), 1.0, 0.0, 50)
        assert len(caught) == 1
        assert issubclass(caught[0].category, UserWarning)
        assert "alpha_1" in str(caught[0].message)

    def test_rejects_mismatched_k(self):
        p = derive(rho_spec(0.5, 0.5))
        s = init_state(1.0, 1.0, 0.0, 3)
        with pytest.raises(ValueError):
            step(p, 1.0, StepConfig(tau=0.1), s)


class TestIntegrate:
    def test_zero_lambda_ramp(self):
        p = derive(rho_spec(0.5))
        traj = integrate(p, 0.0, StepConfig(tau=1.0), 1.0, 1.0, 3)
        assert [s.d[0] for s in traj.states] == [1.0, 2.0, 3.0, 4.0]

    def test_no_amplitude_growth_at_rho_one(self):
        p = derive(rho_spec(1.0, 1.0))
        traj = integrate(
            p, 4 * np.pi**2, StepConfig(tau=0.01), 1.0, 0.0, 100
        )
        # discrete amplitude overshoot is O(tau^4); 2.1e-6 at tau = 0.01
        assert max(abs(s.d[0]) for s in traj.states) <= 1.0 + 1e-5

    def test_times_strictly_increasing(self):
        p = derive(rho_spec(0.2))
        traj = integrate(p, 3.0, StepConfig(tau=0.05), 1.0, 2.0, 17)
        assert len(traj.times) == 18
        assert all(b > a for a, b in zip(traj.times, traj.times[1:]))

    def test_polynomial_exactness_all_orders(self):
        for k in (1, 2, 3):
            for r in (0.0, 0.5, 1.0):
                p = derive(DissipationSpec(k, (r,) * k))
                traj = integrate(p, 0.0, StepConfig(tau=0.25), 1.5, -2.0, 20)
                for t, s in zip(traj.times, traj.states):
                    assert abs(s.d[0] - (1.5 - 2.0 * t)) <= 1e-13

    def test_determinism(self):
        p = derive(rho_spec(0.3, 0.7))
        args = (p, 2.5, StepConfig(tau=0.03), 1.0, -0.5, 50)
        t1 = integrate(*args)
        t2 = integrate(*args)
        assert t1 == t2

    def test_negative_lambda_policy(self):
        p = derive(rho_spec(0.5))
        with pytest.raises(ValueError, match="lambda = -1.0 < 0"):
            integrate(p, -1.0, StepConfig(tau=0.1), 1.0, 0.0, 2)

    @pytest.mark.parametrize("alpha, lam, tau, what", [
        ((1.5,), 1e200, 1e60, "block 1 divisor"),  # lambda*tau^2 overflows
        ((1.5,), 0.0, 1e200, "power of tau"),  # tau^2 overflows Python's float **
        ((2.0, 2.0, 1.5), 1.0, 1e60, "power of tau"),  # tau^8 does
        ((2.0, 1.5), 1e300, 1.0, "(-lambda)^2"),  # the initial state's lambda^2 does
        ((2e154,), 0.0, 1e154, "block 1 coefficient"),  # gamma*tau does
    ])
    def test_overflowing_coefficients_name_lambda(self, alpha, lam, tau, what):
        p = from_alphas(len(alpha), alpha, 0.6)
        with pytest.raises(OverflowError) as exc:
            integrate(p, lam, StepConfig(tau=tau), 1.0, 0.0, 3)
        assert what in str(exc.value) and f"at lambda = {lam!r}" in str(exc.value)

    def test_rejects_bad_inputs(self):
        p = derive(rho_spec(0.5))
        with pytest.raises(ValueError):
            integrate(p, 1.0, StepConfig(tau=0.1), 1.0, 0.0, 0)
        with pytest.raises(ValueError):
            StepConfig(tau=0.0)
        with pytest.raises(ValueError):
            StepConfig(tau=0.1, variant="bogus")

    def test_variant_given_by_value(self):
        # a plain "full" once ran the AS_PRINTED layout by failing an identity test
        assert StepConfig(tau=0.1, variant="full").variant is Variant.FULL_TAYLOR
        p = derive(rho_spec(0.5, 0.5))
        by_value = integrate(p, 3.0, StepConfig(tau=0.1, variant="full"), 1.0, 0.0, 10)
        by_member = integrate(p, 3.0, StepConfig(tau=0.1), 1.0, 0.0, 10)
        assert by_value == by_member

    def test_builds_no_state_per_step(self, monkeypatch):
        built = []
        post_init = ModalState.__post_init__
        monkeypatch.setattr(ModalState, "__post_init__", lambda s: built.append(post_init(s)))
        p = derive(rho_spec(0.5, 0.5))
        traj = integrate(p, 3.0, StepConfig(tau=0.1), 1.0, 0.0, 100)
        assert len(traj.rows) == 101
        assert len(built) == 1  # the initial state only

    def test_numpy_scalar_inputs_write_the_same_csv(self):
        # a numpy 2 scalar once reached the t column as "np.float64(0.2)"
        p = derive(rho_spec(0.5, 0.5))

        def csv_text(lam, tau, u0, v0):
            buf = io.StringIO()
            integrate(p, lam, StepConfig(tau=tau), u0, v0, 20).write_csv(buf)
            return buf.getvalue()

        want = csv_text(3.0, 0.1, 1.0, 0.5)
        assert "np" not in want
        assert csv_text(np.float64(3.0), np.float64(0.1), np.float64(1.0), np.float64(0.5)) == want


class TestTrajectory:
    def test_round_trip_through_times_and_states(self):
        p = derive(rho_spec(0.3, 0.7))
        traj = integrate(p, 2.5, StepConfig(tau=0.03), 1.0, -0.5, 50)
        again = Trajectory(times=traj.times, states=traj.states)
        assert again == traj
        want, got = io.StringIO(), io.StringIO()
        traj.write_csv(want)
        again.write_csv(got)
        assert got.getvalue() == want.getvalue()

    def test_states_are_views_of_the_rows(self):
        p = derive(rho_spec(0.5))
        traj = integrate(p, 0.0, StepConfig(tau=0.5), 2.0, 3.0, 2)
        assert traj.rows == [[0.0, 2.0, 3.0, 0.0], [0.5, 3.5, 3.0, 0.0], [1.0, 5.0, 3.0, 0.0]]
        assert traj.times == (0.0, 0.5, 1.0)
        assert traj.states[1] == ModalState(k=1, t=0.5, d=(3.5, 3.0, 0.0))

    @pytest.mark.parametrize("times, ks", [
        ((0.0, 1.0), (1,)), ((0.0, 0.0), (1, 1)), ((), ()), ((0.0, 1.0), (1, 2)),
    ])
    def test_rejects_inconsistent_input(self, times, ks):
        states = tuple(ModalState(k=k, t=0.0, d=(0.0,) * (3 * k)) for k in ks)
        with pytest.raises(ValueError):
            Trajectory(times=times, states=states)


def test_trajectory_csv_export():
    p = derive(rho_spec(0.5))
    traj = integrate(p, 0.0, StepConfig(tau=1.0), 1.0, 1.0, 2)
    buf = io.StringIO()
    traj.write_csv(buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "t,d0,d1,d2"
    assert lines[1] == "0.0,1.0,1.0,0.0"
    assert lines[3].startswith("2.0,3.0,")


def test_trajectory_csv_matches_csv_writer():
    values = [-0.0, 5e-324, -5e-324, 1e300, -1e-300, 1.7976931348623157e308, 0.1, -2.5, 3e-7]
    states = tuple(ModalState(k=1, t=0.5 * i, d=values[i:i + 3]) for i in range(7))
    traj = Trajectory(times=tuple(s.t for s in states), states=states)
    want = io.StringIO()
    w = csv.writer(want)
    w.writerow(["t", "d0", "d1", "d2"])
    for s in states:
        w.writerow([repr(s.t)] + [repr(x) for x in s.d])
    got = io.StringIO()
    traj.write_csv(got)
    assert got.getvalue() == want.getvalue()


def test_csv_rows_write_text_cells_as_they_are():
    rows = [["x_name", "x", "stable"], ["alpha1", -0.0, 1], ["alpha_f", 1e-300, 0], ["full", 0.1, 7]]
    want = io.StringIO()
    w = csv.writer(want)
    for row in rows:
        w.writerow([repr(c) if isinstance(c, float) else c for c in row])
    assert _csv_rows(rows, str) == want.getvalue()


class TestArrayPlan:
    """A plan over an array of lambdas, as the modal front end builds."""

    def test_singular_divisor_names_the_lambda(self):
        p = from_alphas(1, (-0.5,), 0.6)
        tau = 0.1
        lam = 0.5 / (tau * tau * 0.6 * p.beta[0])  # alpha + lambda*tau^2*c*beta = 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # these alphas also fail the stability conditions
            with pytest.raises(SingularStepError, match=f"at lambda = {lam!r}"):
                _plan(p, np.array([1.0, lam, 3.0]), StepConfig(tau=tau))

    def test_negative_lambda_rejected(self):
        p = derive(rho_spec(0.5))
        with pytest.raises(ValueError, match="lambda = -2.0 < 0"):
            _plan(p, np.array([1.0, -2.0, -3.0]), StepConfig(tau=0.1))

    def test_overflowing_divisor_names_the_mode(self):
        # lambda*tau^2 overflows for the second mode only, without a numpy warning
        p = derive(rho_spec(0.5, 0.5))
        with pytest.raises(OverflowError, match=r"block 1 divisor .* at lambda = 1e\+300, tau = 1e\+60"):
            _plan(p, np.array([1.0, 1e300, 1e305]), StepConfig(tau=1e60))


def _reference_advance(p, lam, cfg, d):
    """One step as a plain loop over the blocks, with its own coefficient
    table built from ``_tops``, p, lambda and tau by the plan's float
    expressions in the plan's order, and each Taylor sum accumulated left
    to right from the int 0 (``sum`` itself compensates from Python 3.12
    on)."""
    k, tau = p.k, cfg.tau
    coef = [tau**m / factorial(m) for m in range(3 * k)]

    def taylor(i, end):
        acc = 0
        for e in range(end, i, -1):
            acc = acc + d[e] * coef[e - i]
        return acc

    new = [None] * len(d)
    for j, (top_uv, top_a, top_res) in enumerate(_tops(k, cfg.variant)):
        b = 3 * j
        c = p.alpha_f if j == k - 1 else 1.0
        div = p.alpha[j] + lam * tau * tau * c * p.beta[j]
        pred_u = d[b] + taylor(b, top_uv)
        res_a = d[b + 2] + taylor(b + 2, top_res)
        r = (-lam * (d[b] + c * (pred_u - d[b])) - res_a) / div
        new[b] = pred_u + p.beta[j] * tau * tau * r
        new[b + 1] = d[b + 1] + taylor(b + 1, top_uv) + p.gamma[j] * tau * r
        new[b + 2] = d[b + 2] + taylor(b + 2, top_a) + r
    return new


def _assert_same_bits(got, want):
    got, want = np.array(got, dtype=float), np.array(want, dtype=float)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


class TestGeneratedStep:
    LAMS = np.array([0.0, 1.0, 37.5, 4e4])

    def states(self, k, rng):
        """Columns of 3k entries: signed zeros, and random values with
        some entries replaced by +-0.0."""
        n, m = 3 * k, self.LAMS.size
        zeros = np.where(np.arange(n * m).reshape(n, m) % 3 == 0, -0.0, 0.0)
        mixed = rng.normal(size=(n, m))
        mixed[rng.random((n, m)) < 0.3] = 0.0
        mixed[rng.random((n, m)) < 0.3] = -0.0
        return [np.full((n, m), -0.0), zeros, mixed]

    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matches_reference_loop_bit_for_bit(self, k, variant):
        rng = np.random.default_rng(k)
        p = derive(DissipationSpec(k, tuple(rng.uniform(0.0, 1.0, k))))
        cfg = StepConfig(tau=0.07, variant=variant)
        array_plan = _plan(p, self.LAMS, cfg)
        scalar_plans = [_plan(p, lam, cfg) for lam in self.LAMS.tolist()]
        for D in self.states(k, rng):
            d = list(D)
            _assert_same_bits(array_plan(d), _reference_advance(p, self.LAMS, cfg, d))
            for m, (lam, plan) in enumerate(zip(self.LAMS.tolist(), scalar_plans)):
                d = tuple(D[:, m].tolist())
                _assert_same_bits(plan(d), _reference_advance(p, lam, cfg, d))

    def test_one_code_object_per_structure(self):
        p = derive(rho_spec(0.5, 0.5))
        a = _plan(p, 3.0, StepConfig(tau=0.1))
        b = _plan(p, np.array([1.0, 2.0]), StepConfig(tau=0.25))
        c = _plan(p, 3.0, StepConfig(tau=0.1, variant=Variant.AS_PRINTED))
        assert a.__code__ is b.__code__
        assert a.__code__ is not c.__code__
        assert a.__globals__["q0"] != b.__globals__["q0"][0]

    def test_source_holds_no_numbers_but_the_sums_int_zero(self):
        src = galpha.stepper._advance_source(3, Variant.AS_PRINTED)
        assert "." not in src
        assert {tok for tok in src.replace("(", " ").replace(")", " ").split() if tok.isdigit()} == {"0"}
