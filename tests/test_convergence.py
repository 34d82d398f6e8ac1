import csv
import io
import math

import numpy as np
import pytest

from galpha import (
    DissipationSpec,
    derive,
    exact_solution,
    fit_order,
    run_convergence,
    verify_recurrence,
)

LAM = 4 * math.pi**2  # period-1 oscillator


class TestExactSolution:
    def test_full_period(self):
        u, v = exact_solution(LAM, 1.0, 0.0, 1.0)
        assert u == pytest.approx(1.0, abs=1e-12)
        assert v == pytest.approx(0.0, abs=1e-9)

    def test_quarter_period_swaps_energy(self):
        u, v = exact_solution(1.0, 1.0, 0.0, math.pi / 2)
        assert u == pytest.approx(0.0, abs=1e-12)
        assert v == pytest.approx(-1.0, abs=1e-12)

    def test_zero_lambda_ramp(self):
        assert exact_solution(0.0, 2.0, 3.0, 4.0) == (14.0, 3.0)

    def test_rejects_negative_lambda(self):
        with pytest.raises(ValueError):
            exact_solution(-1.0, 1.0, 0.0, 1.0)


class TestFitOrder:
    def test_recovers_exact_power_law(self):
        taus = [0.1, 0.05, 0.025, 0.0125]
        for p in (1.0, 2.0, 4.0, 6.0):
            errors = [3.7 * t**p for t in taus]
            assert fit_order(taus, errors) == pytest.approx(p, rel=1e-10)

    def test_rejects_degenerate_input(self):
        with pytest.raises(ValueError):
            fit_order([0.1], [1.0])
        with pytest.raises(ValueError):
            fit_order([0.1, 0.05], [1.0, 0.0])


class TestRunConvergence:
    def test_input_validation(self):
        p = derive(DissipationSpec(1, (0.5,)))
        with pytest.raises(ValueError):
            run_convergence(p, LAM, 1.0, 0.0, 1.0, [16, 32])
        with pytest.raises(ValueError):
            run_convergence(p, LAM, 1.0, 0.0, 1.0, [32, 16, 64])

    def test_k1_velocity_order_two(self):
        p = derive(DissipationSpec(1, (0.5,)))
        study = run_convergence(p, LAM, 1.0, 0.0, 1.0, [16, 32, 64, 128])
        assert study.fitted_order_v == pytest.approx(2.0, abs=0.15)
        assert study.discarded == 0

    def test_k2_velocity_order_four(self):
        p = derive(DissipationSpec(2, (0.5, 0.5)))
        study = run_convergence(p, LAM, 1.0, 0.0, 1.0, [8, 16, 32, 64])
        assert study.fitted_order_v == pytest.approx(4.0, abs=0.2)

    def test_roundoff_floor_discards_rows(self):
        p = derive(DissipationSpec(3, (0.5, 0.5, 0.5)))
        study = run_convergence(
            p, LAM, 1.0, 0.0, 1.0, [4, 8, 16, 32, 64, 128, 256, 512]
        )
        assert study.discarded >= 1
        assert math.isfinite(study.fitted_order_u)

    def test_csv_and_summary(self):
        p = derive(DissipationSpec(2, (0.5, 0.5)))
        study = run_convergence(p, LAM, 1.0, 0.0, 1.0, [8, 16, 32])
        buf = io.StringIO()
        study.write_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "k,variant,rho1,rho2,n_steps,tau,error_u,error_v"
        assert len(lines) == 4
        summary = study.summary_dict()
        assert summary["k"] == 2
        assert summary["rho"] == [0.5, 0.5]
        assert summary["variant"] == "full"
        assert summary["discarded"] == 0

    def test_csv_matches_csv_writer(self):
        p = derive(DissipationSpec(2, (0.5, 0.25)))
        study = run_convergence(p, LAM, 1.0, 0.0, 1.0, [8, 16, 32])
        want = io.StringIO()
        w = csv.writer(want)
        w.writerow(["k", "variant", "rho1", "rho2", "n_steps", "tau", "error_u", "error_v"])
        for n, tau, eu, ev in study.rows:
            w.writerow([2, "full", repr(0.5), repr(0.25), n, repr(tau), repr(eu), repr(ev)])
        got = io.StringIO()
        study.write_csv(got)
        assert got.getvalue() == want.getvalue()


class TestVerifyRecurrence:
    def test_residual_small_across_samples(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            k = int(rng.integers(1, 4))
            p = derive(DissipationSpec(k, tuple(rng.uniform(0, 1, k))))
            sigma = 10.0 ** rng.uniform(-6, 4)
            for j in range(k):
                assert verify_recurrence(p, sigma, 3 * j) <= 1e-9

    def test_input_validation(self):
        p = derive(DissipationSpec(1, (0.5,)))
        with pytest.raises(ValueError):
            verify_recurrence(p, 1.0, 3)
