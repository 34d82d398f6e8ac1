"""End-to-end acceptance checks.

Each test covers one numbered claim about the integrator family and
records a single PASS/FAIL line; the lines are echoed in the pytest
terminal summary so a plain run prints one verdict per criterion.

Criterion 1 note: at the pinned configuration (a full period ending at
an extremum of u) the displacement error superconverges for k = 1 and
k = 2 while the velocity error shows the design order, and vice versa
for k = 3.  The criterion therefore accepts the design order 2k on
either end-time observable; both fitted slopes are reported.
"""

import itertools
import math

import numpy as np

from galpha import (
    DissipationSpec,
    ParameterAxis,
    StepConfig,
    SweepConfig,
    SymmetricSystem,
    classify_stability,
    derive,
    eigvals,
    integrate,
    integrate_system,
    jacobi_eig,
    limit_eigs_sigma_zero,
    oracle_step,
    run_convergence,
    scale_state,
    spectral_radius,
    stability_map,
    step,
    unscale_state,
    verify_recurrence,
)

LAM = 4 * math.pi**2

RESULTS: list[str] = []


def _report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {desc}"
    if detail:
        line += f" ({detail})"
    RESULTS.append(line)
    print(line)
    assert ok, line


def test_criterion_01_order_of_accuracy():
    cases = [(1, (16, 32, 64, 128), 0.15), (2, (8, 16, 32, 64), 0.2), (3, (4, 8, 16, 32), 0.3)]
    details, ok = [], True
    for k, steps, tol in cases:
        p = derive(DissipationSpec(k, (0.5,) * k))
        study = run_convergence(p, LAM, 1.0, 0.0, 1.0, steps)
        target = 2.0 * k
        hit = (
            abs(study.fitted_order_u - target) <= tol
            or abs(study.fitted_order_v - target) <= tol
        )
        ok = ok and hit
        details.append(
            f"k={k}: u={study.fitted_order_u:.2f} v={study.fitted_order_v:.2f}"
        )
    _report(1, "end-time error order is 2k", ok, "; ".join(details))


def test_criterion_02_sigma_zero_limit():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        p = derive(DissipationSpec(2, tuple(rng.uniform(0.0, 1.0, 2))))
        got = np.sort(np.abs(eigvals(p, 1e-12)), axis=None)
        want = np.sort(np.abs(limit_eigs_sigma_zero(p)))
        worst = max(worst, float(np.max(np.abs(got - want))))
    _report(
        2,
        "sigma->0 spectrum is {1,1,(a1-1)/a1,1,1,(a2-1)/a2} to 1e-6",
        worst <= 1e-6,
        f"max deviation {worst:.2e}",
    )


def test_criterion_03_sigma_inf_limit():
    p = derive(DissipationSpec(2, (0.1, 0.4)))
    es = eigvals(p, 1e10)
    got = np.sort(np.abs(es), axis=None)
    want = np.sort(np.abs([0.1, 0.1, 0.0, 0.4, 0.4, 0.4]))
    dev = float(np.max(np.abs(got - want)))
    max_im = float(np.max(np.abs(es.imag)))
    p0 = derive(DissipationSpec(2, (0.0, 0.0)))
    annihilation = float(np.max(np.abs(eigvals(p0, 1e8))))
    ok = dev <= 1e-4 and max_im <= 1e-6 and annihilation <= 1e-2
    _report(
        3,
        "sigma->inf magnitudes match rho targets, spectrum real",
        ok,
        f"dev {dev:.2e}, max|Im| {max_im:.2e}, rho=0 radius {annihilation:.2e}",
    )


def test_criterion_04_unconditional_stability_rho_grids():
    grid = [0.0, 0.25, 0.5, 0.75, 1.0]
    worst, ok = 0.0, True
    for k in (2, 3):
        for rho in itertools.product(grid, repeat=k):
            p = derive(DissipationSpec(k, rho))
            stable, max_r, _ = classify_stability(p)
            worst = max(worst, max_r)
            ok = ok and stable
    _report(
        4,
        "spectral radius <= 1 + 1e-9 on full rho grids (k=2, k=3)",
        ok and worst <= 1.0 + 1e-9,
        f"max radius {worst:.12f}",
    )


def test_criterion_05_stability_region_map():
    sweep = SweepConfig(n_points=20)
    bad = 0
    smap = stability_map(
        2,
        {"alpha1": 2.0},
        ParameterAxis("alpha_f", 0.0, 2.0, 41),
        ParameterAxis("alpha2", 0.0, 2.0, 41),
        sweep,
    )
    for pt in smap.points:  # x = alpha_f, y = alpha_2
        if 0.5 <= pt.x <= pt.y and not pt.stable:
            bad += 1
    smap2 = stability_map(
        2,
        {"alpha2": 2.0},
        ParameterAxis("alpha1", 0.0, 2.0, 41),
        ParameterAxis("alpha_f", 0.0, 2.0, 41),
        sweep,
    )
    for pt in smap2.points:  # x = alpha_1, y = alpha_f
        if pt.x >= 1.0 and 0.5 <= pt.y <= 2.0 and not pt.stable:
            bad += 1
    _report(
        5,
        "condition region 1/2 <= alpha_f <= alpha_2, alpha_1 >= 1 classified stable",
        bad == 0,
        f"{bad} misclassified points on two 41x41 maps",
    )


def test_criterion_06_oracle_equivalence():
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(1000):
        k = int(rng.integers(1, 4))
        p = derive(DissipationSpec(k, tuple(rng.uniform(0.0, 1.0, k))))
        sigma = 10.0 ** rng.uniform(-6, 4)
        tau = 10.0 ** rng.uniform(-2, 0)
        lam = sigma / tau**2
        w = rng.normal(size=3 * k)
        s = unscale_state(w, tau, k)
        got = np.array(step(p, lam, StepConfig(tau=tau), s).d)
        want = np.array(unscale_state(oracle_step(p, sigma, scale_state(s, tau)), tau, k).d)
        floor = 1e-14 * max(np.max(np.abs(got)), np.max(np.abs(want)), 1e-300)
        denom = np.maximum(np.maximum(np.abs(got), np.abs(want)), floor)
        worst = max(worst, float(np.max(np.abs(got - want) / denom)))
    _report(
        6,
        "production stepper equals matrix oracle to 1e-11 relative",
        worst <= 1e-11,
        f"worst relative deviation {worst:.2e} over 1000 steps",
    )


def test_criterion_07_recurrence_identity():
    rng = np.random.default_rng(707)
    worst = 0.0
    for _ in range(50):
        k = int(rng.integers(1, 4))
        p = derive(DissipationSpec(k, tuple(rng.uniform(0.0, 1.0, k))))
        sigma = 10.0 ** rng.uniform(-6, 4)
        for j in range(k):
            worst = max(worst, verify_recurrence(p, sigma, 3 * j))
    _report(
        7,
        "4-term block recurrence residual <= 1e-9",
        worst <= 1e-9,
        f"worst residual {worst:.2e} over 50 samples, all blocks",
    )


def test_criterion_08_zero_dissipation_limit():
    p1 = derive(DissipationSpec(1, (1.0,)))
    dev = float(np.max(np.abs(spectral_radius(p1, SweepConfig().grid()) - 1.0)))
    p2 = derive(DissipationSpec(2, (1.0, 1.0)))
    traj = integrate(p2, LAM, StepConfig(tau=0.01), 1.0, 0.0, 100)
    peak = max(abs(s.d[0]) for s in traj.states)
    ok = dev <= 1e-10 and peak <= 1.0 + 1e-6
    _report(
        8,
        "rho = 1 preserves amplitude (radius 1, |U| bounded)",
        ok,
        f"radius deviation {dev:.2e}, max |U| {peak:.8f}",
    )


def test_criterion_09_polynomial_exactness():
    grid = [0.0, 0.25, 0.5, 0.75, 1.0]
    worst = 0.0
    u0, v0 = 1.5, -2.0
    for k in (1, 2, 3):
        for rho in itertools.product(grid, repeat=k):
            p = derive(DissipationSpec(k, rho))
            traj = integrate(p, 0.0, StepConfig(tau=0.25), u0, v0, 20)
            for t, s in zip(traj.times, traj.states):
                worst = max(worst, abs(s.d[0] - (u0 + v0 * t)))
    _report(
        9,
        "lambda = 0 trajectories reproduce u0 + v0*t to 1e-13",
        worst <= 1e-13,
        f"max deviation {worst:.2e}",
    )


def test_criterion_10_modal_systems():
    rng = np.random.default_rng(1010)
    worst = 0.0
    for _ in range(10):
        M = rng.normal(size=(6, 6))
        K = M + M.T
        dec = jacobi_eig(K)
        res = np.max(np.abs(K @ dec.Q - dec.Q * dec.lambdas)) / np.linalg.norm(K)
        worst = max(worst, float(res))

    K2 = np.array([[2.0, -1.0], [-1.0, 2.0]])
    lam, Q = np.linalg.eigh(K2)
    u0 = np.array([1.0, 0.0])
    exact = Q @ (np.cos(np.sqrt(lam) * 2.0) * (Q.T @ u0))
    p = derive(DissipationSpec(2, (0.5, 0.5)))
    sys_ = SymmetricSystem(K=K2, u0=u0, v0=[0.0, 0.0])
    errs = []
    for n in (16, 32, 64):
        traj = integrate_system(sys_, p, StepConfig(tau=2.0 / n), n)
        errs.append(float(np.max(np.abs(traj.displacements[-1] - exact))))
    ratios = [a / b for a, b in zip(errs, errs[1:])]
    ok = worst <= 1e-10 and all(12.0 <= r <= 20.0 for r in ratios)
    _report(
        10,
        "Jacobi residual <= 1e-10; 2-dof error ratio 16 +- 25% per tau halving",
        ok,
        f"residual {worst:.2e}, ratios {', '.join(f'{r:.1f}' for r in ratios)}",
    )
