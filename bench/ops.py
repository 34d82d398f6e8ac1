"""Running one op through galpha's public entry points, and checking its
output against the independent oracle in ``galpha.amplification``.

``run_op`` is the timed part: one in-process ``galpha.cli.run`` call, or
one modal run (``load_system``, ``integrate_system``,
``SystemTrajectory.write_csv``).  ``check_op`` runs after the timer has
stopped and returns ``None`` when the output is right, or a one-line
reason when it is not.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from pathlib import Path

import numpy as np

from galpha import amplification, cli, modal, params, spectral, stepper

# Relative tolerance of criterion 6: one production step equals one
# oracle step.
STEP_RTOL = 1e-11
# Strongly damped runs decay into the subnormal range, where a double
# keeps only a few significant digits.  Deviations are measured against
# at least the smallest magnitude at which STEP_RTOL is representable.
SUBNORMAL_FLOOR = np.finfo(float).tiny / STEP_RTOL
# Spectral radii from the block path against dense eigenvalues of the
# full G, relative to max(1, radius).  Recorded on the seed code over
# the first 60 ops of analysis seeds 1 to 62 (147 000 map points) and 1
# to 22 (370 000 spectrum sigmas): map points (max radius over the
# sweep) agreed to 8.6e-9, the worst at unstable points of radius 1e3 to
# 1e5; spectrum sigmas below CLUSTER_SIGMA agreed to 4.9e-12, while from
# sigma ~ 1e6 up the block path collapses a clustered triple and the
# gap reaches 4.7e-3.
MAP_RADIUS_TOL = 1e-7
SPECTRUM_RADIUS_TOL = 1e-9
CLUSTER_SIGMA = 1e5
CLUSTER_RADIUS_TOL = 1e-2
# sigma -> 0 limits against dense eigenvalues of G(0): worst 1.1e-16 on
# the seed code.  sigma -> inf limits against G(1e12): worst 1.6e-4.
LIMIT_ZERO_TOL = 1e-9
LIMIT_INF_TOL = 1e-3
LIMIT_INF_SIGMA = 1e12
# Criterion 1: the fitted order of u or v is within this band of 2k.
ORDER_BAND = {1: 0.15, 2: 0.2, 3: 0.3}
# Criterion 10: max |K Q - Q diag(lambda)| / ||K||_F.
JACOBI_RESIDUAL_TOL = 1e-10
# Modal rows against the oracle, relative to the row's largest entry.
# Worst on the seed code over 80 modal ops: 1.1e-14.
MODAL_RTOL = 1e-10
# Trajectory rows checked against the oracle per simulate op.
SAMPLED_ROWS = 16
# Points per stability map, and sigmas per spectrum, whose radii are
# recomputed densely.
SAMPLED_POINTS = 3


class Output:
    """What one op left behind: exit code, captured text, artifacts in
    ``out``."""

    def __init__(self, code: int, out: Path, text: str = ""):
        self.code = code
        self.out = out
        self.text = text

    def file(self, suffix: str) -> Path:
        matches = [self.out / f for f in os.listdir(self.out) if f.endswith(suffix)]
        if len(matches) != 1:
            raise ValueError(f"expected one *{suffix} artifact, found {len(matches)}")
        return matches[0]


def system_path(work: Path, index: int) -> Path:
    return work / "systems" / f"op{index}.json"


def write_inputs(ops: list[dict], work: Path) -> None:
    """Write the JSON files that modal ops load; done before timing."""
    (work / "systems").mkdir(parents=True, exist_ok=True)
    for i, op in enumerate(ops):
        if op["kind"] == "modal":
            system_path(work, i).write_text(json.dumps(op["system"]))


def run_op(op: dict, index: int, work: Path, out: Path) -> Output:
    """Execute one op; the caller times this call."""
    if op["kind"] == "modal":
        a = op["args"]
        sys_ = modal.load_system(system_path(work, index))
        traj = modal.integrate_system(sys_, _scheme(a), stepper.StepConfig(tau=a["tau"]), a["steps"])
        path = out / "modal.csv"
        with open(path, "w", newline="") as fh:
            traj.write_csv(fh)
        return Output(0, out)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = cli.run(op["argv"] + [f"--out={out}"])
    return Output(code, out, buf.getvalue())


def clear(out: Path) -> int:
    """Delete an op's artifacts; returns the bytes they held."""
    total = 0
    for entry in os.scandir(out):
        total += entry.stat().st_size
        os.unlink(entry.path)
    return total


@contextlib.contextmanager
def capture_decompositions(sink: list):
    """Keep every ModalDecomposition that integrate_system computes, so
    the Jacobi residual can be checked without solving again."""
    original = modal.jacobi_eig

    def capture(K, *args, **kwargs):
        dec = original(K, *args, **kwargs)
        sink.append((np.array(K, dtype=float), dec))
        return dec

    modal.jacobi_eig = capture
    try:
        yield
    finally:
        modal.jacobi_eig = original


def check_op(op: dict, index: int, output: Output, decompositions: list) -> str | None:
    if output.code != 0:
        return f"exit code {output.code}: {output.text.strip()[-200:]}"
    return CHECKS[op["kind"]](op, output, random.Random(index), decompositions)


def _scheme(a: dict):
    return params.derive(params.DissipationSpec(a["k"], tuple(a["rho"])))


def _rows(path: Path) -> list[str]:
    return path.read_text().splitlines()


def _floats(line: str) -> np.ndarray:
    return np.array([float(x) for x in line.split(",")])


def _dense_radius(p, sigma: float) -> float:
    G = amplification.amplification_matrix(p, sigma).G
    return float(np.max(np.abs(np.linalg.eigvals(G))))


def _step_mismatch(got: np.ndarray, want: np.ndarray) -> float:
    """Criterion 6's elementwise relative deviation."""
    floor = max(1e-14 * max(np.max(np.abs(got)), np.max(np.abs(want))), SUBNORMAL_FLOOR)
    denom = np.maximum(np.maximum(np.abs(got), np.abs(want)), floor)
    return float(np.max(np.abs(got - want) / denom))


def _check_simulate(op, output, rng, _):
    a = op["args"]
    lines = _rows(output.file(".csv"))
    k, tau, n = a["k"], a["tau"], a["steps"]
    if len(lines) != n + 2 or lines[0].count(",") != 3 * k:
        return f"trajectory has {len(lines) - 1} rows of {lines[0]!r}, expected {n + 1}"
    for i, line in enumerate(lines[1:]):
        if float(line.split(",", 1)[0]) != i * tau:
            return f"row {i} has t != {i} * tau"
    p = _scheme(a)
    sigma = a["lambda"] * tau * tau
    variant = stepper.Variant(a["variant"])
    rows = sorted(rng.sample(range(n - 1), SAMPLED_ROWS - 1)) + [n - 1]
    for i in rows:
        now, nxt = _floats(lines[i + 1])[1:], _floats(lines[i + 2])[1:]
        scale = tau ** np.arange(3 * k)
        want = amplification.oracle_step(p, sigma, now * scale, variant) / scale
        dev = _step_mismatch(nxt, want)
        if not dev <= STEP_RTOL:
            return f"row {i + 1} deviates from oracle_step(row {i}) by {dev:.2e}"
    return None


def _check_converge(op, output, rng, _):
    a = op["args"]
    summary = json.loads(output.file(".json").read_text())
    rows = _rows(output.file(".csv"))
    if len(rows) != len(a["steps"]) + 1:
        return f"convergence table has {len(rows) - 1} rows"
    k = a["k"]
    orders = (summary["fitted_order_u"], summary["fitted_order_v"])
    if not any(abs(o - 2 * k) <= ORDER_BAND[k] for o in orders):
        return f"fitted orders {orders} outside 2k +- {ORDER_BAND[k]}"
    return None


def _check_spectrum(op, output, rng, _):
    a = op["args"]
    lines = _rows(output.file(".csv"))
    per_sigma = 3 * a["k"]
    if len(lines) != a["points"] * per_sigma + 1:
        return f"spectrum has {len(lines) - 1} rows"
    p = _scheme(a)
    for si in rng.sample(range(a["points"]), SAMPLED_POINTS):
        block = [_floats(line) for line in lines[1 + si * per_sigma : 1 + (si + 1) * per_sigma]]
        sigma = block[0][0]
        got = max(row[5] for row in block)
        want = _dense_radius(p, sigma)
        tol = SPECTRUM_RADIUS_TOL if sigma < CLUSTER_SIGMA else CLUSTER_RADIUS_TOL
        if not abs(got - want) <= tol * max(1.0, want):
            return f"radius {got!r} at sigma {sigma!r}, dense eigvals give {want!r}"
    return None


def _map_point(a, x: float, y: float):
    vals = dict(a["fix"])
    vals[a["vary"][0]["name"]] = x
    vals[a["vary"][1]["name"]] = y
    k = a["k"]
    return params.from_alphas(k, [vals[f"alpha{i + 1}"] for i in range(k)], vals["alpha_f"])


def _check_stability_map(op, output, rng, _):
    a = op["args"]
    lines = _rows(output.file(".csv"))
    n = a["vary"][0]["n"] * a["vary"][1]["n"]
    if len(lines) != n + 1:
        return f"map has {len(lines) - 1} points, expected {n}"
    points = [line.split(",") for line in lines[1:]]
    for cells in points:
        x, y, radius, stable = float(cells[1]), float(cells[3]), float(cells[4]), cells[5]
        if params.check_stability_conditions(_map_point(a, x, y)).passed and stable != "1":
            return f"point ({x!r}, {y!r}) meets the stability conditions but is classified {stable}"
    grid = spectral.SweepConfig(n_points=a["sigma_points"]).grid()
    for cells in rng.sample(points, SAMPLED_POINTS):
        x, y, got = float(cells[1]), float(cells[3]), float(cells[4])
        p = _map_point(a, x, y)
        try:
            want = max(_dense_radius(p, float(s)) for s in grid)
        except (ArithmeticError, np.linalg.LinAlgError):
            want = math.inf
        if math.isinf(want) or math.isinf(got):
            ok = got == want
        else:
            ok = abs(got - want) <= MAP_RADIUS_TOL * max(1.0, want)
        if not ok:
            return f"map radius {got!r} at ({x!r}, {y!r}), dense eigvals give {want!r}"
    return None


def _check_params(op, output, rng, _):
    a = op["args"]
    got = json.loads(output.file(".json").read_text())
    rho = a["rho"]
    # Closed forms of the paper, written out independently of galpha.params.
    alpha_f = 1.0 / (1.0 + rho[-1])
    alpha = [2.0 / (1.0 + r) for r in rho[:-1]] + [(2.0 - rho[-1]) / (1.0 + rho[-1])]
    gamma = [x - 0.5 for x in alpha[:-1]] + [0.5 - alpha_f + alpha[-1]]
    beta = [(1.0 + 4.0 * g + 4.0 * g * g) / 16.0 for g in gamma]
    want = {"k": a["k"], "rho": rho, "alpha": alpha, "alpha_f": alpha_f, "beta": beta, "gamma": gamma}
    for name, value in want.items():
        have = got[name]
        if np.shape(have) != np.shape(value) or not np.allclose(have, value, rtol=1e-14, atol=0):
            return f"{name} = {have}, closed form gives {value}"
    return None


def _check_limits(op, output, rng, _):
    a = op["args"]
    got = json.loads(output.file(".json").read_text())
    p = _scheme(a)
    for key, sigma, tol in (("sigma_zero", 0.0, LIMIT_ZERO_TOL), ("sigma_inf", LIMIT_INF_SIGMA, LIMIT_INF_TOL)):
        dense = np.sort(np.abs(np.linalg.eigvals(amplification.amplification_matrix(p, sigma).G)))
        dev = float(np.max(np.abs(np.sort(np.abs(got[key])) - dense)))
        if not dev <= tol:
            return f"{key} magnitudes deviate from dense eigenvalues by {dev:.2e}"
    return None


def _modal_oracle(a: dict, system: dict, dec) -> tuple[np.ndarray, np.ndarray]:
    """Final (u, v) from powers of each mode's amplification matrix,
    starting at the exact initial derivatives of the modal coordinates."""
    p, tau, k = _scheme(a), a["tau"], a["k"]
    lam = dec.lambdas
    y0, w0 = dec.Q.T @ np.asarray(system["u0"]), dec.Q.T @ np.asarray(system["v0"])
    j = np.arange(3 * k)
    x = np.where(j % 2 == 0, y0[:, None], w0[:, None]) * (-lam[:, None]) ** (j // 2) * tau**j
    G = np.stack([amplification.amplification_matrix(p, float(s) * tau * tau).G for s in lam])
    for _ in range(a["steps"]):
        x = np.einsum("nij,nj->ni", G, x)
    return dec.Q @ x[:, 0], dec.Q @ x[:, 1] / tau


def _check_modal(op, output, rng, decompositions):
    a = op["args"]
    if len(decompositions) != 1:
        return f"expected one Jacobi decomposition, saw {len(decompositions)}"
    K, dec = decompositions[0]
    res = float(np.max(np.abs(K @ dec.Q - dec.Q * dec.lambdas)) / np.linalg.norm(K))
    if not res <= JACOBI_RESIDUAL_TOL:
        return f"Jacobi residual {res:.2e}"
    lines = _rows(output.file(".csv"))
    n = K.shape[0]
    if len(lines) != a["steps"] + 2 or lines[0].count(",") != 2 * n:
        return f"modal trajectory has {len(lines) - 1} rows of {lines[0]!r}"
    first, last = _floats(lines[1]), _floats(lines[-1])
    system = op["system"]
    for row, (u, v) in ((first, (system["u0"], system["v0"])), (last, _modal_oracle(a, system, dec))):
        want = np.concatenate([u, v])
        dev = float(np.max(np.abs(row[1:] - want)) / max(1.0, float(np.max(np.abs(want)))))
        if not dev <= MODAL_RTOL:
            return f"modal row at t = {float(row[0])!r} deviates from the oracle by {dev:.2e}"
    return None


CHECKS = {
    "simulate": _check_simulate,
    "converge": _check_converge,
    "spectrum": _check_spectrum,
    "stability-map": _check_stability_map,
    "params": _check_params,
    "limits": _check_limits,
    "modal": _check_modal,
}
