"""Tests of the benchmark itself.  Run with

    python3 -m pytest bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import galpha  # noqa: E402
import harness  # noqa: E402
import ops  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_op_lists_follow_the_seed(workload):
    same = [json.dumps(workloads.generate(workload, 7)) for _ in range(2)]
    other = json.dumps(workloads.generate(workload, 8))
    assert same[0] == same[1]
    assert other != same[0]


def test_rho_draws_include_both_endpoints():
    rhos = [r for op in workloads.generate("simulate", 3) for r in op["args"]["rho"]]
    assert 0.0 in rhos and 1.0 in rhos
    assert all(0.0 <= r <= 1.0 for r in rhos)


def _bump_last_state(monkeypatch):
    original = galpha.stepper.Trajectory.write_csv

    def write_csv(self, fh):
        last = self.states[-1]
        d = (last.d[0] * (1.0 + 1e-9) + 1e-300,) + last.d[1:]
        states = self.states[:-1] + (galpha.stepper.ModalState(k=last.k, t=last.t, d=d),)
        original(galpha.stepper.Trajectory(times=self.times, states=states), fh)

    monkeypatch.setattr(galpha.stepper.Trajectory, "write_csv", write_csv)


def _flip_a_stable_point(monkeypatch):
    """Classify one point unstable although it meets the sufficient
    stability conditions."""
    original = galpha.spectral.stability_map

    def meets_conditions(smap, pt):
        vals = dict(smap.fixed, **{smap.x_axis.name: pt.x, smap.y_axis.name: pt.y})
        p = galpha.from_alphas(smap.k, [vals[f"alpha{i + 1}"] for i in range(smap.k)], vals["alpha_f"])
        return galpha.check_stability_conditions(p).passed

    def stability_map(*args, **kwargs):
        smap = original(*args, **kwargs)
        i = next(i for i, pt in enumerate(smap.points) if meets_conditions(smap, pt))
        pt = smap.points[i]
        flipped = galpha.spectral.StabilityMapPoint(pt.x, pt.y, pt.max_radius, False)
        points = smap.points[:i] + (flipped,) + smap.points[i + 1:]
        return galpha.spectral.StabilityMap(smap.k, smap.x_axis, smap.y_axis, smap.fixed, points)

    monkeypatch.setattr(galpha.spectral, "stability_map", stability_map)


def _shift_one_mode(monkeypatch):
    original = galpha.modal.jacobi_eig

    def jacobi_eig(K, *args, **kwargs):
        dec = original(K, *args, **kwargs)
        lambdas = dec.lambdas.copy()
        lambdas[0] *= 1.0 + 1e-6
        return galpha.modal.ModalDecomposition(lambdas=lambdas, Q=dec.Q)

    monkeypatch.setattr(galpha.modal, "jacobi_eig", jacobi_eig)


@pytest.mark.parametrize(
    "workload, corrupt, indices, expected_failures",
    [
        # ops 1..3 of simulate: simulate k=2, converge k=1, simulate k=3
        ("simulate", _bump_last_state, [1, 2, 3], 2),
        # ops 1..3 of analysis: spectrum, stability map k=3, params
        ("analysis", _flip_a_stable_point, [1, 2, 3], 1),
        ("modal", _shift_one_mode, [1, 2], 2),
    ],
)
def test_corrupted_outputs_count_as_failed(tmp_path, monkeypatch, workload, corrupt, indices, expected_failures):
    op_list = workloads.generate(workload, 5)[:8]
    ops.write_inputs(op_list, tmp_path)
    runner = harness.Runner(op_list, tmp_path)
    for corrupted in (False, True):
        if corrupted:
            corrupt(monkeypatch)
        with ops.capture_decompositions(runner.decompositions):
            for i in indices:
                runner.run(i)
        if not corrupted:
            assert runner.failed == 0, runner.errors
    assert runner.attempted == 2 * len(indices)
    assert runner.failed == expected_failures, runner.errors


def test_tracer_restores_every_patched_function():
    before = {name: getattr(galpha.modal, name) for name in ("jacobi_eig", "integrate", "integrate_system")}
    write_csv = galpha.stepper.Trajectory.write_csv
    with tracer.Tracer().installed():
        assert galpha.modal.integrate is not before["integrate"]
        assert galpha.stepper.Trajectory.write_csv is not write_csv
    assert {name: getattr(galpha.modal, name) for name in before} == before
    assert galpha.stepper.Trajectory.write_csv is write_csv


def test_tracer_keeps_and_dumps_every_span(tmp_path):
    op_list = workloads.generate("modal", 4)[:3]
    ops.write_inputs(op_list, tmp_path)
    runner = harness.Runner(op_list, tmp_path)
    tr = tracer.Tracer()
    with tr.installed(), ops.capture_decompositions(runner.decompositions):
        for i in range(3):
            runner.run(i, tr)
            tr.flush()
        runner.run(0, tr)  # left pending: dump flushes it
    assert runner.failed == 0, runner.errors
    tr.dump(tmp_path / "spans.npz", {"seed": 4})
    record = np.load(tmp_path / "spans.npz")
    spans = record["spans"]
    assert list(record["fields"]) == list(tracer.FIELDS)
    assert json.loads(str(record["meta"])) == {"seed": 4}
    assert len(spans) == sum(tr.calls.values()) > 3 * len(op_list[0]["system"]["K"])
    by_id = {int(row[0]): row for row in spans}
    names = list(record["names"])
    for sid, name, start, end, parent, op in spans:
        if parent < 0:
            assert names[int(name)] == tracer.OP_SPAN
        else:
            up = by_id[int(parent)]
            assert up[2] <= start <= end <= up[3] and up[5] == op


def test_printed_end_to_end_metrics_match_the_spec():
    result = _result(_bench("--workload", "modal", "--seed", "1", "--seconds", "1", "--trace", "0"))
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload):
    result = _result(_bench("--workload", workload, "--seed", "2", "--seconds", "1", "--trace", "1"))
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    assert result["correct"]
    # Self times of the layers and of the harness's own op span add up
    # to the traced op wall time.
    self_sum = metrics["params.self_ms"] + metrics["op.self_ms"] + sum(
        metrics[f"{layer}.self_ms"] for layer in harness.LAYER_SELF
    )
    assert abs(self_sum - metrics["trace.op_ms"]) <= max(metrics["trace.overhead_frac"], 0.01) * metrics["trace.op_ms"]
    idle = {"analysis": ("stepper", "modal"), "simulate": ("spectral", "amplification", "modal"),
            "modal": ("spectral", "amplification", "convergence")}[workload]
    for name, value in metrics.items():
        if name.split(".")[0] in idle and name.endswith(".calls"):
            assert value == 0, name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "analysis", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
