"""The benchmark proper: metric tables, the closed-loop runner, set-up
probes, the environment record and the traced replay.  ``bench/run.py``
is the command-line entry point; it puts the checkout's ``src/`` on the
path before importing this module.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import ops
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

END_TO_END = {
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "work_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
WORK_UNITS = {
    "analysis": "sigma evaluations (eigvals calls issued)",
    "simulate": "oscillator steps (summed over a converge op's step list)",
    "modal": "mode-steps (dof x steps)",
}
LAYER_SELF = ("stepper", "amplification", "spectral", "convergence", "modal", "cli")
PER_LAYER = {
    "amplification.assemble.calls": "calls/op",
    "amplification.assemble.us_per_call": "us",
    "amplification.matrix.calls": "calls/op",
    "amplification.matrix.self_us_per_call": "us",
    "amplification.useful_frac": "1",
    "spectral.eigvals.calls": "calls/op",
    "spectral.eigvals.self_us_per_call": "us",
    "spectral.classify_stability.calls": "calls/op",
    "spectral.stability_map.ms": "ms/op",
    "spectral.sweep_spectrum.ms": "ms/op",
    "stepper.step.calls": "calls/op",
    "stepper.step.k1.us_per_call": "us",
    "stepper.step.k2.us_per_call": "us",
    "stepper.step.k3.us_per_call": "us",
    "stepper.integrate.calls": "calls/op",
    "stepper.integrate.self_ms": "ms/op",
    "stepper.states_per_step": "1",
    "stepper.write_csv.ms": "ms/op",
    "convergence.run_convergence.self_ms": "ms/op",
    "convergence.write_csv.ms": "ms/op",
    "params.calls": "calls/op",
    "params.self_ms": "ms/op",
    "modal.jacobi_eig.calls": "calls/op",
    "modal.jacobi_eig.ms": "ms/op",
    "modal.integrate_system.self_ms": "ms/op",
    "modal.load_system.ms": "ms/op",
    "modal.write_csv.ms": "ms/op",
    "cli.run.self_ms": "ms/op",
    "cli.artifact_bytes": "B/op",
    **{f"{layer}.self_ms": "ms/op" for layer in LAYER_SELF},
    "op.self_ms": "ms/op",
    "trace.op_ms": "ms/op",
    "trace.overhead_frac": "1",
    "wait.ms": "ms/op",
}
# Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_SAMPLES = 9
PROBE_TIMEOUT_S = 60


class Runner:
    """The closed loop: one op at a time, timed, then checked."""

    def __init__(self, ops_list: list[dict], work: Path):
        self.ops = ops_list
        self.work = work
        self.out = work / "out"
        self.out.mkdir(parents=True)
        self.decompositions: list = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.artifact_bytes = 0
        self.cursor = 0  # ops run by loop() so far

    def run(self, index: int, tr=None) -> float:
        """Run, time and check one op; returns its latency in seconds."""
        op = self.ops[index]
        self.decompositions.clear()
        self.attempted += 1
        output, error = None, None
        start = perf_counter()
        try:
            if tr is None:
                output = ops.run_op(op, index, self.work, self.out)
            else:
                with tr.op(index):
                    output = ops.run_op(op, index, self.work, self.out)
        except Exception as exc:  # a failing op is counted; the run goes on
            error = f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - start
        if error is None:
            try:
                error = ops.check_op(op, index, output, self.decompositions)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        self.artifact_bytes += ops.clear(self.out)
        if error is not None:
            self.failed += 1
            self.errors.append(f"op {index} ({op['kind']}): {error}")
        return elapsed

    def loop(self, seconds: float) -> tuple[list[int], list[float]]:
        """Run ops[1:] in order, cycling, until the ops have taken
        ``seconds`` of wall time; returns the indices and latencies.  A
        further call goes on from the op after the last one run."""
        indices, latencies, busy = [], [], 0.0
        while busy < seconds:
            index = 1 + self.cursor % (len(self.ops) - 1)
            self.cursor += 1
            latencies.append(self.run(index))
            indices.append(index)
            busy += latencies[-1]
        return indices, latencies


class SetupProbe:
    """Times fresh interpreters through ``import galpha.cli`` and the
    warm-up op; each ``sample()`` runs one."""

    def __init__(self, warmup: dict, work: Path):
        (work / "warmup.json").write_text(json.dumps(warmup))
        self.out = work / "probe_out"
        self.out.mkdir()
        self.cmd = [sys.executable, str(BENCH / "probe.py"), str(work)]
        self.samples: list[float] = []
        self.failed = 0

    def sample(self) -> None:
        start = perf_counter()
        proc = subprocess.run(self.cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=PROBE_TIMEOUT_S)
        self.samples.append(perf_counter() - start)
        ops.clear(self.out)
        if proc.returncode != 0:
            self.failed += 1
            print(f"set-up probe exited {proc.returncode}: {proc.stderr.decode()[-300:]}", file=sys.stderr)


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tr, n_ops: int, op_seconds: float, overhead: float, artifact_bytes: int) -> dict:
    def ms_per_op(seconds: float) -> float:
        return 1e3 * seconds / n_ops

    def calls_per_op(name: str) -> float:
        return tr.calls[name] / n_ops

    def us_per_call(name: str, times) -> float:
        return 1e6 * times[name] / tr.calls[name] if tr.calls[name] else 0.0

    steps = tr.calls_of("stepper.step")
    computed = tr.counts["amplification.G_entries"]
    return {
        "amplification.assemble.calls": calls_per_op("amplification.assemble_step_matrices"),
        "amplification.assemble.us_per_call": us_per_call("amplification.assemble_step_matrices", tr.total),
        "amplification.matrix.calls": calls_per_op("amplification.amplification_matrix"),
        "amplification.matrix.self_us_per_call": us_per_call("amplification.amplification_matrix", tr.self_time),
        "amplification.useful_frac": tr.counts["amplification.G_entries_used"] / computed if computed else 0.0,
        "spectral.eigvals.calls": calls_per_op("spectral.eigvals"),
        "spectral.eigvals.self_us_per_call": us_per_call("spectral.eigvals", tr.self_time),
        "spectral.classify_stability.calls": calls_per_op("spectral.classify_stability"),
        "spectral.stability_map.ms": ms_per_op(tr.total["spectral.stability_map"]),
        "spectral.sweep_spectrum.ms": ms_per_op(tr.total["spectral.sweep_spectrum"]),
        "stepper.step.calls": steps / n_ops,
        **{f"stepper.step.k{k}.us_per_call": us_per_call(f"stepper.step.k{k}", tr.total) for k in (1, 2, 3)},
        "stepper.integrate.calls": calls_per_op("stepper.integrate"),
        "stepper.integrate.self_ms": ms_per_op(tr.self_time["stepper.integrate"]),
        "stepper.states_per_step": tr.counts["stepper.ModalState"] / steps if steps else 0.0,
        "stepper.write_csv.ms": ms_per_op(tr.total["stepper.Trajectory.write_csv"]),
        "convergence.run_convergence.self_ms": ms_per_op(tr.self_time["convergence.run_convergence"]),
        "convergence.write_csv.ms": ms_per_op(tr.total["convergence.ConvergenceStudy.write_csv"]),
        "params.calls": tr.calls_of("params") / n_ops,
        "params.self_ms": ms_per_op(tr.layer_self("params")),
        "modal.jacobi_eig.calls": calls_per_op("modal.jacobi_eig"),
        "modal.jacobi_eig.ms": ms_per_op(tr.total["modal.jacobi_eig"]),
        "modal.integrate_system.self_ms": ms_per_op(tr.self_time["modal.integrate_system"]),
        "modal.load_system.ms": ms_per_op(tr.total["modal.load_system"]),
        "modal.write_csv.ms": ms_per_op(tr.total["modal.SystemTrajectory.write_csv"]),
        "cli.run.self_ms": ms_per_op(tr.self_time["cli.run"]),
        "cli.artifact_bytes": artifact_bytes / n_ops,
        **{f"{layer}.self_ms": ms_per_op(tr.layer_self(layer)) for layer in LAYER_SELF},
        "op.self_ms": ms_per_op(tr.self_time[tracer.OP_SPAN]),
        "trace.op_ms": ms_per_op(op_seconds),
        "trace.overhead_frac": overhead,
        # One closed-loop client and no queues: no work ever waits.
        "wait.ms": 0.0,
    }


def _blas_threads() -> int | None:
    import numpy

    for lib in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(args) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "galpha").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "clients": 1,
        "work_unit": WORK_UNITS[args.workload],
    }


def measure(args, runner: Runner) -> tuple[dict, int]:
    """The untraced run: end-to-end metrics, and the timed op count.
    The set-up probes are spread over the run, one before each of
    SETUP_SAMPLES equal slices of the loop, so that slow drift of the
    host weighs on setup_s as it does on the op latencies."""
    probe = SetupProbe(runner.ops[0], runner.work)
    indices, latencies = [], []
    with ops.capture_decompositions(runner.decompositions):
        runner.run(0)  # warm-up, checked but not timed
        for _ in range(SETUP_SAMPLES):
            probe.sample()
            more_indices, more_latencies = runner.loop(args.seconds / SETUP_SAMPLES)
            indices += more_indices
            latencies += more_latencies
    runner.attempted += SETUP_SAMPLES
    runner.failed += probe.failed
    units = sum(runner.ops[i]["units"] for i in indices)
    return {
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_p90_ms": 1e3 * percentile(latencies, 90),
        "work_per_s": units / sum(latencies),
        "setup_s": statistics.median(probe.samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }, len(latencies)


def measure_traced(args, runner: Runner, env: dict) -> tuple[dict, int]:
    """Half the run untraced, then the same ops traced: per-layer
    metrics, and the traced op count.  The spans go to .bench_out/."""
    with ops.capture_decompositions(runner.decompositions):
        runner.run(0)
        indices, latencies = runner.loop(args.seconds / 2.0)
    tr = tracer.Tracer()
    bytes_before = runner.artifact_bytes
    traced = []
    # installed() first, so the capture hook wraps the traced jacobi_eig
    with tr.installed(), ops.capture_decompositions(runner.decompositions):
        for index in indices:
            traced.append(runner.run(index, tr))
            tr.flush()
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tr.dump(out_dir / f"spans-{args.workload}.npz", {"env": env})
    overhead = sum(traced) / sum(latencies) - 1.0
    artifact_bytes = runner.artifact_bytes - bytes_before
    return layer_metrics(tr, len(indices), sum(traced), overhead, artifact_bytes), len(indices)


def run(args) -> dict:
    """One benchmark run; prints the report and returns the result
    object whose JSON is the last line of output."""
    env = environment(args)
    print("env " + json.dumps(env))
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        ops_list = workloads.generate(args.workload, args.seed)
        ops.write_inputs(ops_list, work)
        runner = Runner(ops_list, work)
        if args.trace:
            values, n = measure_traced(args, runner, env)
            units = PER_LAYER
        else:
            values, n = measure(args, runner)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in runner.errors[:10]:
        print(f"failed {line}", file=sys.stderr)
    for name, value in values.items():
        print(f"{name} = {value!r} {units[name]}")
    failed_frac = runner.failed / runner.attempted
    print(f"timed_ops={n} attempted={runner.attempted} failed={runner.failed} "
          f"failed_frac={failed_frac!r} wait_ms=0.0")
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
