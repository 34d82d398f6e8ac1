"""Seeded op lists for the three benchmark workloads.

An op is a JSON-ready dict:

    {"kind": ..., "args": {...}, "argv": [...], "units": n}

``args`` holds the inputs the output checks need; ``argv`` is what the
CLI receives (the harness appends ``--out``).  Modal ops have no argv:
they carry the system payload that is written to a JSON file before
timing and read back by ``galpha.modal.load_system`` inside the op.

Every list is a fixed cycle of op shapes with seeded values, so the
latency mix is the same for every seed while the inputs differ.  Sizes
vary by about +-10% around the shape's nominal size, which keeps any
seed's median latency close to any other's.
"""

from __future__ import annotations

import math

import numpy as np

WORKLOADS = ("analysis", "simulate", "modal")

# Ops generated per run; a run that completes them all cycles through
# ops[1:] again.  ops[0] is the warm-up op.
POOL_SIZE = 320

# Steps per period at the coarsest level of a convergence study.  Below
# these the fitted orders of random (rho, lambda, T) are still
# pre-asymptotic; at these values 3000 random studies per k on the seed
# code all fell inside criterion 1's band (worst 0.14 of 0.2 for k = 2,
# 0.18 of 0.3 for k = 3).
CONVERGE_STEPS_PER_PERIOD = {1: 64, 2: 48, 3: 48}

ANALYSIS_CYCLE = (
    ("stability-map", 2), ("spectrum", 1), ("stability-map", 3), ("params", None),
    ("spectrum", 2), ("stability-map", 2), ("limits", None), ("spectrum", 3),
    ("stability-map", 3), ("params", None),
)
SIMULATE_CYCLE = (
    ("simulate", 1, "full"), ("simulate", 2, "full"), ("converge", 1, "full"),
    ("simulate", 3, "full"), ("simulate", 1, "printed"), ("converge", 2, "full"),
    ("simulate", 2, "printed"), ("simulate", 3, "printed"), ("converge", 3, "full"),
)
MODAL_CYCLE = (("dense", 1), ("chain", 2), ("dense", 3), ("chain", 1), ("dense", 2), ("chain", 3))

SPECTRUM_POINTS = {1: 1200, 2: 1000, 3: 600}
MAP_AXIS_POINTS = {2: 11, 3: 9}
MAP_SIGMA_POINTS = {2: 9, 3: 8}
SIMULATE_STEPS = {1: 5000, 2: 3000, 3: 2000}


def _around(rng, nominal: int) -> int:
    return int(round(nominal * rng.uniform(0.9, 1.1)))


def _rho(rng, k: int) -> list[float]:
    """k controls on the closed interval [0, 1]; each endpoint is drawn
    with probability 0.1 so the edge paths stay in the traffic."""
    out = []
    for _ in range(k):
        u = rng.random()
        out.append(0.0 if u < 0.1 else 1.0 if u < 0.2 else float(rng.random()))
    return out


def _flag(value) -> str:
    if isinstance(value, list):
        return ",".join(_flag(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


def _cli_op(kind: str, args: dict, units: int) -> dict:
    argv = [kind]
    for name, value in args.items():
        if name == "fix":
            argv.append("--fix=" + ",".join(f"{n}={v!r}" for n, v in value.items()))
        elif name == "vary":
            for ax in value:
                argv.append(f"--vary={ax['name']}:{ax['lo']!r}:{ax['hi']!r}:{ax['n']}")
        else:
            # "--flag=value" keeps values like -1e-05 from reading as flags
            argv.append(f"--{name.replace('_', '-')}={_flag(value)}")
    return {"kind": kind, "args": args, "argv": argv, "units": units}


def _scheme_args(rng, k: int) -> dict:
    return {"k": k, "rho": _rho(rng, k)}


def _stability_map(rng, k: int) -> dict:
    names = [f"alpha{i + 1}" for i in range(k)] + ["alpha_f"]
    xi, yi = (int(i) for i in rng.choice(len(names), 2, replace=False))
    n = MAP_AXIS_POINTS[k]
    vary = [
        {
            "name": names[i],
            "lo": 0.0 if rng.random() < 0.25 else float(rng.uniform(0.0, 0.8)),
            "hi": float(rng.uniform(1.6, 2.5)),
            "n": int(rng.integers(n - 1, n + 2)),
        }
        for i in (xi, yi)
    ]
    fix = {nm: float(rng.uniform(0.5, 2.5)) for j, nm in enumerate(names) if j not in (xi, yi)}
    sigma_points = int(rng.integers(MAP_SIGMA_POINTS[k] - 1, MAP_SIGMA_POINTS[k] + 2))
    args = {"k": k, "fix": fix, "vary": vary, "sigma_points": sigma_points}
    return _cli_op("stability-map", args, vary[0]["n"] * vary[1]["n"] * sigma_points)


def _spectrum(rng, k: int) -> dict:
    args = _scheme_args(rng, k)
    args["sigma_min"] = float(10.0 ** rng.uniform(-8.0, -4.0))
    args["sigma_max"] = float(10.0 ** rng.uniform(6.0, 10.0))
    args["points"] = _around(rng, SPECTRUM_POINTS[k])
    return _cli_op("spectrum", args, args["points"])


def _oscillator(rng, k: int, omega: float) -> dict:
    args = _scheme_args(rng, k)
    args["lambda"] = omega * omega
    args["u0"] = float(rng.normal())
    args["v0"] = float(rng.normal() * omega)
    return args


def _simulate(rng, k: int, variant: str) -> dict:
    omega = float(10.0 ** rng.uniform(-0.3, 1.5))
    args = _oscillator(rng, k, omega)
    args["tau"] = math.sqrt(10.0 ** rng.uniform(-4.0, 0.5)) / omega
    args["steps"] = _around(rng, SIMULATE_STEPS[k])
    args["variant"] = variant
    return _cli_op("simulate", args, args["steps"])


def _converge(rng, k: int, variant: str) -> dict:
    omega = float(10.0 ** rng.uniform(0.0, 1.3))
    periods = float(rng.uniform(1.0, 4.0))
    args = _oscillator(rng, k, omega)
    args["T"] = periods * 2.0 * math.pi / omega
    n0 = int(round(periods * CONVERGE_STEPS_PER_PERIOD[k] * rng.uniform(1.0, 1.5)))
    args["steps"] = [n0 * 2**i for i in range(4)]
    args["variant"] = variant
    return _cli_op("converge", args, sum(args["steps"]))


def _stiffness(rng, pattern: str, n: int) -> np.ndarray:
    scale = 10.0 ** rng.uniform(0.0, 2.0)
    if pattern == "dense":
        M = rng.normal(size=(n, n))
        K = M @ M.T / n + 0.5 * np.eye(n)
        return scale * 0.5 * (K + K.T)
    # fixed-fixed spring chain: tridiagonal, every other entry exactly 0
    c = scale * rng.uniform(0.5, 2.0, n + 1)
    return np.diag(c[:-1] + c[1:]) - np.diag(c[1:-1], 1) - np.diag(c[1:-1], -1)


def _modal(rng, pattern: str, k: int) -> dict:
    n = int(rng.integers(25, 30))
    K = _stiffness(rng, pattern, n)
    lam_max = float(np.linalg.eigvalsh(K)[-1])
    args = {
        "k": k,
        "rho": _rho(rng, k),
        "tau": math.sqrt(10.0 ** rng.uniform(-2.0, 1.0) / lam_max),
        "steps": int(rng.integers(80, 101)),
        "pattern": pattern,
    }
    system = {"K": K.tolist(), "u0": rng.normal(size=n).tolist(), "v0": rng.normal(size=n).tolist()}
    return {"kind": "modal", "args": args, "system": system, "units": n * args["steps"]}


def generate(workload: str, seed: int) -> list[dict]:
    """The op list of one workload; equal seeds give equal lists."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = np.random.default_rng([WORKLOADS.index(workload), seed])
    ops = []
    for i in range(POOL_SIZE):
        if workload == "analysis":
            kind, k = ANALYSIS_CYCLE[i % len(ANALYSIS_CYCLE)]
            if kind == "stability-map":
                ops.append(_stability_map(rng, k))
            elif kind == "spectrum":
                ops.append(_spectrum(rng, k))
            else:
                ops.append(_cli_op(kind, _scheme_args(rng, int(rng.integers(1, 4))), 0))
        elif workload == "simulate":
            kind, k, variant = SIMULATE_CYCLE[i % len(SIMULATE_CYCLE)]
            ops.append((_simulate if kind == "simulate" else _converge)(rng, k, variant))
        else:
            ops.append(_modal(rng, *MODAL_CYCLE[i % len(MODAL_CYCLE)]))
    return ops
