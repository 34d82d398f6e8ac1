"""Command-line surface.

Every subcommand writes its artifacts into the output directory (default
./out, created if absent) and prints one machine-greppable summary line
of key=value pairs.  Output files are named by subcommand plus a short
hash of the parsed flags, so re-running with identical flags reproduces
byte-identical files and different flags never silently overwrite.

Exit codes: 0 success, 2 flag errors, 1 numerical errors and an
unusable output directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import convergence, spectral
from .amplification import amplification_matrix, assemble_step_matrices
from .params import DissipationSpec, derive
from .stepper import StepConfig, Variant, _csv_rows, integrate


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _comma_list(flag: str, cast, what: str):
    """Parser of a comma-separated ``flag`` value into a list of ``cast``."""
    def parse(text: str) -> list:
        try:
            return [cast(x) for x in text.split(",") if x != ""]
        except ValueError:
            raise argparse.ArgumentTypeError(f"{flag} expects comma-separated {what}, got {text!r}")
    return parse


def _parse_vary(text: str) -> spectral.ParameterAxis:
    try:
        name, lo, hi, n = text.split(":")
        return spectral.ParameterAxis(name, _finite(lo), _finite(hi), int(n))
    except ValueError:
        raise argparse.ArgumentTypeError(f"--vary expects NAME:lo:hi:n with n >= 2, got {text!r}")


def _parse_fix(items) -> dict:
    fixed = {}
    for item in items or []:
        for piece in item.split(","):
            if not piece:
                continue
            if "=" not in piece:
                raise ValueError(f"--fix expects NAME=VALUE, got {piece!r}")
            name, val = piece.split("=", 1)
            try:
                fixed[name] = _finite(val)
            except argparse.ArgumentTypeError as exc:
                raise ValueError(f"--fix value for {name!r}: {exc}")
    return fixed


def _flag_hash(args: argparse.Namespace) -> str:
    payload = {k: repr(v) for k, v in sorted(vars(args).items()) if k != "func"}
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:8]


def _outfile(args, suffix: str) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out / f"{args.subcommand}_{_flag_hash(args)}{suffix}"


def _cmd_params(args, p) -> str:
    path = _outfile(args, ".json")
    path.write_text(json.dumps(p.to_json_dict(), indent=2) + "\n")
    return f"subcommand=params k={args.k} file={path}"


def _cmd_simulate(args, p) -> str:
    cfg = StepConfig(tau=args.tau, variant=Variant(args.variant))
    traj = integrate(p, args.lam, cfg, args.u0, args.v0, args.steps)
    path = _outfile(args, ".csv")
    with open(path, "w", newline="") as fh:
        traj.write_csv(fh)
    final_u = traj.rows[-1][1]
    return (
        f"subcommand=simulate k={args.k} steps={args.steps} "
        f"final_u={final_u!r} file={path}"
    )


def _cmd_converge(args, p) -> str:
    study = convergence.run_convergence(
        p, args.lam, args.u0, args.v0, args.T, args.steps, variant=Variant(args.variant)
    )
    csv_path = _outfile(args, ".csv")
    with open(csv_path, "w", newline="") as fh:
        study.write_csv(fh)
    json_path = _outfile(args, ".json")
    json_path.write_text(json.dumps(study.summary_dict(), indent=2) + "\n")
    return (
        f"subcommand=converge k={args.k} "
        f"fitted_order_u={study.fitted_order_u!r} "
        f"fitted_order_v={study.fitted_order_v!r} "
        f"discarded={study.discarded} file={csv_path} summary={json_path}"
    )


def _cmd_spectrum(args, p) -> str:
    spec = spectral.sweep_spectrum(p, args.sigma_min, args.sigma_max, args.points)
    # Rows are sigma,block,idx,re,im,abs: each sigma is formatted once
    # and each ",block,idx," piece once per sweep.
    pieces = [f",{j},{i}," for j in range(p.k) for i in range(3)]
    path = _outfile(args, ".csv")
    with open(path, "w", newline="") as fh:
        fh.write(_csv_rows([["sigma", "block", "idx", "re", "im", "abs"]], str))
        for lo in range(0, args.points, 256):  # 256 sigmas at a time keep memory flat
            eigs = spec.eigs[lo:lo + 256].ravel()
            heads = [s + piece for s in map(repr, spec.sigma[lo:lo + 256].tolist()) for piece in pieces]
            fh.write("".join(map(
                "{}{!r},{!r},{!r}\r\n".format,
                heads, eigs.real.tolist(), eigs.imag.tolist(), np.abs(eigs).tolist(),
            )))
    extra = ""
    if args.dump_matrices_sigma is not None:
        A, B = assemble_step_matrices(p, args.dump_matrices_sigma)
        G = amplification_matrix(p, args.dump_matrices_sigma).G
        for name, M in (("A", A), ("B", B), ("G", G)):
            rows = [[f"c{j}" for j in range(M.shape[1])], *M.tolist()]
            _outfile(args, f"_{name}.csv").write_text(_csv_rows(rows, str), newline="")
        extra = f" matrices={_outfile(args, '_A.csv').parent}"
    max_r = float(spec.radius.max())
    return (
        f"subcommand=spectrum k={args.k} points={args.points} "
        f"max_radius={max_r!r} file={path}{extra}"
    )


def _cmd_stability_map(args, fixed: dict) -> str:
    sweep = spectral.SweepConfig(n_points=args.sigma_points)
    smap = spectral.stability_map(args.k, fixed, args.vary[0], args.vary[1], sweep)
    rows = [["x_name", "x", "y_name", "y", "max_radius", "stable"]] + [
        [smap.x_axis.name, pt.x, smap.y_axis.name, pt.y, pt.max_radius, int(pt.stable)]
        for pt in smap.points
    ]
    path = _outfile(args, ".csv")
    path.write_text(_csv_rows(rows, str), newline="")
    n_stable = sum(pt.stable for pt in smap.points)
    return (
        f"subcommand=stability-map k={args.k} points={len(smap.points)} "
        f"stable={n_stable} file={path}"
    )


def _cmd_limits(args, p) -> str:
    data = {
        "k": args.k,
        "rho": list(args.rho),
        "sigma_zero": spectral.limit_eigs_sigma_zero(p),
        "sigma_inf": spectral.limit_eigs_sigma_inf(p),
    }
    path = _outfile(args, ".json")
    path.write_text(json.dumps(data, indent=2) + "\n")
    return f"subcommand=limits k={args.k} file={path}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="galpha",
        description="2k-order generalized-alpha integrators and spectral analysis",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def scheme_flags(sp):
        sp.add_argument("--k", type=int, required=True, help="half-order (accuracy 2k)")
        sp.add_argument("--rho", type=_comma_list("--rho", float, "floats"), required=True,
                        help="comma-separated dissipation controls in [0,1]")

    def out_flag(sp):
        sp.add_argument("--out", default="out", help="output directory (default ./out)")

    sp = sub.add_parser("params", help="derive scheme coefficients to JSON")
    scheme_flags(sp); out_flag(sp)
    sp.set_defaults(func=_cmd_params)

    sp = sub.add_parser("simulate", help="integrate one oscillator to CSV")
    scheme_flags(sp)
    sp.add_argument("--lambda", dest="lam", type=_finite, required=True)
    sp.add_argument("--u0", type=_finite, required=True)
    sp.add_argument("--v0", type=_finite, required=True)
    sp.add_argument("--tau", type=_finite, required=True)
    sp.add_argument("--steps", type=int, required=True)
    sp.add_argument("--variant", choices=["full", "printed"], default="full")
    out_flag(sp)
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("converge", help="convergence study to CSV + JSON summary")
    scheme_flags(sp)
    sp.add_argument("--lambda", dest="lam", type=_finite, required=True)
    sp.add_argument("--u0", type=_finite, default=1.0)
    sp.add_argument("--v0", type=_finite, default=0.0)
    sp.add_argument("--T", type=_finite, required=True)
    sp.add_argument("--steps", type=_comma_list("--steps", int, "integers"), required=True,
                    help="comma-separated ascending step counts")
    sp.add_argument("--variant", choices=["full", "printed"], default="full")
    out_flag(sp)
    sp.set_defaults(func=_cmd_converge)

    sp = sub.add_parser("spectrum", help="eigenvalue sweep over sigma to CSV")
    scheme_flags(sp)
    sp.add_argument("--sigma-min", type=_finite, required=True)
    sp.add_argument("--sigma-max", type=_finite, required=True)
    sp.add_argument("--points", type=int, required=True)
    sp.add_argument("--dump-matrices-sigma", type=_finite, default=None,
                    help="debug: also dump A, B, G at this sigma as CSV")
    out_flag(sp)
    sp.set_defaults(func=_cmd_spectrum)

    sp = sub.add_parser("stability-map", help="classify a 2-D parameter grid")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--fix", action="append", default=[],
                    help="NAME=VALUE[,NAME=VALUE...] fixed parameters")
    sp.add_argument("--vary", action="append", type=_parse_vary, default=[],
                    help="NAME:lo:hi:n varied axis (give twice)")
    sp.add_argument("--sigma-points", type=int, default=60)
    out_flag(sp)
    sp.set_defaults(func=_cmd_stability_map)

    sp = sub.add_parser("limits", help="sigma->0 and sigma->inf eigenvalues to JSON")
    scheme_flags(sp); out_flag(sp)
    sp.set_defaults(func=_cmd_limits)
    return parser


# Built on the first ``run`` and reused: each parse_args call fills a
# fresh Namespace, and argparse copies an ``append`` default before
# appending to it, so no flag value carries over from one call to the next.
_parser = None


def run(argv) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        spec = DissipationSpec(args.k, tuple(args.rho)) if hasattr(args, "rho") else None
        fixed = None
        if args.subcommand == "simulate":
            StepConfig(tau=args.tau)
            if args.steps < 1:
                raise ValueError(f"--steps must be >= 1, got {args.steps}")
        elif args.subcommand == "converge":
            convergence.refinement(args.T, args.steps)
        elif args.subcommand == "spectrum":
            spectral.SweepConfig(args.sigma_min, args.sigma_max, args.points).grid()
            if args.dump_matrices_sigma is not None and args.dump_matrices_sigma < 0.0:
                raise ValueError(f"--dump-matrices-sigma must be >= 0, got {args.dump_matrices_sigma}")
        elif args.subcommand == "stability-map":
            spectral.SweepConfig(n_points=args.sigma_points).grid()
            fixed = _parse_fix(args.fix)
            if len(args.vary) != 2:
                raise ValueError("--vary must be given exactly twice")
            spectral.check_map_names(args.k, fixed, *args.vary)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        # Every subcommand takes its scheme from --rho, except stability-map,
        # which takes the --fix values parsed above.
        summary = args.func(args, fixed if spec is None else derive(spec))
    except (ArithmeticError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(summary)
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
