import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import galpha
from galpha import cli
from galpha.cli import build_parser, run


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.strip(), captured.err.strip()


def summary_file(out_line: str) -> str:
    fields = dict(part.split("=", 1) for part in out_line.split())
    return fields["file"]


class TestParams:
    def test_writes_json(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys, "params", "--k", "2", "--rho", "0.5,0.5", "--out", str(tmp_path)
        )
        assert code == 0
        data = json.loads(Path(summary_file(out)).read_text())
        assert data["k"] == 2
        assert data["alpha"] == [1.3333333333333333, 1.0]
        assert data["alpha_f"] == 0.6666666666666666

    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        argv = ("params", "--k", "1", "--rho", "0.8", "--out", str(tmp_path))
        _, out1, _ = run_cli(capsys, *argv)
        first = Path(summary_file(out1)).read_bytes()
        _, out2, _ = run_cli(capsys, *argv)
        assert summary_file(out1) == summary_file(out2)
        assert Path(summary_file(out2)).read_bytes() == first

    def test_different_flags_different_files(self, tmp_path, capsys):
        _, out1, _ = run_cli(capsys, "params", "--k", "1", "--rho", "0.5", "--out", str(tmp_path))
        _, out2, _ = run_cli(capsys, "params", "--k", "1", "--rho", "0.6", "--out", str(tmp_path))
        assert summary_file(out1) != summary_file(out2)


class TestSimulate:
    def test_writes_trajectory(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--k", "2", "--rho", "0.5,0.5",
            "--lambda", "39.478417604357434", "--u0", "1", "--v0", "0",
            "--tau", "0.0625", "--steps", "16", "--out", str(tmp_path),
        )
        assert code == 0
        assert "final_u=" in out
        with open(summary_file(out)) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "d0", "d1", "d2", "d3", "d4", "d5"]
        assert len(rows) == 18
        # full period: back near u = 1
        assert abs(float(rows[-1][1]) - 1.0) < 1e-2

    def test_negative_lambda_exits_1(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--k", "1", "--rho", "0.5",
            "--lambda", "-1", "--u0", "1", "--v0", "0",
            "--tau", "0.1", "--steps", "4", "--out", str(tmp_path),
        )
        assert code == 1
        assert "error:" in err


class TestConverge:
    def test_summary_reports_fitted_orders(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys, "converge", "--k", "2", "--rho", "0.5,0.5",
            "--lambda", "39.478417604357434", "--T", "1",
            "--steps", "8,16,32,64", "--out", str(tmp_path),
        )
        assert code == 0
        assert "fitted_order_v=" in out
        fields = dict(part.split("=", 1) for part in out.split())
        assert abs(float(fields["fitted_order_v"]) - 4.0) < 0.2
        summary = json.loads(Path(fields["summary"]).read_text())
        assert summary["k"] == 2

    def test_undefined_orders_are_null_in_strict_json(self, tmp_path, capsys):
        # lambda = 0 is integrated exactly, so no error is above the round-off
        # floor and no order is fitted; the summary once held bare NaN tokens
        code, out, _ = run_cli(
            capsys, "converge", "--k", "1", "--rho", "0.5", "--lambda", "0", "--T", "1",
            "--steps", "2,4,8", "--out", str(tmp_path),
        )
        assert code == 0
        fields = dict(part.split("=", 1) for part in out.split())
        assert fields["fitted_order_u"] == fields["fitted_order_v"] == "nan"
        assert fields["discarded"] == "3"

        def reject(token):
            raise ValueError(f"not strict JSON: {token}")

        summary = json.loads(Path(fields["summary"]).read_text(), parse_constant=reject)
        assert summary["fitted_order_u"] is None and summary["fitted_order_v"] is None


class TestSpectrum:
    def test_sweep_csv_and_matrix_dump(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys, "spectrum", "--k", "2", "--rho", "0.1,0.4",
            "--sigma-min", "1e-4", "--sigma-max", "1e4", "--points", "5",
            "--dump-matrices-sigma", "1.0", "--out", str(tmp_path),
        )
        assert code == 0
        with open(summary_file(out)) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["sigma", "block", "idx", "re", "im", "abs"]
        assert len(rows) == 1 + 5 * 6
        names = [p.name for p in tmp_path.iterdir()]
        for suffix in ("_A.csv", "_B.csv", "_G.csv"):
            assert any(name.endswith(suffix) for name in names)

    def test_max_radius_reported(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys, "spectrum", "--k", "1", "--rho", "1.0",
            "--sigma-min", "1e-3", "--sigma-max", "1e3", "--points", "9",
            "--out", str(tmp_path),
        )
        assert code == 0
        fields = dict(part.split("=", 1) for part in out.split())
        assert abs(float(fields["max_radius"]) - 1.0) < 1e-9


class TestStabilityMap:
    def test_grid_classification(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys, "stability-map", "--k", "2", "--fix", "alpha1=2",
            "--vary", "alpha_f:0.5:1.0:3", "--vary", "alpha2:1.0:2.0:3",
            "--sigma-points", "10", "--out", str(tmp_path),
        )
        assert code == 0
        with open(summary_file(out)) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x_name", "x", "y_name", "y", "max_radius", "stable"]
        assert rows[1][0] == "alpha_f" and rows[1][2] == "alpha2"
        assert len(rows) == 10
        # entire sampled region satisfies 1/2 <= alpha_f <= alpha_2
        assert all(r[5] == "1" for r in rows[1:])

    def test_consecutive_runs_match_fresh_processes(self, tmp_path, monkeypatch, capsys):
        # run() keeps one parser per process; no flag value may carry
        # over into the next call's artifacts, names or summary.
        runs = [
            ["stability-map", "--k", "3", "--fix", "alpha1=1.5", "--fix", "alpha3=1.2,alpha_f=0.7",
             "--vary", "alpha2:0.5:2.0:3", "--vary", "alpha1:1.0:2.0:2", "--sigma-points", "5"],
            ["params", "--k", "1", "--rho", "0.5"],
            ["stability-map", "--k", "1", "--vary", "alpha1:0.5:2.0:3",
             "--vary", "alpha_f:0.5:1.0:2", "--sigma-points", "4"],
            ["stability-map", "--k", "2", "--fix", "alpha1=2",
             "--vary", "alpha_f:0.5:1.0:3", "--vary", "alpha2:1.0:2.0:3", "--sigma-points", "6"],
        ]
        env = {**os.environ, "PYTHONPATH": str(Path(galpha.__file__).resolve().parents[1])}
        fresh, reused = tmp_path / "fresh", tmp_path / "reused"
        fresh.mkdir()
        reused.mkdir()
        fresh_out = [
            subprocess.run([sys.executable, "-m", "galpha.cli", *argv, "--out", "out"], cwd=fresh,
                           env=env, capture_output=True, text=True, check=True).stdout
            for argv in runs
        ]
        monkeypatch.chdir(reused)
        reused_out = []
        for argv in runs + runs[:1]:
            assert run(argv + ["--out", "out"]) == 0
            reused_out.append(capsys.readouterr().out)
        assert reused_out == fresh_out + fresh_out[:1]
        files = sorted(p.name for p in (fresh / "out").iterdir())
        assert len(files) == len(runs) and sorted(p.name for p in (reused / "out").iterdir()) == files
        for name in files:
            assert (reused / "out" / name).read_bytes() == (fresh / "out" / name).read_bytes()
        args = cli._parser.parse_args(["stability-map", "--k", "2"])
        assert args.fix == [] and args.vary == []

    def test_requires_two_axes(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "stability-map", "--k", "2", "--fix", "alpha1=2",
            "--vary", "alpha_f:0:1:3", "--out", str(tmp_path),
        )
        assert code == 2
        assert "error:" in err


class TestLimits:
    def test_writes_both_limits(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys, "limits", "--k", "2", "--rho", "0.1,0.4", "--out", str(tmp_path)
        )
        assert code == 0
        data = json.loads(Path(summary_file(out)).read_text())
        assert data["sigma_inf"] == [0.1, 0.1, 0.0, 0.4, 0.4, 0.4]
        assert data["sigma_zero"][0] == 1.0


class TestFlagValidation:
    def test_rho_count_mismatch_exits_2(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "params", "--k", "2", "--rho", "0.5", "--out", str(tmp_path)
        )
        assert code == 2
        assert "rho" in err

    def test_rho_out_of_range_exits_2(self, tmp_path, capsys):
        code, _, _ = run_cli(
            capsys, "params", "--k", "1", "--rho", "1.5", "--out", str(tmp_path)
        )
        assert code == 2

    def test_nonpositive_tau_exits_2(self, tmp_path, capsys):
        code, _, _ = run_cli(
            capsys, "simulate", "--k", "1", "--rho", "0.5",
            "--lambda", "1", "--u0", "1", "--v0", "0",
            "--tau", "0", "--steps", "4", "--out", str(tmp_path),
        )
        assert code == 2

    def test_unknown_subcommand_exits_2(self, capsys):
        assert run_cli(capsys, "bogus")[0] == 2

    def test_malformed_vary_exits_2(self, tmp_path, capsys):
        code, _, _ = run_cli(
            capsys, "stability-map", "--k", "2", "--vary", "alpha_f:0:1",
            "--out", str(tmp_path),
        )
        assert code == 2

    @pytest.mark.parametrize("flag, value", [
        ("--lambda", "nan"), ("--u0", "nan"), ("--tau", "inf"),
    ])
    def test_nonfinite_simulate_flag_exits_2(self, tmp_path, capsys, flag, value):
        flags = {"--lambda": "1", "--u0": "1", "--v0": "0", "--tau": "0.1", flag: value}
        argv = [x for item in flags.items() for x in item]
        code, out, _ = run_cli(
            capsys, "simulate", "--k", "1", "--rho", "0.5", *argv,
            "--steps", "4", "--out", str(tmp_path),
        )
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("sigma_min, sigma_max, points", [
        ("0", "1e3", "5"), ("1e3", "1e3", "5"), ("1e3", "1e-3", "5"), ("1e-3", "1e3", "1"),
        ("1e-3", "1e3", "100001"),
    ])
    def test_out_of_domain_sweep_exits_2(self, tmp_path, capsys, sigma_min, sigma_max, points):
        code, out, _ = run_cli(
            capsys, "spectrum", "--k", "1", "--rho", "0.5", "--sigma-min", sigma_min,
            "--sigma-max", sigma_max, "--points", points, "--out", str(tmp_path),
        )
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("flags", [
        ("--vary", "alpha_f:0:1:1", "--vary", "alpha2:0:1:3"),
        ("--vary", "alpha_f:0:1:3", "--vary", "alpha2:0:1:3", "--sigma-points", "1"),
        ("--fix", "alpha1", "--vary", "alpha_f:0:1:3", "--vary", "alpha2:0:1:3"),
        ("--fix", "alpha1=nan", "--vary", "alpha2:1:2:3", "--vary", "alpha_f:0.5:1:3"),
        ("--fix", "alpha1=2", "--vary", "alpha_f:nan:1:3", "--vary", "alpha2:1:2:3"),
        ("--fix", "alpha1=2,bogus=5", "--vary", "alpha_f:0.5:1:3", "--vary", "alpha2:1:2:3"),
        ("--vary", "alpha_f:0.5:1:3", "--vary", "alpha2:1:2:3"),
        ("--fix", "alpha1=2", "--vary", "alpha_f:0.5:1:3", "--vary", "alpha2:1:2:3",
         "--sigma-points", "100001"),
        # 317 x 317 = 100 489 map points (once run to exit 0 in about 3 s)
        ("--fix", "alpha1=2", "--vary", "alpha_f:0.5:1:317", "--vary", "alpha2:1:2:317",
         "--sigma-points", "2"),
    ])
    def test_out_of_domain_map_exits_2(self, tmp_path, capsys, flags):
        code, out, _ = run_cli(
            capsys, "stability-map", "--k", "2", *flags, "--out", str(tmp_path),
        )
        assert code == 2
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("T, steps", [("1", "8,4,16"), ("-1", "8,16,32"), ("1", "0,1,2")])
    def test_out_of_domain_converge_exits_2(self, tmp_path, capsys, T, steps):
        code, out, _ = run_cli(
            capsys, "converge", "--k", "1", "--rho", "0.5", "--lambda", "1",
            "--T", T, "--steps", steps, "--out", str(tmp_path),
        )
        assert code == 2
        assert out == ""

    def test_nonfinite_sigma_max_exits_2(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys, "spectrum", "--k", "1", "--rho", "0.5", "--sigma-min", "1e-3",
            "--sigma-max", "inf", "--points", "5", "--out", str(tmp_path),
        )
        assert code == 2
        assert out == ""

    def test_negative_dump_sigma_exits_2_without_artifacts(self, tmp_path, capsys):
        # once rejected only after the spectrum CSV was written (exit 1)
        code, out, err = run_cli(
            capsys, "spectrum", "--k", "1", "--rho", "0.5", "--sigma-min", "1e-3",
            "--sigma-max", "1e3", "--points", "5", "--dump-matrices-sigma", "-1",
            "--out", str(tmp_path),
        )
        assert code == 2
        assert out == ""
        assert "--dump-matrices-sigma" in err
        assert list(tmp_path.iterdir()) == []


def test_unusable_out_exits_1(tmp_path, capsys):
    # once a FileExistsError traceback out of run
    out = tmp_path / "file"
    out.write_text("")
    code, stdout, err = run_cli(capsys, "params", "--k", "1", "--rho", "0.5", "--out", str(out))
    assert code == 1
    assert stdout == ""
    assert err.startswith("error:")


def test_out_under_a_file_exits_1(tmp_path, capsys):
    # mkdir under a regular file raises NotADirectoryError
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "sub"
    code, stdout, err = run_cli(capsys, "params", "--k", "1", "--rho", "0.5", "--out", str(out))
    assert code == 1
    assert stdout == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("argv", [
    # lambda*tau^2 overflows in the step divisor (once NaN rows, exit 0)
    ("simulate", "--k", "1", "--rho", "0.5", "--lambda", "1e200", "--u0", "1", "--v0", "0",
     "--tau", "1e60", "--steps", "3"),
    # the same at tau = T/1 (once NaN orders and NaN tokens in the JSON, exit 0)
    ("converge", "--k", "1", "--rho", "0.5", "--lambda", "1e300", "--T", "1e10", "--steps", "1,2,4"),
    # lambda^2 overflows Python's float ** in the initial state (once an errno tuple)
    ("simulate", "--k", "2", "--rho", "0.5,0.5", "--lambda", "1e300", "--u0", "1", "--v0", "0",
     "--tau", "1", "--steps", "3"),
    # the state overflows from finite coefficients (once NaN rows, exit 0)
    ("simulate", "--k", "1", "--rho", "0.5", "--lambda", "1", "--u0", "1.7e308", "--v0", "1.7e308",
     "--tau", "0.5", "--steps", "3"),
    # the same in a convergence study (once NaN orders and NaN tokens in the JSON, exit 0)
    ("converge", "--k", "1", "--rho", "0.5", "--lambda", "1", "--u0", "1.7e308", "--v0", "1.7e308",
     "--T", "1", "--steps", "1,2,4"),
    # lambda^2 * u0 overflows in the initial state (once NaN rows, exit 0)
    ("simulate", "--k", "2", "--rho", "0.5,0.5", "--lambda", "1e150", "--u0", "1e10", "--v0", "0",
     "--tau", "1e-3", "--steps", "2"),
])
def test_overflowing_coefficients_exit_1_without_artifacts(tmp_path, capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path / "out"))
    assert code == 1
    assert out == ""
    assert "at lambda = " in err
    assert not (tmp_path / "out").exists()


def test_parser_builds():
    parser = build_parser()
    args = parser.parse_args(["params", "--k", "1", "--rho", "0.5"])
    assert args.k == 1 and args.rho == [0.5]
