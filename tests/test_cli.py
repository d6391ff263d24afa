"""Tests for the command-line interface."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import risofdm
from risofdm.cli import _parse_sweep, main
from risofdm.harness import read_csv


def run_cli(*args):
    return main(list(args))


class TestSweepParser:
    def test_explicit_list(self):
        assert _parse_sweep("m=1,2,4") == ("m", [1.0, 2.0, 4.0])

    def test_arithmetic_range(self):
        assert _parse_sweep("epsilon=0:0.02:0.01") == ("epsilon", [0.0, 0.01, 0.02])

    def test_geometric_range(self):
        assert _parse_sweep("m=1:8:x2") == ("m", [1.0, 2.0, 4.0, 8.0])

    def test_malformed(self):
        with pytest.raises(ValueError):
            _parse_sweep("m")
        with pytest.raises(ValueError):
            _parse_sweep("m=1:8:0")

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("m=0:8:x2", "start above 0"),
            ("epsilon=-0.1:0.1:x2", "start above 0"),
            ("m=1:inf", "finite"),
            ("m=1:inf:x2", "finite"),
            ("m=-inf:4", "finite"),
            ("m=nan:4", "finite"),
            ("epsilon=0:0.1:inf", "finite"),
            ("m=1:8:xinf", "finite"),
            ("epsilon=nan,inf", "finite"),
        ],
    )
    def test_sweep_that_would_never_end_rejected(self, spec, message):
        # Each range here used to loop forever, its value list growing; the
        # list used to fail in the models with a message naming no sweep.
        with pytest.raises(ValueError, match=message):
            _parse_sweep(spec)


class TestCommands:
    def test_closed_form_stdout(self, capsys):
        assert run_cli("closed-form", "--sweep", "m=1,4", "--epsilon", "0.01") == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "x,metric,mean,ci95,trials"
        assert len(out) == 3

    def test_complexity_csv(self, tmp_path, capsys):
        out_path = tmp_path / "cx.csv"
        code = run_cli("complexity", "--sweep", "m=50,100", "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert len(lines) == 7  # header + 3 metrics x 2 points

    def test_simulate_with_overrides(self, tmp_path):
        cfg = dict(
            n=64, l=8, l_cp=10, m=1, n_z=4, snr_db=10.0,
            epsilon={"policy": "uniform"}, trials=100, base_seed=5,
            estimator="proposed",
        )
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out_path = tmp_path / "out.csv"
        code = run_cli(
            "simulate", "--config", str(cfg_path),
            "--trials", "10", "--seed", "3", "--out", str(out_path),
        )
        assert code == 0
        text = out_path.read_text()
        assert text.startswith("x,metric,mean,ci95,trials")
        assert ",10\n" in text  # overridden trial count

    def test_simulate_stdout_equals_out_file(self, tmp_path, capsys):
        # Two label axes put a comma inside every metric label, which only a
        # quoting CSV writer keeps in one field.
        cfg = dict(
            n=64, l=8, l_cp=10, m=[1, 2], n_z=[2, 4], snr_db=[10.0, 20.0],
            epsilon={"policy": "uniform"}, trials=4, base_seed=5,
            estimator="proposed", x_axis="n_z",
        )
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out_path = tmp_path / "out.csv"
        assert run_cli("simulate", "--config", str(cfg_path)) == 0
        stdout = capsys.readouterr().out
        assert run_cli("simulate", "--config", str(cfg_path), "--out", str(out_path)) == 0
        assert stdout.encode() == out_path.read_bytes()
        rows = list(csv.reader(io.StringIO(stdout, newline="")))
        assert rows[1][1] == "cfo_mse[snr_db=10,m=1]"
        assert all(len(row) == 5 for row in rows)

    def test_simulate_bad_config_exits_2(self, tmp_path, capsys):
        # Fixed offsets that are not numbers used to end in a traceback.
        bad_offsets = [{"policy": "fixed", "values": v} for v in ("0.1", 0.1, ["a"], [True])]
        extras = [{"n_z": 1}, {"pdp_decay": "0.3"}, {"estimator": "complexity"}]
        for extra in extras + [{"epsilon": e} for e in bad_offsets]:
            cfg_path = tmp_path / "bad.json"
            cfg_path.write_text(json.dumps({"n": 64, "l": 8, "l_cp": 10, **extra}))
            assert run_cli("simulate", "--config", str(cfg_path)) == 2
            assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, sweep",
        [("closed-form", "m=1:8:x1.5"), ("complexity", "m=1,2.5"), ("complexity", "l=8:9:0.5"),
         ("complexity", "n_z=2,3.5")],
    )
    def test_non_integer_sweep_on_an_integer_axis_exits_2(self, capsys, command, sweep):
        # These used to print rows at the truncated value, e.g. M=1 at x=1.5.
        assert run_cli(command, "--sweep", sweep) == 2
        assert "sweep values must be integers" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, sweep",
        [("complexity", "m=0:8:x2"), ("closed-form", "epsilon=-0.1:0.1:x2"), ("complexity", "m=1:inf"),
         ("closed-form", "epsilon=nan,inf")],
    )
    def test_endless_sweep_exits_2(self, capsys, command, sweep):
        assert run_cli(command, "--sweep", sweep) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "sweep" in err

    @pytest.mark.parametrize(
        "args, name",
        [
            (("closed-form", "--sweep", "m=1,2", "--snr-db", "nan"), "sigma2"),
            (("closed-form", "--sweep", "m=1,2", "--snr-db=-inf"), "sigma2"),
            (("closed-form", "--sweep", "m=1,2", "--epsilon", "nan"), "epsilon"),
            (("closed-form", "--sweep", "m=1,2", "--l-cp", "3"), "l_cp"),
            (("closed-form", "--sweep", "m=1,2", "--l", "0"), "l"),
            (("complexity", "--sweep", "n_z=1,2", "--n", "1024", "--l", "102"), "n_z"),
            (("complexity", "--sweep", "m=1,2", "--n", "64", "--n-p", "128"), "n_p"),
        ],
    )
    def test_parameters_no_frame_can_have_exit_2(self, capsys, args, name):
        # All but --epsilon nan used to write rows; that one named no parameter.
        assert run_cli(*args) == 2
        assert capsys.readouterr().err.startswith(f"error: {name}")

    def test_noiseless_closed_form_is_the_inf_snr(self, capsys):
        assert run_cli("closed-form", "--sweep", "m=1,4", "--epsilon", "0", "--snr-db", "inf") == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert [float(row[2]) for row in rows[1:]] == [0.0, 0.0]

    def test_sigma2_option_removed(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run_cli("closed-form", "--sweep", "m=1,2", "--sigma2", "0.1")
        assert exit_info.value.code == 2

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_bad_worker_count_exits_2(self, tmp_path, capsys, workers):
        # Both used to run serially.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"n": 64, "l": 8, "l_cp": 10, "trials": 2}))
        assert run_cli("simulate", "--config", str(cfg_path), "--workers", workers) == 2
        assert "workers must be >= 1" in capsys.readouterr().err

    def test_recipe_config_out(self, tmp_path):
        path = tmp_path / "fig2.json"
        assert run_cli("recipe", "fig2", "--config-out", str(path)) == 0
        assert json.loads(path.read_text())["n"] == 64

    def test_recipe_fig3_run(self, tmp_path):
        # The paper's Fig. 3 table, over M = 1, 2, 4, ..., 1024, is written
        # by the complexity subcommand, not by a Monte Carlo recipe.
        path = tmp_path / "fig3.csv"
        sweep = ("--sweep", "m=1:1024:x2", "--n", "1024", "--l", "102", "--n-z", "4")
        assert run_cli("complexity", *sweep, "--out", str(path)) == 0
        points = read_csv(path)
        metrics = {p.metric for p in points}
        assert metrics == {"complexity_cfr", "complexity_joint", "complexity_ratio"}
        ratios = [p for p in points if p.metric == "complexity_ratio"]
        assert [p.x for p in ratios] == [2.0**i for i in range(11)]
        assert all(p.trials == 0 for p in ratios)

    def test_verify_pass_and_fail_exit_codes(self):
        # The mutation deliberately breaks the pipeline; the suite must
        # fail, which the CLI maps to exit code 1.
        assert run_cli("verify", "exactness", "--seed", "11") == 0
        assert (
            run_cli(
                "verify", "exactness", "--seed", "11",
                "--mutation", "drop_block_phase",
            )
            == 1
        )

    def test_verify_mutation_requires_exactness(self, capsys):
        code = run_cli("verify", "closed_form", "--mutation", "ones_pattern")
        assert code == 2


def run_python(*args: str) -> subprocess.CompletedProcess:
    # The child imports the same package as this process, installed or not.
    package_root = str(Path(risofdm.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_console_entry_point_runs():
    proc = run_python("-m", "risofdm.cli", "closed-form", "--sweep", "m=1,2")
    assert proc.returncode == 0
    assert proc.stdout.startswith("x,metric")


def test_import_leaves_the_thread_pool_unloaded():
    # concurrent.futures and the logging it imports cost every command about
    # 12 ms at start-up; only a run with workers > 1 needs them.
    proc = run_python("-c", "import sys, risofdm.cli; print('concurrent.futures' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
