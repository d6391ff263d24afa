"""Tests for the command-line interface."""

import csv
import importlib
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import risofdm
from risofdm.cli import MAX_SWEEP_VALUES, _parse_sweep, main

from record_pins import DATA, FIG3_ARGS

FIG3_TABLE = DATA / "fig3_complexity.csv"


def run_cli(*args):
    return main(list(args))


class TestSweepParser:
    def test_explicit_list(self):
        assert _parse_sweep("m=1,2,4") == ("m", [1.0, 2.0, 4.0])

    def test_arithmetic_range(self):
        assert _parse_sweep("epsilon=0:0.02:0.01") == ("epsilon", [0.0, 0.01, 0.02])

    @pytest.mark.parametrize(
        "spec, expected",
        [
            ("epsilon=-0.3:0:0.1", [-0.3, -0.2, -0.1, 0.0]),
            ("epsilon=-0.05:-0.01:0.01", [-0.05, -0.04, -0.03, -0.02, -0.01]),
        ],
    )
    def test_arithmetic_range_keeps_a_stop_at_or_below_zero(self, spec, expected):
        # The running sum rounds just past such a stop, which used to drop it.
        name, values = _parse_sweep(spec)
        assert name == "epsilon"
        assert values == pytest.approx(expected, abs=1e-12)

    def test_geometric_range(self):
        assert _parse_sweep("m=1:8:x2") == ("m", [1.0, 2.0, 4.0, 8.0])

    @pytest.mark.parametrize(
        "spec, expected",
        [
            ("epsilon=-0.3:0:0.1", [-0.3, -0.2, -0.1, 0.0]),
            ("epsilon=0:0.1:0.01", [0.0, 0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08, 0.09, 0.1]),
            ("epsilon=-0.05:-0.01:0.01", [-0.05, -0.04, -0.03, -0.02, -0.01]),
            ("m=0.1:1:x3", [0.1, 0.3, 0.9]),
            ("m=1:1024:x2", [2.0**k for k in range(11)]),
        ],
    )
    def test_range_is_the_stated_grid(self, spec, expected):
        # Values used to be a running sum or product and carried its rounding:
        # 2.7755575615628914e-17 for the stop 0, 0.060000000000000005 for 0.06.
        assert _parse_sweep(spec)[1] == expected

    def test_range_length_bound_is_exact(self):
        assert len(_parse_sweep(f"m=1:{MAX_SWEEP_VALUES}")[1]) == MAX_SWEEP_VALUES
        assert len(_parse_sweep(f"m=0:{MAX_SWEEP_VALUES - 1}:1")[1]) == MAX_SWEEP_VALUES
        for spec in (f"m=0:{MAX_SWEEP_VALUES}", f"m=0:1:{1 / MAX_SWEEP_VALUES}"):
            with pytest.raises(ValueError, match=f"more than {MAX_SWEEP_VALUES} values"):
                _parse_sweep(spec)

    def test_malformed(self):
        with pytest.raises(ValueError):
            _parse_sweep("m")
        with pytest.raises(ValueError):
            _parse_sweep("m=1:8:0")
        # Values that are not numbers used to be reported with no word of the sweep.
        for spec in ("m=1:8:x", "m=1:8:xabc", "m=a:b", "m=1,,2"):
            with pytest.raises(ValueError, match=re.escape(repr(spec))):
                _parse_sweep(spec)

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

    def test_closed_form_x_column_is_the_stated_grid(self, capsys):
        # The stop 0 used to print as 2.77555756156e-17, and the model was
        # evaluated there.
        assert run_cli("closed-form", "--sweep", "epsilon=-0.3:0:0.1") == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["-0.3", "-0.2", "-0.1", "0"]
        assert run_cli("closed-form", "--sweep", "epsilon=0") == 0
        assert capsys.readouterr().out.strip().splitlines()[1:] == rows[-1:]

    def test_fig3_table_bytes(self, capsys):
        # The paper's Fig. 3 operation counts, pinned byte for byte.
        assert run_cli(*FIG3_ARGS) == 0
        assert capsys.readouterr().out.encode() == FIG3_TABLE.read_bytes()

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
        "field, value",
        [("x_axis", ["m"]), ("out", ["a"]), pytest.param("snr_db", 10**400, id="snr_db-beyond-float"),
         pytest.param("snr_db", -4000, id="snr_db-noise-beyond-float")],
    )
    def test_malformed_config_field_exits_2_naming_it(self, tmp_path, capsys, field, value):
        # Each used to end in a traceback, and exit 1 as if a check failed.
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"n": 64, "l": 8, "l_cp": 10, "trials": 2, field: value}))
        assert run_cli("simulate", "--config", str(cfg_path)) == 2
        assert capsys.readouterr().err.startswith(f"error: {field}")

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
        "command, sweep",
        [("complexity", "m=1:2:1e-300"), ("closed-form", "m=1:2:x1.0000000001")],
    )
    def test_sweep_too_long_to_build_exits_2_at_once(self, capsys, command, sweep):
        # The first ran until memory ran out; the second's exact powers would
        # take hours.  Both are counted before any value is built.
        start = time.perf_counter()
        assert run_cli(command, "--sweep", sweep) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(sweep) in err and "values" in err

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
            (("complexity", "--sweep", "m=1,2", "--n", "64", "--n-p", "24", "--l", "8"), "n_p"),
            (("complexity", "--sweep", "m=0,1"), "m"),
            (("closed-form", "--sweep", "m=1,2", "--snr-db=-4000"), "sigma2"),
        ],
    )
    def test_parameters_no_frame_can_have_exit_2(self, capsys, args, name):
        # All but --epsilon nan and m=0 used to write rows; those two named
        # no parameter.
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


def test_console_script_entry_runs(capsys):
    # The [project.scripts] entry that every `risofdm ...` command runs.
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    entry = tomllib.loads(pyproject.read_text())["project"]["scripts"]["risofdm"]
    module, function = entry.split(":")
    script = getattr(importlib.import_module(module), function)
    assert script(["closed-form", "--sweep", "m=1,2"]) == 0
    assert capsys.readouterr().out.startswith("x,metric")


def test_import_leaves_the_thread_pool_unloaded():
    # concurrent.futures and the logging it imports cost every command about
    # 12 ms at start-up; only a run with workers > 1 needs them.
    proc = run_python("-c", "import sys, risofdm.cli; print('concurrent.futures' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
