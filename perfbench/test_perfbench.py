"""Tests of the benchmark itself: every metric is emitted, and checks bite.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
from measure import Outcome  # noqa: E402
from workloads import WORKLOADS, build_config  # noqa: E402

from risofdm import run_monte_carlo  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
CHECK_TRIALS = 24

# Calls per trial of the two stages whose count the pipeline fixes.
EXPECTED_CALLS = {
    "fig4b_point": {"link.transmit_frame": 2, "estimators.baseline_cfr_full": 2},
    "fig4a_m64": {"link.transmit_frame": 1, "estimators.baseline_cfr_full": 0},
    "fig2_grid": {"link.transmit_frame": 1, "estimators.baseline_cfr_full": 1},
}


def bench(workload: str, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", workload,
            "--seed", "7",
            "--seconds", "0",
            "--trace", str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def test_workloads_match_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_emits_every_metric(workload, trace):
    lines, result = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    printed = {tuple(line.split(" ")[::2]) for line in lines if line.count(" ") == 2}
    assert {(m["name"], m["unit"]) for m in spec} <= printed  # by name, with unit
    assert any(line.startswith("failed_frac 0 ") for line in lines)
    if trace:
        for stage, calls in EXPECTED_CALLS[workload].items():
            assert result["metrics"][f"{stage}.calls_per_trial"]["value"] == calls


@pytest.fixture(scope="module")
def fig2_curve():
    cfg = build_config(WORKLOADS["fig2_grid"], 11, CHECK_TRIALS)
    return cfg, run_monte_carlo(cfg)


def test_wrong_reference_fails_every_point(fig2_curve):
    cfg, curve = fig2_curve
    n_points = 16
    right = Outcome(checks.load_reference("fig2_grid"), noise_check=True)
    right.record(cfg, n_points, curve)
    assert (right.attempted, right.failed) == (n_points, 0)
    wrong = Outcome(checks.load_reference("fig2_grid", scale=2), noise_check=True)
    wrong.record(cfg, n_points, curve)
    assert wrong.failed == wrong.attempted == n_points


def test_checks_pass_on_real_output(fig2_curve):
    cfg, curve = fig2_curve
    reference = checks.load_reference("fig2_grid")
    assert checks.check_reference(curve, reference)[0] == set()
    assert checks.check_noise_term(cfg, curve, reference) == (set(), 4)


def test_perturbed_estimate_fails_checks(fig2_curve):
    cfg, curve = fig2_curve
    reference = checks.load_reference("fig2_grid")
    target = next(
        i for i, p in enumerate(curve) if p.metric == "cfr_nmse_baseline_rom[epsilon=0]"
    )
    bad = list(curve)
    bad[target] = replace(curve[target], mean=2 * curve[target].mean)
    point = checks.point_key(bad[target].x, bad[target].metric)
    assert checks.check_reference(bad, reference)[0] == {point}
    assert checks.check_noise_term(cfg, bad, reference)[0] == {point}
    missing = curve[:target] + curve[target + 1 :]
    assert checks.check_reference(missing, reference)[0] == {point}


def test_replay_equals_run_monte_carlo():
    cfg = build_config(WORKLOADS["fig4b_point"], 5, 6)
    rec = tracing.SpanRecorder()
    assert tracing.replay(cfg, rec) == tracing.plain_means(run_monte_carlo(cfg))
    assert len(rec.trials) == cfg.trials
