"""Byte-level reproducibility of the CSV output.

The golden file pins the exact ``emit_csv`` bytes of one tiny ``both``
config in which every stage runs (periodic and baseline frames, the joint
estimator, a compensated and an uncompensated comb baseline).  Any change
that moves a byte must say which rows moved and why, then regenerate it.
"""

import math
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risofdm import harness
from risofdm.harness import ExperimentConfig, emit_csv, run_monte_carlo

GOLDEN = Path(__file__).parent / "data" / "golden_both.csv"

GOLDEN_CONFIG = ExperimentConfig(
    n=32,
    l=4,
    l_cp=5,
    m=[1, 3],
    n_z=3,
    n_p=8,
    snr_db=[5.0, 20.0],
    epsilon={"policy": "uniform"},
    trials=8,
    base_seed=2024,
    estimator="both",
    compensate_baseline=True,
)


def test_golden_csv_bytes(tmp_path):
    path = tmp_path / "golden.csv"
    emit_csv(run_monte_carlo(GOLDEN_CONFIG), path)
    assert path.read_bytes() == GOLDEN.read_bytes()


@st.composite
def small_configs(draw):
    """Small valid Monte Carlo configs over every estimator and axis."""
    l = draw(st.sampled_from([2, 4, 8]))
    n_s = draw(st.integers(2, 8))
    n = n_s * l
    estimator = draw(st.sampled_from(["proposed", "baseline", "both"]))
    fixed = draw(st.booleans())
    offsets = st.lists(st.sampled_from([0.0, 0.01, -0.3]), min_size=1, max_size=2, unique=True)
    epsilon = {"policy": "fixed", "values": draw(offsets)} if fixed else {"policy": "uniform"}
    combs = [None] + [p for p in range(l, n + 1) if n % p == 0]
    return ExperimentConfig(
        n=n,
        l=l,
        l_cp=draw(st.integers(l, 2 * l)),
        m=draw(st.lists(st.integers(0, 6), min_size=1, max_size=2, unique=True)),
        n_z=draw(st.integers(2, n_s)),
        n_p=None if estimator == "proposed" else draw(st.sampled_from(combs)),
        snr_db=draw(st.sampled_from([0.0, 10.0, 30.0])),
        epsilon=epsilon,
        trials=draw(st.integers(2, 9)),
        base_seed=draw(st.integers(0, 2**32 - 1)),
        estimator=estimator,
        zc_root=draw(st.sampled_from([q for q in range(1, 2 * l) if math.gcd(q, l) == 1])),
        x_axis=draw(st.sampled_from(["snr_db", "m"] + (["epsilon"] if fixed else []))),
        compensate_baseline=estimator == "both" and draw(st.booleans()),
    )


@settings(max_examples=12, deadline=None)
@given(cfg=small_configs())
def test_csv_bytes_do_not_depend_on_worker_count(tmp_path_factory, cfg):
    """The worker count moves no byte.

    These small configs fit a grid point in one block, which the first
    worker runs alone; concurrent blocks are checked below, with one-trial
    blocks and with uneven ones.
    """
    out = tmp_path_factory.mktemp("workers")
    serial, threaded = out / "serial.csv", out / "threaded.csv"
    emit_csv(run_monte_carlo(cfg, workers=1), serial)
    emit_csv(run_monte_carlo(cfg, workers=2), threaded)
    assert serial.read_bytes() == threaded.read_bytes()


@settings(max_examples=12, deadline=None)
@given(cfg=small_configs(), cap=st.integers(1, 600))
def test_csv_bytes_do_not_depend_on_block_size(tmp_path_factory, cfg, cap):
    """One-trial blocks, uneven blocks and whole-point blocks give the same bytes.

    The small configs fit a whole grid point in one default block; a cap of
    one sample forces one-trial blocks, and the drawn cap cuts the points
    into blocks whose last one may be short.  The CSV keeps 12 digits, so
    the curves' floats are compared too: they must agree to the last bit.
    """
    curves = [run_monte_carlo(cfg)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "CAP", 1)
        curves.append(run_monte_carlo(cfg))
        curves.append(run_monte_carlo(cfg, workers=2))
        patch.setattr(harness, "CAP", cap)
        curves.append(run_monte_carlo(cfg, workers=2))
    out = tmp_path_factory.mktemp("blocks")
    for i, curve in enumerate(curves):
        emit_csv(curve, out / f"{i}.csv")
        assert curve == curves[0]
    assert len({(out / f"{i}.csv").read_bytes() for i in range(len(curves))}) == 1


@pytest.mark.parametrize(
    "geometry",
    [
        dict(n=256, l=32, l_cp=34, n_z=4),  # the fig4b point
        dict(n=256, l=16, l_cp=16, n_z=16),  # training over the whole symbol, n_z = N/L
    ],
    ids=["fig4b", "n_z16"],
)
def test_whole_point_blocks_of_large_arrays_give_one_trial_bits(tmp_path, monkeypatch, geometry):
    """A block's bits do not depend on its arrays' size.

    With the whole point in one block, the arrays are past the 256 KiB at
    which numpy reuses temporaries as outputs; the small configs above
    never reach it.  The curves must equal those of one-trial blocks to
    the last bit, and so must the CSV bytes.
    """
    cfg = ExperimentConfig(
        **geometry, m=16, n_p=128, snr_db=10.0, trials=20, base_seed=11,
        estimator="both", compensate_baseline=True,
    )
    whole_point = cfg.trials * cfg.n * (cfg.m + 1)
    curves = []
    for cap in (1, whole_point):
        monkeypatch.setattr(harness, "CAP", cap)
        curves.append(run_monte_carlo(cfg))
        emit_csv(curves[-1], tmp_path / f"{cap}.csv")
    assert curves[1] == curves[0]
    assert (tmp_path / "1.csv").read_bytes() == (tmp_path / f"{whole_point}.csv").read_bytes()


def test_many_threads_switching_often_give_the_serial_bytes(tmp_path, monkeypatch):
    """More workers than cores, switching threads often, over the shared caches.

    Four threads take the blocks of each point (85 and 42 trials, under a
    cap of 8192 samples) and share the phase-ramp cache, which keeps only
    two ramps (each one a block's stack of per-trial ramps), and the
    pilot-spectrum cache; any cross-talk between them moves a byte.
    """
    monkeypatch.setattr(harness, "CAP", 8192)
    cfg = ExperimentConfig(
        n=32, l=4, l_cp=4, m=[2, 5], n_z=4, n_p=16, trials=400, base_seed=7, estimator="both"
    )
    serial, threaded = tmp_path / "serial.csv", tmp_path / "threaded.csv"
    emit_csv(run_monte_carlo(cfg, workers=1), serial)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        emit_csv(run_monte_carlo(cfg, workers=4), threaded)
    finally:
        sys.setswitchinterval(interval)
    assert serial.read_bytes() == threaded.read_bytes()
