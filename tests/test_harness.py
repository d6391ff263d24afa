"""Tests for the Monte Carlo harness: configs, grids, reproducibility, CSV."""

import ctypes
import itertools
import json
import math
import platform
import resource
import sys
import tracemalloc
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risofdm import analysis, verification
from risofdm.cli import complexity_points
from risofdm.errors import ConfigError
from risofdm.frame import FrameGeometry
from risofdm.harness import (
    CAP,
    RECIPES,
    CurvePoint,
    ExperimentConfig,
    block_size,
    emit_csv,
    load_config,
    read_csv,
    recipe,
    resolve_grid,
    run_monte_carlo,
)
from risofdm.link import phase_ramp


def small_config(**kwargs):
    defaults = dict(
        n=64,
        l=8,
        l_cp=10,
        m=2,
        n_z=4,
        snr_db=10.0,
        epsilon={"policy": "uniform"},
        trials=50,
        base_seed=99,
        estimator="proposed",
        x_axis="snr_db",
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


class TestConfig:
    def test_json_round_trip(self):
        cfg = small_config()
        again = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert again == cfg

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"n": 64, "l": 8, "l_cp": 10, "bogus": 1})

    def test_missing_field_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"n": 64})

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ConfigError):
            small_config(n_z=1).validate()

    def test_invalid_epsilon_rejected(self):
        # Offsets that are not a list of numbers used to escape validate()
        # as a TypeError, or for [True] to be reported as out of range.
        for values, message in (
            ([0.7], "outside"),
            ("0.1", "nonempty list"),
            (0.1, "nonempty list"),
            (["a"], "not a number"),
            ([True], "not a number"),
            ([0.0, None], "not a number"),
        ):
            with pytest.raises(ConfigError, match=message):
                small_config(epsilon={"policy": "fixed", "values": values}).validate()

    @pytest.mark.parametrize("axis", ["m", "n_z", "snr_db"])
    @pytest.mark.parametrize("estimator", ["proposed", "baseline"])
    def test_empty_grid_axis_rejected(self, axis, estimator):
        # An empty axis used to pass and run a grid of no points.
        with pytest.raises(ConfigError, match=f"{axis} must not be an empty list"):
            small_config(estimator=estimator, **{axis: []}).validate()

    @pytest.mark.parametrize("snr_db", [float("nan"), float("inf"), [10.0, float("-inf")]])
    def test_non_finite_snr_rejected(self, snr_db):
        with pytest.raises(ConfigError, match="snr_db"):
            small_config(snr_db=snr_db).validate()

    @pytest.mark.parametrize("n_p", [24, 4, 0, 128])
    def test_comb_that_cannot_be_uniform_or_resolve_taps_rejected(self, n_p):
        # n=64, l=8: 24 and 128 do not divide n; 4 is below l; 0 is empty.
        with pytest.raises(ConfigError, match="n_p"):
            small_config(estimator="both", n_p=n_p).validate()

    def test_empty_comb_of_no_taps_rejected(self):
        # l=0 with n_p=0 used to escape validate() as a ZeroDivisionError.
        with pytest.raises(ConfigError, match="^l "):
            small_config(estimator="both", l=0, n_p=0).validate()

    def test_comb_without_a_baseline_rejected(self):
        # The proposed pipeline sends no comb, so n_p used to be ignored.
        with pytest.raises(ConfigError, match="n_p .*estimator='proposed'"):
            small_config(estimator="proposed", n_p=32).validate()
        small_config(estimator="baseline", compensate_baseline=False, n_p=32).validate()

    def test_complexity_is_not_an_estimator(self):
        # Such a config used to print the operation counts, one labelled copy
        # per value of the Monte Carlo fields it ignored.
        with pytest.raises(ConfigError, match="use one of baseline, proposed, both"):
            small_config(estimator="complexity").validate()
        with pytest.raises(ConfigError, match="unknown estimator 'complexity'"):
            ExperimentConfig.from_dict({"n": 64, "l": 8, "l_cp": 10, "estimator": "complexity"})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n", 64.0),
            ("l", 8.0),
            ("l_cp", 10.0),
            ("n_p", 32.0),
            ("trials", 2.5),
            ("base_seed", 99.0),
            ("zc_root", 1.0),
            ("m", [2, 16.5]),
            ("n_z", [4.0]),
            ("n", True),
            ("trials", True),
            ("n_p", "32"),
            ("m", [False]),
            ("n_z", True),
            ("n", [64]),
            ("trials", [2]),
            ("base_seed", []),
        ],
    )
    def test_integer_fields_must_be_integers(self, field, value):
        # Each of these used to pass validate() and then fail in trial 0,
        # or run with a silently truncated value.
        kwargs = dict(estimator="both", trials=2)
        kwargs[field] = value
        cfg = small_config(**kwargs)
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            cfg.validate()
        with pytest.raises(ConfigError):
            run_monte_carlo(cfg)

    @pytest.mark.parametrize(
        "kwargs", [dict(zc_root=2), dict(pdp_decay=-1.0), dict(pdp_decay=float("nan"))]
    )
    def test_bad_training_root_or_delay_profile_rejected(self, kwargs):
        # Both used to pass validate() and fail at point set-up.
        with pytest.raises(ConfigError, match="zadoff_chu|exponential_pdp"):
            small_config(**kwargs).validate()

    @pytest.mark.parametrize(
        "field,kwargs",
        [("zc_root", dict(zc_root=2)), ("zc_root", dict(zc_root=0)),
         ("pdp_decay", dict(pdp_decay=-1.0)), ("pdp_decay", dict(pdp_decay=float("nan")))],
    )
    def test_training_root_or_delay_profile_message_starts_with_its_field(self, field, kwargs):
        with pytest.raises(ConfigError) as err:
            small_config(**kwargs).validate()
        assert str(err.value).startswith(f"{field}: ")

    def test_baseline_ignores_the_training_root(self, tmp_path):
        # Only the joint pipeline sends the training sequence.  A root that
        # is not coprime with l=8 used to pass validate() and then fail a
        # baseline run at point set-up.
        for zc_root in (1, 2):
            cfg = small_config(estimator="baseline", compensate_baseline=False, zc_root=zc_root)
            emit_csv(run_monte_carlo(cfg), tmp_path / f"{zc_root}.csv")
        assert (tmp_path / "1.csv").read_bytes() == (tmp_path / "2.csv").read_bytes()

    def test_snr_whose_noise_variance_overflows_rejected_before_any_trial(self, monkeypatch):
        # -4000 dB is a noise variance of 1e400, beyond the float range.  It
        # used to pass validate() and end the run in an OverflowError.
        import risofdm.harness as harness

        def no_trial(ctx, rngs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(harness, "run_trial", no_trial)
        cfg = small_config(snr_db=[10.0, -4000.0])
        for call in (cfg.validate, lambda: run_monte_carlo(cfg)):
            with pytest.raises(ConfigError) as err:
                call()
            assert str(err.value).startswith("snr_db")

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="base_seed"):
            small_config(base_seed=-1).validate()

    def test_baseline_cannot_be_compensated(self):
        # There is no offset estimate to compensate with; the error names
        # both ways out.
        with pytest.raises(ConfigError, match="compensate_baseline=false.*estimator='both'"):
            small_config(estimator="baseline", compensate_baseline=True).validate()
        small_config(estimator="baseline", compensate_baseline=False).validate()
        small_config(estimator="both", compensate_baseline=True).validate()

    def test_compensate_baseline_must_be_a_bool(self):
        # "false" is truthy, so it used to run the compensated pipeline.
        with pytest.raises(ConfigError, match="compensate_baseline must be true or false"):
            small_config(estimator="both", compensate_baseline="false").validate()

    @pytest.mark.parametrize(
        "field, value",
        [("snr_db", [10.0, True]), ("snr_db", True), ("pdp_decay", "0.3"), ("pdp_decay", True)],
    )
    def test_real_fields_must_be_real_numbers(self, field, value):
        # A true SNR used to run at 1 dB; a "0.3" decay escaped validate()
        # as a TypeError.
        with pytest.raises(ConfigError, match=f"{field} .* is not a number"):
            small_config(**{field: value}).validate()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("x_axis", ["m"]),
            ("x_axis", {"m": 1}),
            ("out", ["a"]),
            ("out", True),
            ("out", 1),
            pytest.param("snr_db", 10**400, id="snr_db-beyond-float"),
            pytest.param("snr_db", [10.0, 10**400], id="snr_db-list-beyond-float"),
            pytest.param("pdp_decay", 10**400, id="pdp_decay-beyond-float"),
        ],
    )
    def test_malformed_field_rejected_naming_it(self, field, value):
        # A list or dict x_axis and a list out used to escape validate() as a
        # TypeError, an integer beyond the float range as an OverflowError; a
        # true or integer out was taken for a file descriptor.
        with pytest.raises(ConfigError) as err:
            small_config(**{field: value}).validate()
        assert str(err.value).startswith(field)

    @pytest.mark.parametrize(
        "epsilon",
        [
            {"policy": "uniform", "values": [0.1]},
            {"policy": "uniform", "value": 0.1},
            {"policy": "fixed", "values": [0.1], "spread": 0.2},
        ],
    )
    def test_epsilon_policy_with_keys_it_does_not_read_rejected(self, epsilon):
        # The extra keys used to be ignored without a word.
        with pytest.raises(ConfigError, match="takes no"):
            small_config(epsilon=epsilon).validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(m=[4, 4]),
            dict(n_z=[2, 4, 2]),
            dict(snr_db=[10, 10.0]),
            dict(epsilon={"policy": "fixed", "values": [0.1, -0.2, 0.1]}),
        ],
    )
    def test_repeated_grid_value_rejected(self, kwargs):
        # m=[4, 4] used to write two rows with the same (x, metric) key.
        with pytest.raises(ConfigError, match="repeats a value"):
            small_config(**kwargs).validate()

    def test_load_config(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(small_config().to_dict()))
        assert load_config(path) == small_config()

    def test_load_config_bad_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{broken")
        with pytest.raises(ConfigError):
            load_config(path)


class TestGrid:
    def test_single_point(self):
        points = resolve_grid(small_config())
        assert len(points) == 1
        assert points[0].label == ""

    def test_cartesian_product_and_labels(self):
        cfg = small_config(
            m=[2, 4],
            snr_db=[0.0, 10.0],
            epsilon={"policy": "fixed", "values": [0.0, 0.01]},
            x_axis="m",
        )
        points = resolve_grid(cfg)
        assert len(points) == 8
        assert points[0].x == 2.0
        assert all("snr_db=" in p.label and "epsilon=" in p.label for p in points)

    def test_trial_seeds_unique(self):
        keys = {(p, t) for p in range(4) for t in range(10)}
        seqs = {
            tuple(np.random.SeedSequence(1, spawn_key=k).generate_state(2)) for k in keys
        }
        assert len(seqs) == len(keys)


class TestRunMonteCarlo:
    def test_noiseless_proposed_is_exact(self):
        cfg = small_config(trials=3, snr_db=300.0)
        points = {p.metric: p for p in run_monte_carlo(cfg)}
        assert points["cir_nmse"].mean <= 1e-12
        assert points["cfo_mse"].mean <= 1e-18

    def test_deterministic_same_seed(self):
        a = run_monte_carlo(small_config())
        b = run_monte_carlo(small_config())
        assert a == b

    def test_seed_changes_results(self):
        a = run_monte_carlo(small_config())
        b = run_monte_carlo(small_config(base_seed=100))
        assert a != b

    @pytest.mark.parametrize("workers", [0, -3, True, 1.5, "2"])
    def test_bad_worker_count_rejected(self, workers):
        # 0 and -3 used to run serially without a word.
        with pytest.raises(ConfigError, match="workers"):
            run_monte_carlo(small_config(trials=2), workers=workers)

    def test_both_mode_reports_all_metrics(self):
        cfg = small_config(estimator="both", trials=5, n_p=32)
        names = {p.metric for p in run_monte_carlo(cfg)}
        assert {
            "cfo_mse",
            "cir_nmse",
            "cir_nmse_rom",
            "cfr_nmse_proposed",
            "cfr_nmse_proposed_rom",
            "cfr_nmse_baseline",
            "cfr_nmse_baseline_rom",
            "cfr_nmse_baseline_uncomp",
        } <= names

    def test_closed_form_overlay_rows(self):
        cfg = small_config(
            estimator="baseline",
            compensate_baseline=False,
            epsilon={"policy": "fixed", "values": [0.01]},
            trials=10,
        )
        points = {p.metric: p for p in run_monte_carlo(cfg)}
        assert "nmse_closed_form" in points
        assert points["nmse_closed_form"].trials == 0

    def test_monte_carlo_tracks_closed_form(self):
        # Smoke version of the figure recipe: agreement within 5% per
        # point, for both signs of the offset (the expression is not even
        # in the offset because of the accumulated block phase).
        cfg = small_config(
            estimator="baseline",
            compensate_baseline=False,
            m=[4, 16],
            epsilon={"policy": "fixed", "values": [0.0, 0.01, -0.01]},
            snr_db=10.0,
            trials=2000,
            x_axis="m",
            base_seed=7,
        )
        points = {(p.metric, p.x): p.mean for p in run_monte_carlo(cfg)}
        for m in (4.0, 16.0):
            for eps_label in ("epsilon=0", "epsilon=0.01", "epsilon=-0.01"):
                mc = points[(f"cfr_nmse_baseline_rom[{eps_label}]", m)]
                cf = points[(f"nmse_closed_form[{eps_label}]", m)]
                assert mc == pytest.approx(cf, rel=0.05)


def test_importing_harness_leaves_openblas_on_one_thread():
    # A threaded BLAS reduction would make the metrics' last bits depend on
    # the core count, and its idle threads would spin between trials.
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                assert getter() == 1
                return
    pytest.skip("numpy bundles no OpenBLAS")


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc allocator")
def test_trials_reuse_freed_memory_without_page_faults():
    # N x (M+1) arrays of 266 KB each: with glibc's adaptive thresholds the
    # heap is trimmed after every trial and refaulted, about 600 faults each.
    cfg = small_config(n=256, l=32, l_cp=34, m=64, trials=8)
    run_monte_carlo(cfg)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run_monte_carlo(cfg)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 10 * cfg.trials


def test_trial_failure_reports_seed(monkeypatch):
    import risofdm.harness as harness

    def boom(ctx, rng):
        raise RuntimeError("synthetic trial failure")

    monkeypatch.setattr(harness, "run_trial", boom)
    with pytest.raises(harness.TrialError) as err:
        run_monte_carlo(small_config(trials=3))
    assert err.value.trial_index == 0
    assert err.value.base_seed == 99
    assert "spawn_key=(0, 0)" in str(err.value)


def test_failure_inside_a_block_names_its_trial(monkeypatch):
    import risofdm.harness as harness

    cfg = small_config(trials=16)
    assert block_size(cfg.validate()[0].geometry, 16) == 16
    real = harness.run_trial
    blocks = []

    def fails_at_trial_5(ctx, rngs):
        blocks.append(len(rngs))
        if any(rng.bit_generator.seed_seq.spawn_key == (0, 5) for rng in rngs):
            raise RuntimeError("synthetic failure of trial 5")
        return real(ctx, rngs)

    monkeypatch.setattr(harness, "run_trial", fails_at_trial_5)
    with pytest.raises(harness.TrialError) as err:
        run_monte_carlo(cfg)
    # The block, then its trials one at a time up to the failing one.
    assert blocks == [16, 1, 1, 1, 1, 1, 1]
    assert (err.value.point_index, err.value.trial_index, err.value.base_seed) == (0, 5, 99)
    assert "spawn_key=(0, 5)" in str(err.value)
    assert "synthetic failure of trial 5" in str(err.value.__cause__)


def test_failure_in_a_worker_thread_names_its_trial(monkeypatch):
    # With two workers the pool runs every block, so trial 9, in the third
    # of four blocks, fails in a worker.
    import threading

    import risofdm.harness as harness

    cfg = small_config(trials=16)
    monkeypatch.setattr(harness, "CAP", 4 * cfg.n * (cfg.m + 1))
    assert block_size(cfg.validate()[0].geometry, 16) == 4
    real = harness.run_trial
    threads = []

    def fails_at_trial_9(ctx, rngs):
        if any(rng.bit_generator.seed_seq.spawn_key == (0, 9) for rng in rngs):
            threads.append(threading.current_thread())
            raise RuntimeError("synthetic failure of trial 9")
        return real(ctx, rngs)

    monkeypatch.setattr(harness, "run_trial", fails_at_trial_9)
    with pytest.raises(harness.TrialError) as err:
        run_monte_carlo(cfg, workers=2)
    assert threads and threading.main_thread() not in threads
    assert (err.value.point_index, err.value.trial_index, err.value.base_seed) == (0, 9, 99)
    assert "spawn_key=(0, 9)" in str(err.value)
    assert "synthetic failure of trial 9" in str(err.value.__cause__)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_first_failing_trial_does_not_depend_on_worker_count(monkeypatch, workers):
    # Trials 9 and 13 fail, in the third and fourth of four blocks.  Every
    # worker count reports trial 9, the first failure in trial order, even
    # when another worker reaches trial 13 first.
    import risofdm.harness as harness

    cfg = small_config(trials=16)
    monkeypatch.setattr(harness, "CAP", 4 * cfg.n * (cfg.m + 1))
    assert block_size(cfg.validate()[0].geometry, 16) == 4
    real = harness.run_trial

    def fails_at_trials_9_and_13(ctx, rngs):
        keys = {rng.bit_generator.seed_seq.spawn_key for rng in rngs}
        if keys & {(0, 9), (0, 13)}:
            raise RuntimeError("synthetic failure of trial 9 or 13")
        return real(ctx, rngs)

    monkeypatch.setattr(harness, "run_trial", fails_at_trials_9_and_13)
    with pytest.raises(harness.TrialError) as err:
        run_monte_carlo(cfg, workers=workers)
    assert (err.value.point_index, err.value.trial_index) == (0, 9)
    assert "spawn_key=(0, 9)" in str(err.value)


def test_every_block_runs_in_the_pool_with_more_workers(monkeypatch):
    # Each of the three points fits in one block; with two workers the pool
    # takes all three, and the calling thread only collects the results.
    import threading

    import risofdm.harness as harness

    cfg = small_config(snr_db=[0.0, 10.0, 20.0], trials=4)
    assert all(block_size(ctx.geometry, 4) == 4 for ctx in cfg.validate())
    real = harness.run_trial
    threads = []

    def records_its_thread(ctx, rngs):
        threads.append(threading.current_thread())
        return real(ctx, rngs)

    monkeypatch.setattr(harness, "run_trial", records_its_thread)
    run_monte_carlo(cfg, workers=2)
    assert len(threads) == 3
    assert threading.main_thread() not in threads


@pytest.mark.parametrize(
    "workers, cores, threads", [(100000, 3, 3), (2, 3, 2), (100000, 8, 5), (100000, None, 1)]
)
def test_thread_pool_has_no_more_threads_than_tasks_or_cores(monkeypatch, workers, cores, threads):
    # A fake pool records its size and maps serially, so no thread starts.
    import concurrent.futures
    import os

    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    cfg = small_config(snr_db=[0.0, 5.0, 10.0, 15.0, 20.0], trials=4)  # five one-block points
    serial = run_monte_carlo(cfg)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    assert run_monte_carlo(cfg, workers=workers) == serial
    assert sizes == [threads]


def test_block_failure_no_trial_repeats_is_raised_as_is(monkeypatch):
    # A block that fails while each of its trials runs alone is a fault of
    # the block code, not of a trial: no seed to report.
    import risofdm.harness as harness

    real = harness.run_trial

    def fails_as_a_block(ctx, rngs):
        if len(rngs) > 1:
            raise RuntimeError("synthetic block failure")
        return real(ctx, rngs)

    monkeypatch.setattr(harness, "run_trial", fails_as_a_block)
    with pytest.raises(RuntimeError, match="synthetic block failure") as err:
        run_monte_carlo(small_config(trials=4))
    assert not isinstance(err.value, harness.TrialError)


class CountingGenerator(np.random.Generator):
    """A PCG64 generator that counts its calls of each drawing method."""

    def __init__(self, seed):
        super().__init__(np.random.PCG64(seed))
        self.calls = defaultdict(int)

    def integers(self, *args, **kwargs):
        self.calls["integers"] += 1
        return super().integers(*args, **kwargs)

    def standard_normal(self, *args, **kwargs):
        self.calls["standard_normal"] += 1
        return super().standard_normal(*args, **kwargs)

    def random(self, *args, **kwargs):
        self.calls["random"] += 1
        return super().random(*args, **kwargs)


@pytest.mark.parametrize("trials", [1, 3])
@pytest.mark.parametrize(
    "epsilon, calls",
    [
        ({"policy": "uniform"}, {"integers": 2, "standard_normal": 3, "random": 1}),
        ({"policy": "fixed", "values": [0.1]}, {"integers": 2, "standard_normal": 3}),
    ],
)
def test_a_trial_makes_one_generator_call_per_draw(trials, epsilon, calls):
    # Two QPSK frames, the channel taps and two noise draws each take one
    # call per trial (a pair of arrays is one call), and a uniform offset one
    # more; whatever maps the draws runs on the whole block.
    import risofdm.harness as harness

    (ctx,) = small_config(estimator="both", epsilon=epsilon, trials=trials).validate()
    rngs = [CountingGenerator(trial) for trial in range(trials)]
    harness.run_trial(ctx, rngs)
    assert [dict(rng.calls) for rng in rngs] == [calls] * trials


def benchmark_workloads():
    """The benchmark workloads' configs by name, at seed 1 (``perfbench`` is no package)."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    try:
        from workloads import WORKLOADS, build_config
    finally:
        sys.path.pop(0)
    return {name: build_config(w, 1, w.trials) for name, w in WORKLOADS.items()}


# (workload, M, measured block, bound in arrays).  Block 0 reruns after a
# first run; block 1 is fresh.  Every block builds its own ramps, so the two
# peak alike.  The fig2 points each run one block at one fixed offset.
HEAP_CASES = [
    ("fig4b_point", 16, 0, 7.0),
    ("fig4a_m64", 64, 0, 3.5),
    ("fig2_grid", 16, 0, 6.5),
    ("fig2_grid", 64, 0, 6.5),
    ("fig4b_point", 16, 1, 7.0),
    ("fig4a_m64", 64, 1, 3.5),
]


@pytest.mark.parametrize(
    "workload, m, block, arrays",
    HEAP_CASES,
    ids=[f"{w}-{m}{'-fresh' if block else ''}-{a}" for w, m, block, a in HEAP_CASES],
)
def test_block_heap_peak(workload, m, block, arrays):
    # A block's traced heap peak, in (block, N, M+1) complex arrays: at the
    # fig4b point (4, 256, 17) arrays of 272 KiB.  It read 14.5 there while
    # every array of the joint pipeline outlived it, 8.2 while a periodic
    # frame kept its samples, 7.6 (9.6 for a fresh block) while two N-row
    # phase ramps were cached, and 6.6 now.
    import risofdm.harness as harness

    cfg = benchmark_workloads()[workload]
    ctx = next(ctx for ctx in cfg.validate() if ctx.point.m == m)
    size = block_size(ctx.geometry, cfg.trials)
    harness._run_block(ctx, 0, size)  # a process's first block also runs lazy imports
    tracemalloc.start()
    try:
        harness._run_block(ctx, block * size, (block + 1) * size)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    array = size * cfg.n * (m + 1) * np.dtype(np.complex128).itemsize
    assert peak <= arrays * array, (peak // 1024, array // 1024)


def test_a_proposed_block_builds_its_ramps_for_the_window_rows(monkeypatch):
    # The transmit and the compensation each build one ramp, and only for
    # the N_z * L rows of the training window.
    import risofdm.estimators as estimators
    import risofdm.harness as harness
    import risofdm.link as link

    rows = []

    def spy(geometry, epsilon, n_rows):
        rows.append(n_rows)
        return phase_ramp(geometry, epsilon, n_rows)

    monkeypatch.setattr(link, "phase_ramp", spy)
    monkeypatch.setattr(estimators, "phase_ramp", spy)
    (ctx,) = small_config(estimator="proposed", trials=3).validate()
    harness._run_block(ctx, 0, 3)
    assert rows == [ctx.geometry.n_z * ctx.geometry.l] * 2


class TestBlockSize:
    """Trials per block: a function of the geometry and the trial count alone."""

    @staticmethod
    def sizes(cfg) -> dict[int, int]:
        return {ctx.point.m: block_size(ctx.geometry, cfg.trials) for ctx in cfg.validate()}

    def test_formula(self):
        geom = FrameGeometry(n=64, l=8, l_cp=10, m=1, n_z=2)
        assert CAP == 20480
        assert block_size(geom, 5000) == 160  # 160 x 64 x 2 = 20480 samples
        assert block_size(geom, 10) == 10
        assert block_size(geom, 1) == 1
        assert block_size(FrameGeometry(n=64, l=8, l_cp=10, m=16, n_z=2), 5000) == 18
        assert block_size(FrameGeometry(n=64, l=8, l_cp=10, m=127, n_z=2), 5000) == 2
        assert block_size(FrameGeometry(n=256, l=32, l_cp=34, m=16, n_z=4), 5000) == 4
        assert block_size(FrameGeometry(n=256, l=32, l_cp=34, m=64, n_z=4), 5000) == 1
        assert block_size(FrameGeometry(n=512, l=32, l_cp=34, m=64, n_z=4), 5000) == 1

    def test_benchmark_workloads(self):
        # fig4b_point runs blocks of 4; fig4a_m64 runs one-trial blocks and
        # stays the control of the batching.
        expected = {
            "fig4b_point": {16: 4},
            "fig4a_m64": {64: 1},
            "fig2_grid": {1: 16, 4: 16, 16: 16, 64: 4},
        }
        configs = benchmark_workloads()
        for name, sizes in expected.items():
            assert self.sizes(configs[name]) == sizes, name

    def test_acceptance_points(self, monkeypatch):
        # Record the Monte Carlo points of criteria 1, 5 and 6 without running them.
        calls = {}

        def record(suite):
            def point_means(base_seed, trials, **fields):
                calls.setdefault(suite, []).append(
                    ExperimentConfig(trials=trials, base_seed=base_seed, x_axis="m", **fields)
                )
                return defaultdict(lambda: 1.0)

            return point_means

        for suite, run in (
            ("closed_form", verification.suite_closed_form),
            ("monotonicity", verification.suite_monotonicity),
            ("comparison", verification.suite_comparison),
        ):
            monkeypatch.setattr(verification, "_point_means", record(suite))
            run()
        assert [len(calls[s]) for s in ("closed_form", "monotonicity", "comparison")] == [32, 7, 1]
        # Criterion 6 runs the fig4b geometry, so blocks of 4.
        assert self.sizes(calls["comparison"][0]) == {16: 4}
        assert {m: size for cfg in calls["closed_form"] for m, size in self.sizes(cfg).items()} == {
            1: 160, 4: 64, 16: 18, 64: 4
        }
        # No block of two or more trials holds more than CAP samples per array,
        # here or at any preset point.
        configs = calls["closed_form"] + calls["monotonicity"] + [recipe(n) for n in RECIPES]
        for cfg in configs:
            for m, size in self.sizes(cfg).items():
                assert size == 1 or size * cfg.n * (m + 1) <= CAP, (cfg, m, size)


class TestRecipes:
    def test_fig2_parameters(self):
        cfg = recipe("fig2")
        assert cfg.n == 64 and cfg.l == 8 and cfg.l_cp == 10
        assert cfg.estimator == "baseline" and not cfg.compensate_baseline

    def test_fig4_parameters(self):
        assert recipe("fig4a").l_cp == 34
        assert recipe("fig4b").l == 32
        assert recipe("fig4b").estimator == "both"

    def test_fig3_is_analytic(self):
        # Fig. 3 is no Monte Carlo preset: the complexity subcommand writes
        # its operation counts (see test_cli), rows that took no trials.
        with pytest.raises(ConfigError, match="unknown recipe 'fig3'"):
            recipe("fig3")
        assert all(p.trials == 0 for p in complexity_points(4.0, 1024, 102, 1024, 4, 4))

    def test_unknown_recipe(self):
        with pytest.raises(ConfigError):
            recipe("fig9")

    def test_presets_validate(self):
        assert list(RECIPES) == ["fig2", "fig4a", "fig4b"]
        for name in RECIPES:
            recipe(name).validate()

    def test_each_call_returns_fresh_lists(self):
        recipe("fig4a").snr_db.append(35.0)
        recipe("fig4b").epsilon["policy"] = "fixed"
        assert recipe("fig4a").snr_db[-1] == 30.0
        assert recipe("fig4b").epsilon == {"policy": "uniform"}


_METRICS = st.sampled_from(
    ["cfo_mse", "cir_nmse_rom", "cir_nmse[m=16,snr_db=10]", "nmse_closed_form[epsilon=-0.01]"]
) | st.text(alphabet="abc_[]=,.-0123456789", min_size=1, max_size=20)
_MEANS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [5e-324, 1e-300, 1.5e-29, 1e300, 1.7976931348623157e308]
)
_CURVE_POINTS = st.builds(
    CurvePoint,
    x=st.floats(-1e6, 1e6, allow_nan=False),
    metric=_METRICS,
    mean=_MEANS,
    ci95=_MEANS.map(abs),
    trials=st.integers(0, 10**6),
)


class TestCsv:
    @settings(max_examples=100, deadline=None)
    @given(points=st.lists(_CURVE_POINTS, max_size=12))
    def test_emit_read_emit_gives_the_same_bytes(self, tmp_path_factory, points):
        # Labels with two axes hold a comma, so the writer quotes them.
        out = tmp_path_factory.mktemp("csv")
        first, second = out / "first.csv", out / "second.csv"
        emit_csv(points, first)
        emit_csv(read_csv(first), second)
        assert second.read_bytes() == first.read_bytes()

    def test_header_only_for_empty_points(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], path)
        assert path.read_text() == "x,metric,mean,ci95,trials\n"

    def test_single_point_round_trip(self, tmp_path):
        path = tmp_path / "one.csv"
        point = CurvePoint(2.0, "cfo_mse", 1.234567890123e-5, 6.5e-7, 100)
        emit_csv([point], path)
        assert len(path.read_text().strip().splitlines()) == 2
        (again,) = read_csv(path)
        assert (again.x, again.metric, again.trials) == (point.x, point.metric, point.trials)
        assert f"{again.mean:.12g}" == f"{point.mean:.12g}"
        assert f"{again.ci95:.12g}" == f"{point.ci95:.12g}"

    def test_rows_sorted_and_formatted(self, tmp_path):
        path = tmp_path / "sorted.csv"
        points = [
            CurvePoint(2.0, "b", 0.2, 0.0, 1),
            CurvePoint(1.0, "b", 0.1, 0.0, 1),
            CurvePoint(5.0, "a", 1 / 3, 0.0, 1),
        ]
        emit_csv(points, path)
        lines = path.read_text().strip().splitlines()
        assert lines[1].startswith("5,a,")
        assert lines[2].startswith("1,b,")
        assert "0.333333333333" in lines[1]

    def test_reparsed_values_match_at_12_digits(self, tmp_path):
        cfg = small_config(trials=20)
        points = run_monte_carlo(cfg)
        path = tmp_path / "mc.csv"
        emit_csv(points, path)
        by_key = {(p.metric, p.x): p for p in read_csv(path)}
        for p in points:
            again = by_key[(p.metric, p.x)]
            assert f"{again.mean:.12g}" == f"{p.mean:.12g}"
            assert f"{again.ci95:.12g}" == f"{p.ci95:.12g}"


def binomial_acceptance(n: int, p: float, level: float) -> tuple[int, int]:
    """The two-sided acceptance region [lo, hi] of a Binomial(n, p) count at
    ``level``: each tail outside it holds at most level / 2 of the mass."""
    pmf = [math.comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(n + 1)]
    below = list(itertools.accumulate([0.0, *pmf]))  # below[k] = P(X < k)
    lo = max(k for k in range(n + 1) if below[k] <= level / 2)
    hi = min(k for k in range(n + 1) if 1 - below[k + 1] <= level / 2)
    return lo, hi


# (M, offset, SNR in dB) of three criterion-1 points, whose ratio-of-means
# row has the exact expectation analysis.nmse_closed_form_exact.
COVERAGE_POINTS = [(1, 0.0, 10.0), (4, 0.05, 20.0), (16, 0.01, 20.0)]
GROUPS, GROUP_TRIALS = 400, 50


@pytest.mark.parametrize("m, epsilon, snr_db", COVERAGE_POINTS)
def test_rom_ci95_covers_the_exact_nmse_at_its_nominal_rate(m, epsilon, snr_db):
    # One run's per-trial (num, den) pairs, split into 400 groups of 50
    # trials: each group's _rom ci95, built as the CSV builds it, must cover
    # the exact NMSE in 364-393 of the 400 groups, the two-sided 0.1%
    # binomial acceptance region around 0.95.  A 1-sigma interval (the
    # ci95 shrunk by 1.96) must fall outside it.
    import risofdm.harness as harness

    cfg = ExperimentConfig(
        n=64, l=8, l_cp=10, m=m, n_z=2, snr_db=snr_db,
        epsilon={"policy": "fixed", "values": [epsilon]}, estimator="baseline",
        compensate_baseline=False, trials=GROUPS * GROUP_TRIALS,
        base_seed=verification.DEFAULT_SEED,
    )
    (ctx,) = cfg.validate()
    size = block_size(ctx.geometry, cfg.trials)
    bounds = [(lo, min(lo + size, cfg.trials)) for lo in range(0, cfg.trials, size)]
    blocks = [harness._run_block(ctx, lo, hi) for lo, hi in bounds]
    pairs = {
        key: np.concatenate([block[key] for block in blocks]).reshape(GROUPS, GROUP_TRIALS)
        for key in ("cfr_nmse_baseline_num", "cfr_nmse_baseline_den")
    }
    params = analysis.NmseParams(epsilon, cfg.n, cfg.l, cfg.l_cp, m, ctx.sigma2)
    exact = analysis.nmse_closed_form_exact(params)
    errors, intervals = [], []
    for group in range(GROUPS):
        rows = harness._aggregate_point(ctx, {key: value[group] for key, value in pairs.items()})
        (rom,) = (row for row in rows if row.metric == "cfr_nmse_baseline_rom")
        errors.append(abs(rom.mean - exact))
        intervals.append(rom.ci95)
    errors, intervals = np.array(errors), np.array(intervals)

    lo, hi = binomial_acceptance(GROUPS, 0.95, 0.001)
    assert (lo, hi) == (364, 393)
    assert lo <= np.count_nonzero(errors <= intervals) <= hi
    assert not lo <= np.count_nonzero(errors <= intervals / 1.96) <= hi
