"""Tests for the Monte Carlo harness: configs, grids, reproducibility, CSV."""

import ctypes
import json
import platform
import resource
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risofdm import verification
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
    geometry_for,
    load_config,
    read_csv,
    recipe,
    resolve_grid,
    run_monte_carlo,
)


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

    def test_worker_count_invariance(self, tmp_path):
        cfg = small_config(trials=23)
        serial, threaded = tmp_path / "serial.csv", tmp_path / "threaded.csv"
        emit_csv(run_monte_carlo(cfg, workers=1), serial)
        emit_csv(run_monte_carlo(cfg, workers=4), threaded)
        assert serial.read_bytes() == threaded.read_bytes()

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
    assert block_size(geometry_for(cfg, resolve_grid(cfg)[0]), 16) == 16
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


class TestBlockSize:
    """Trials per block: a function of the geometry and the trial count alone."""

    @staticmethod
    def sizes(cfg) -> dict[int, int]:
        return {p.m: block_size(geometry_for(cfg, p), cfg.trials) for p in resolve_grid(cfg)}

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
        sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
        try:
            from workloads import WORKLOADS, build_config
        finally:
            sys.path.pop(0)
        expected = {
            "fig4b_point": {16: 4},
            "fig4a_m64": {64: 1},
            "fig2_grid": {1: 16, 4: 16, 16: 16, 64: 4},
        }
        for name, sizes in expected.items():
            workload = WORKLOADS[name]
            assert self.sizes(build_config(workload, 1, workload.trials)) == sizes, name

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
