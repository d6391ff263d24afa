"""Traced replay of ``risofdm.harness.run_trial``.

The replay makes the same calls as ``run_monte_carlo`` -- same grid, same
``SeedSequence(base_seed, spawn_key=(p, t))`` streams, same draw order,
on one worker -- but goes through a recorder around every call into a
module's public function, so each stage gets its own span.  The program
itself carries no timers.  ``replay`` returns per-point means so the caller
can prove that the traced run computed exactly what the untraced run did.
"""

from __future__ import annotations

import math
import time
import tracemalloc
from contextlib import contextmanager

import numpy as np

from risofdm import analysis
from risofdm.channel_model import exponential_pdp, sample_cir
from risofdm.estimators import (
    baseline_cfr_full,
    cfo_compensate,
    cfo_estimate,
    cir_estimate_full,
    uniform_comb,
)
from risofdm.frame import FrameGeometry, build_baseline_pilots, build_periodic_pilots
from risofdm.harness import resolve_grid
from risofdm.link import transmit_frame
from risofdm.numerics import zadoff_chu
from risofdm.ris_pattern import dft_pattern

STAGES = (
    "frame.build_periodic_pilots",
    "frame.build_baseline_pilots",
    "channel_model.sample_cir",
    "link.transmit_frame",
    "estimators.cfo_estimate",
    "estimators.cfo_compensate",
    "estimators.cir_estimate_full",
    "estimators.baseline_cfr_full",
    "harness.metrics",
)


class _Recorder:
    def __init__(self):
        self.trials = []  # whole-trial durations, ns
        self.point_setup = []  # grid point context construction, ns

    def call(self, stage, fn, *args, **kwargs):
        with self.span(stage):
            return fn(*args, **kwargs)


class SpanRecorder(_Recorder):
    """Wall-clock duration of every span, per stage, in nanoseconds."""

    def __init__(self):
        super().__init__()
        self.spans = {stage: [] for stage in STAGES}

    @contextmanager
    def span(self, stage):
        start = time.perf_counter_ns()
        yield
        self.spans[stage].append(time.perf_counter_ns() - start)


class AllocRecorder(_Recorder):
    """Largest tracemalloc peak of any span, per stage, in bytes.

    Needs ``tracemalloc`` running, and the peak is process-wide.
    """

    def __init__(self):
        super().__init__()
        self.peak = {stage: 0 for stage in STAGES}

    @contextmanager
    def span(self, stage):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        yield
        peak = tracemalloc.get_traced_memory()[1] - base
        self.peak[stage] = max(self.peak[stage], peak)


class _Point:
    """The per-point objects ``harness._PointContext`` builds."""

    def __init__(self, cfg, point):
        self.cfg = cfg
        self.point = point
        self.geometry = FrameGeometry(n=cfg.n, l=cfg.l, l_cp=cfg.l_cp, m=point.m, n_z=point.n_z)
        self.pdp = exponential_pdp(cfg.l, cfg.pdp_decay)
        self.pattern = dft_pattern(point.m)
        self.z = zadoff_chu(cfg.l, cfg.zc_root)
        self.sigma2 = 10.0 ** (-point.snr_db / 10.0)
        self.pilot_idx = None if cfg.n_p is None else uniform_comb(cfg.n, cfg.n_p)


def _joint(rx, frame, pattern, rec):
    """``joint_estimate``, call by call; the compensated frame dies on return."""
    cfo = rec.call(STAGES[4], cfo_estimate, rx)
    compensated = rec.call(STAGES[5], cfo_compensate, rx, cfo.epsilon_hat)
    cir = rec.call(STAGES[6], cir_estimate_full, compensated, frame, pattern)
    return cfo, cir, analysis.count_joint_multiplications(rx.geometry)


def _trial(ctx, rng, rec):
    """``run_trial`` line for line, with every stage timed by ``rec``.

    Keep the statements and variable lifetimes as in ``run_trial``: which
    arrays are alive when the next one is allocated decides whether the
    allocator returns memory to the system, and that moves the timings.
    """
    cfg = ctx.cfg
    geom = ctx.geometry
    run_proposed = cfg.estimator in ("proposed", "both")
    run_baseline = cfg.estimator in ("baseline", "both")

    frame_p = (
        rec.call(STAGES[0], build_periodic_pilots, geom, ctx.z, rng) if run_proposed else None
    )
    frame_b = rec.call(STAGES[1], build_baseline_pilots, geom, rng) if run_baseline else None
    channels = rec.call(STAGES[2], sample_cir, ctx.pdp, geom.m, cfg.n, rng)
    if ctx.point.epsilon_fixed is not None:
        epsilon = float(ctx.point.epsilon_fixed)
    else:
        epsilon = 0.5 - rng.random()

    out = {}
    with rec.span(STAGES[8]):
        h_energy = float(np.vdot(channels.h, channels.h).real)
    epsilon_hat = None

    if run_proposed:
        rx_p = rec.call(
            STAGES[3], transmit_frame, frame_p, channels, ctx.pattern, epsilon, ctx.sigma2, rng
        )
        cfo, cir, _ = _joint(rx_p, frame_p, ctx.pattern, rec)
        epsilon_hat = cfo.epsilon_hat
        with rec.span(STAGES[8]):
            out["cfo_mse"] = analysis.mse_cfo(epsilon, epsilon_hat)
            g_err = cir.g_hat - channels.g
            out["cir_nmse_num"] = float(np.vdot(g_err, g_err).real)
            out["cir_nmse_den"] = float(np.vdot(channels.g, channels.g).real)
            out["cir_nmse"] = out["cir_nmse_num"] / out["cir_nmse_den"]
            h_err = cir.h_hat - channels.h
            out["cfr_nmse_proposed_num"] = float(np.vdot(h_err, h_err).real)
            out["cfr_nmse_proposed_den"] = h_energy
            out["cfr_nmse_proposed"] = out["cfr_nmse_proposed_num"] / h_energy

    if run_baseline:
        rx_b = rec.call(
            STAGES[3], transmit_frame, frame_b, channels, ctx.pattern, epsilon, ctx.sigma2, rng
        )
        compensated = cfg.compensate_baseline and epsilon_hat is not None
        rx_used = rec.call(STAGES[5], cfo_compensate, rx_b, epsilon_hat) if compensated else rx_b
        estimate = rec.call(
            STAGES[7], baseline_cfr_full, rx_used, frame_b, ctx.pattern, pilot_idx=ctx.pilot_idx
        )
        with rec.span(STAGES[8]):
            h_err = estimate.h_hat - channels.h
            out["cfr_nmse_baseline_num"] = float(np.vdot(h_err, h_err).real)
            out["cfr_nmse_baseline_den"] = h_energy
            out["cfr_nmse_baseline"] = out["cfr_nmse_baseline_num"] / h_energy
        if compensated:
            raw = rec.call(
                STAGES[7], baseline_cfr_full, rx_b, frame_b, ctx.pattern, pilot_idx=ctx.pilot_idx
            )
            with rec.span(STAGES[8]):
                raw_err = raw.h_hat - channels.h
                out["cfr_nmse_baseline_uncomp"] = float(np.vdot(raw_err, raw_err).real) / h_energy

    return out


def replay(cfg, rec) -> dict[tuple[float, str], float]:
    """Run ``cfg``'s grid through ``rec``; returns {(x, metric): mean}.

    Means are exact-summed in trial order like the harness's, so they equal
    the ``mean`` column of ``run_monte_carlo(cfg)`` bit for bit.
    """
    means = {}
    for point in resolve_grid(cfg):
        start = time.perf_counter_ns()
        ctx = _Point(cfg, point)
        rec.point_setup.append(time.perf_counter_ns() - start)
        # Stored as run_monte_carlo stores them; see _trial on why memory
        # layout matters to the timings.
        storage = {}
        for trial in range(cfg.trials):
            start = time.perf_counter_ns()
            seed = np.random.SeedSequence(cfg.base_seed, spawn_key=(point.index, trial))
            metrics = _trial(ctx, np.random.default_rng(seed), rec)
            for key, value in metrics.items():
                if key not in storage:
                    storage[key] = np.empty(cfg.trials)
                storage[key][trial] = value
            rec.trials.append(time.perf_counter_ns() - start)
        for name, values in storage.items():
            if not (name.endswith("_num") or name.endswith("_den")):
                means[(point.x, name + point.label)] = math.fsum(values) / cfg.trials
    return means


def plain_means(curve) -> dict:
    """{(x, metric): mean} of a curve's per-trial metrics, as ``replay`` returns.

    Ratio-of-means rows and the closed-form overlay have no per-trial values.
    """
    out = {}
    for row in curve:
        base = row.metric.split("[")[0]
        if base.endswith("_rom") or base == "nmse_closed_form":
            continue
        out[(row.x, row.metric)] = row.mean
    return out


def alloc_peaks(cfg) -> dict[str, int]:
    """Per-stage largest allocation peak over one single-threaded replay."""
    rec = AllocRecorder()
    tracemalloc.start()
    try:
        replay(cfg, rec)
    finally:
        tracemalloc.stop()
    return rec.peak
