"""One workload in one fresh process; prints one JSON result line.

Run by ``run.py``; not meant to be called by hand.  The process repeats
the workload's grid for ``--seconds`` seconds, checks every repetition's
output, and reports end-to-end figures (``--trace 0``) or the per-stage
split of a traced replay (``--trace 1``).
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
from calibration import calibration_seconds  # noqa: E402
from risofdm import emit_csv, run_monte_carlo  # noqa: E402
from risofdm.harness import resolve_grid  # noqa: E402
from workloads import WORKLOADS, build_config  # noqa: E402

WARMUP_S = 2.0
QUIET_S = 0.2  # idle time before each calibration, seconds
CAL_PASSES = 2  # kernel passes per calibration, after as many untimed ones


def base_seed(seed: int, rep: int) -> int:
    """Repetition ``rep`` of workload seed ``seed``; rep -1 is the warm-up."""
    return seed * 1_000_000 + rep + 1


def blas_info() -> dict:
    """BLAS library, the thread settings in the environment, and the thread
    count the library reports."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {
        "library": f"{blas.get('name')} {blas.get('version')}",
        "threads_env": {
            var: os.environ.get(var)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "threads": None,
    }
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.argtypes = []
                getter.restype = ctypes.c_int
                info["threads"] = getter()
                return info
    return info


def manifest(args, grid_points: int, trials: int, reps: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "grid_points": grid_points,
        "trials_per_point": trials,
        "repetitions": reps,
    }


class Outcome:
    """Grid points attempted and failed, and the tightest check margin."""

    def __init__(self, reference, noise_check: bool):
        self.reference = reference
        self.noise_check = noise_check
        self.attempted = 0
        self.failed = 0
        self.worst_ratio = 0.0
        self.noise_points = 0

    def record(self, cfg, n_points: int, curve) -> None:
        self.attempted += n_points
        if curve is None:
            self.failed += n_points
            return
        bad, worst = checks.check_reference(curve, self.reference)
        self.worst_ratio = max(self.worst_ratio, worst)
        if self.noise_check:
            noise_bad, checked = checks.check_noise_term(cfg, curve, self.reference)
            bad |= noise_bad
            self.noise_points += checked
            if checked == 0:
                bad.add(("noise", "no eps=0 point"))
        for key in sorted(bad, key=repr):
            print(f"check failed: {key}", file=sys.stderr)
        self.failed += min(len(bad), n_points)


def quiet_calibration() -> float:
    """Mean calibration kernel time, timed once the program's threads idle.

    After each call an idle OpenBLAS thread spins on a core for about
    0.15 s, and a kernel timed then runs slow by as much as the program's
    BLAS use costs.  Sleeping first lets those threads go to sleep, so the
    kernel times the host and not the program.  The first passes after the
    sleep run erratically slow while the cores wake up, so they are not
    timed; the timed ones run under the same conditions as the repetition
    that follows them.
    """
    time.sleep(QUIET_S)
    for _ in range(CAL_PASSES):
        calibration_seconds()
    return statistics.fmean(calibration_seconds() for _ in range(CAL_PASSES))


def run_once(cfg, workers: int = 1):
    """(curve or None, wall s, cpu s); a raising repetition yields None."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        curve = run_monte_carlo(cfg, workers=workers)
    except Exception:  # noqa: BLE001 - counted as failed points, then go on
        traceback.print_exc()
        curve = None
    return curve, time.perf_counter() - wall0, time.process_time() - cpu0


def csv_bytes(curve, directory: str) -> bytes:
    path = Path(directory) / "curve.csv"
    emit_csv(curve, path)
    return path.read_bytes()


def measure(args) -> dict:
    workload = WORKLOADS[args.workload]
    trials = workload.trials
    outcome = Outcome(checks.load_reference(workload.reference), workload.noise_check)

    # The first second of repetitions runs up to 40% slow (page faults, lazy
    # numpy and BLAS set-up), so repeat a warm-up grid before timing.
    warm = build_config(workload, base_seed(args.seed, -1), trials)
    warm_until = time.monotonic() + min(WARMUP_S, args.seconds)
    run_monte_carlo(warm)
    while time.monotonic() < warm_until:
        run_monte_carlo(warm)
    if args.trace:
        peaks = tracing.alloc_peaks(build_config(workload, base_seed(args.seed, -1), 2))
        recorder = tracing.SpanRecorder()

    reps = []  # (trials, wall s, cpu s, calibration s) of completed untraced runs
    traced_wall = 0.0
    first = None  # (cfg, curve) of repetition 0, for the worker-count check
    start = time.monotonic()
    rep = 0
    # Stop when one more repetition, at the average length so far, would
    # end past the deadline.
    while rep == 0 or time.monotonic() + (time.monotonic() - start) / rep < start + args.seconds:
        cfg = build_config(workload, base_seed(args.seed, rep), trials)
        n_points = len(resolve_grid(cfg))
        calibration = 0.0 if args.trace else quiet_calibration()
        # Alternate which of the two runs goes first, so drift cancels.
        if args.trace and rep % 2:
            means, seconds = timed_replay(cfg, recorder)
        curve, wall, cpu = run_once(cfg)
        if args.trace and not rep % 2:
            means, seconds = timed_replay(cfg, recorder)
        if args.trace:
            traced_wall += seconds
            if curve is not None and means != tracing.plain_means(curve):
                raise SystemExit(
                    "traced replay diverged from run_monte_carlo: "
                    "the trace measures another program"
                )
        outcome.record(cfg, n_points, curve)
        if curve is not None:
            reps.append((n_points * trials, wall, cpu, calibration))
            if first is None:
                first = (cfg, curve)
        rep += 1

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    nproc = len(os.sched_getaffinity(0))
    if nproc > 1 and first is not None:
        # README contract: the CSV is byte-identical for any worker count.
        # Checked after the timed loop, so the rerun is not timed.
        cfg, curve = first
        fanned, _, _ = run_once(cfg, nproc)
        with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
            same = fanned is not None and csv_bytes(curve, tmp) == csv_bytes(fanned, tmp)
        outcome.attempted += len(resolve_grid(cfg))
        if not same:
            print(f"check failed: CSV differs in a workers={nproc} run", file=sys.stderr)
            outcome.failed += len(resolve_grid(cfg))

    info = manifest(args, len(resolve_grid(cfg)), trials, rep)
    wall = sum(r[1] for r in reps)
    details = {
        "failed_frac": outcome.failed / outcome.attempted,
        "busy_cores": sum(r[2] for r in reps) / wall if wall else 0.0,
        "worst_check_ratio": outcome.worst_ratio,
        "noise_term_points_checked": outcome.noise_points,
    }
    if args.trace:
        metrics = layer_metrics(recorder, peaks, reps, traced_wall)
    else:
        metrics = {
            "trials_per_cal": (median_rate(reps, 1, calibrated=True), "1/cal"),
            "trials_per_cpu_cal": (median_rate(reps, 2, calibrated=True), "1/cal"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        details["trials_per_s"] = median_rate(reps, 1)
        details["trials_per_cpu_s"] = median_rate(reps, 2)
        details["calibration_s"] = statistics.median(r[3] for r in reps) if reps else 0.0
    return {
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
        "details": details,
        "manifest": info,
    }


def median_rate(reps, column: int, calibrated: bool = False) -> float:
    """Median over repetitions of trials per wall (1) or CPU (2) second.

    ``calibrated`` multiplies each repetition's rate by the calibration
    kernel's time measured right before it: trials per kernel duration.
    """
    rates = [r[0] / r[column] * (r[3] if calibrated else 1.0) for r in reps if r[column] > 0]
    return statistics.median(rates) if rates else 0.0


def timed_replay(cfg, recorder):
    start = time.perf_counter()
    means = tracing.replay(cfg, recorder)
    return means, time.perf_counter() - start


def layer_metrics(rec, peaks, reps, traced_wall) -> dict:
    """Per-stage figures of the traced replay, against the untraced ``reps``."""
    trials, wall, cpu = (sum(r[i] for r in reps) for i in range(3))
    traced_trials = len(rec.trials)
    trial_ns = sum(rec.trials)
    metrics = {}
    stage_us = 0.0
    for stage in tracing.STAGES:
        spans = rec.spans[stage]
        us_per_trial = sum(spans) / 1e3 / traced_trials
        stage_us += us_per_trial
        p99 = statistics.quantiles(spans, n=100)[98] / 1e3 if len(spans) > 1 else 0.0
        metrics[f"{stage}.us_per_trial"] = (us_per_trial, "us")
        metrics[f"{stage}.p99_us"] = (p99, "us")
        metrics[f"{stage}.calls_per_trial"] = (len(spans) / traced_trials, "count")
        metrics[f"{stage}.share"] = (sum(spans) / trial_ns, "fraction")
        metrics[f"{stage}.peak_alloc_kb"] = (peaks[stage] / 1024, "KiB")
    untraced_us = wall / trials * 1e6
    traced_us = traced_wall / traced_trials * 1e6
    metrics["harness.point_setup_us"] = (statistics.fmean(rec.point_setup) / 1e3, "us")
    metrics["harness.self_us_per_trial"] = (untraced_us - stage_us, "us")
    metrics["harness.busy_cores"] = (cpu / wall, "cores")
    metrics["trace.overhead_frac"] = (traced_us / untraced_us - 1.0, "fraction")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    print(json.dumps(measure(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
