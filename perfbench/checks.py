"""Output checks for the benchmark: every grid point must pass them all.

A grid point is identified by its x value and its label suffix (``[...]``
in the metric name).  Each check returns the set of point keys that
failed, so the caller can count failed points against points attempted.

Tolerances are statistical.  A repetition's mean is compared with the
reference mean within ``K`` times their combined 95% half-width, plus a
small floor so that last-ulp rounding changes in the program never trip a
check.  The repetition's half-width is the reference's scaled to the
repetition's trial count: a half-width estimated from a dozen trials is
itself too noisy to set a tolerance by.  ``K = 4`` puts a false failure
beyond 7 standard errors, so the checks hold for any seed, while a 2x error
in any metric still fails.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

K = 4.0
REL_FLOOR = 1e-9
ABS_FLOOR = 1e-12

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def point_key(x: float, metric: str) -> tuple[float, str]:
    """(x, label) of the grid point a curve row belongs to."""
    cut = metric.find("[")
    return (x, metric[cut:] if cut >= 0 else "")


def _row_ci(row, ref) -> float:
    """The reference's 95% half-width scaled to the row's trial count."""
    _, ref_ci, ref_trials = ref
    return ref_ci * math.sqrt(ref_trials / row.trials) if row.trials else 0.0


def _tolerance(ci95: float, target: float) -> float:
    return K * ci95 + REL_FLOOR * abs(target) + ABS_FLOOR


def load_reference(name: str, scale: float = 1.0) -> dict:
    """{(x, metric): (mean, ci95, trials)} recorded for one workload.

    ``scale`` multiplies the means; the benchmark's own tests use it to show
    that a wrong reference fails the checks.
    """
    data = json.loads(REFERENCE_PATH.read_text())[name]
    return {
        (float(row["x"]), row["metric"]): (row["mean"] * scale, row["ci95"], data["trials"])
        for row in data["rows"]
    }


def check_reference(curve, reference) -> tuple[set, float]:
    """Every curve row within tolerance of the reference, and no row missing.

    Returns the failed point keys and the worst ratio |difference| /
    tolerance seen, which tells how much margin the check had.
    """
    failed = set()
    worst = 0.0
    seen = set()
    for row in curve:
        key = (row.x, row.metric)
        seen.add(key)
        if key not in reference:
            failed.add(point_key(row.x, row.metric))
            continue
        ref = reference[key]
        tolerance = _tolerance(math.hypot(_row_ci(row, ref), ref[1]), ref[0])
        ratio = abs(row.mean - ref[0]) / tolerance
        worst = max(worst, ratio)
        if not ratio <= 1.0:  # also catches NaN
            failed.add(point_key(row.x, row.metric))
    for x, metric in set(reference) - seen:
        failed.add(point_key(x, metric))
    return failed, worst


def noise_term(cfg, m: int) -> float:
    """sigma2 L / (N (M+1)): the baseline's NMSE with no frequency offset."""
    sigma2 = 10.0 ** (-float(cfg.snr_db) / 10.0)
    return sigma2 * cfg.l / (cfg.n * (m + 1))


def check_noise_term(cfg, curve, reference) -> tuple[set, int]:
    """The eps=0 points' ratio-of-means baseline NMSE matches the noise term.

    Needs ``x`` to be M.  Returns the failed point keys and how many points
    were checked.
    """
    failed = set()
    checked = 0
    for row in curve:
        if not row.metric.startswith("cfr_nmse_baseline_rom[epsilon=0]"):
            continue
        checked += 1
        expected = noise_term(cfg, int(row.x))
        tolerance = _tolerance(_row_ci(row, reference[(row.x, row.metric)]), expected)
        if not abs(row.mean - expected) <= tolerance:
            failed.add(point_key(row.x, row.metric))
    return failed, checked
