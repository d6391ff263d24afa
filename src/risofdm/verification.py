"""Acceptance suites: closed-form validation, exactness, monotonicity.

Each suite returns a list of :class:`CheckResult`; :func:`verify` bundles
them behind the names used by the command line (``closed_form``,
``exactness``, ``monotonicity``, ``all``) and prints one PASS/FAIL line
per check.

The exactness suite accepts a ``mutation`` argument that reruns it on a
deliberately broken variant of the joint pipeline.  Each mutation changes
the input of one production call and nothing else:

* ``avg_first_subsequence``: the compensated frame is rolled by L samples
  before the channel solve, so the averaged window takes in the first
  training copy, whose head carries the payload tail through the cyclic
  wrap.
* ``drop_block_phase``: the frame is de-rotated with the one-block ramp,
  i.e. the within-symbol term only, dropping the accumulated per-block
  term L_P k.
* ``ones_pattern``: the frame is transmitted through a channel set whose
  direct path carries the sum of all paths and whose reflected paths are
  zero.  Through the DFT mix every block then receives what an all-ones
  reflection pattern, whose columns cannot separate the paths, delivers,
  while the receiver still unmixes with the DFT pattern.

A correct build must FAIL the suite under every mutation; this guards the
suite itself against becoming vacuous.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from . import analysis
from .channel_model import ChannelSet, exponential_pdp, sample_cir
from .errors import ConfigError
from .estimators import baseline_cfr_full, cfo_compensate, cfo_estimate, cir_estimate_full
from .frame import FrameGeometry, build_baseline_pilots, build_periodic_pilots
from .harness import ExperimentConfig, run_monte_carlo
from .link import phase_ramp, snr_to_sigma2, transmit_frame
from .numerics import build_lambda, zadoff_chu
from .ris_pattern import dft_pattern

__all__ = [
    "CheckResult",
    "VerifyReport",
    "suite_closed_form",
    "suite_exactness",
    "suite_monotonicity",
    "suite_comparison",
    "suite_complexity",
    "suite_mutations",
    "verify",
    "DEFAULT_SEED",
    "MUTATIONS",
    "SUITES",
]

DEFAULT_SEED = 20250809
MUTATIONS = ("avg_first_subsequence", "drop_block_phase", "ones_pattern")
SUITES = ("closed_form", "exactness", "monotonicity", "all")  # what verify() runs, by name
_EXACTNESS_DRAWS = 100  # noiseless joint-pipeline draws per M in criterion 4
_EQUIVALENCE_SAMPLES = 50  # configurations checked by criterion 8


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'} {self.name}: {self.detail}"


@dataclass(frozen=True)
class VerifyReport:
    suite: str
    results: list

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def lines(self) -> list[str]:
        lines = [r.line() for r in self.results]
        good = sum(r.passed for r in self.results)
        lines.append(
            f"{self.suite}: {good}/{len(self.results)} checks passed"
            + ("" if self.passed else " -- FAILURES PRESENT")
        )
        return lines


def _point_means(base_seed: int, trials: int, **fields) -> dict[str, float]:
    """Metric means of a Monte Carlo run over ``fields``, with m as the x axis."""
    cfg = ExperimentConfig(trials=trials, base_seed=base_seed, x_axis="m", **fields)
    return {p.metric: p.mean for p in run_monte_carlo(cfg)}


def suite_closed_form(base_seed: int = DEFAULT_SEED, trials: int = 5000) -> list[CheckResult]:
    """Monte Carlo versus the closed-form NMSE expression (plus its limits).

    Grid: N=64, L=8, L_CP=10, QPSK pilots, M in {1, 4, 16, 64}, offsets
    {0, 0.005, 0.01, 0.05}, SNR {10, 20} dB, fixed offset per point.  The
    criterion-1 oracle is ``analysis.nmse_closed_form_exact``: the paper's
    expression counts the leakage power that the estimator's tap
    truncation removes, which at (M=1, eps=0.05) is 4.7% of the NMSE,
    nearly the whole 5% tolerance.
    """
    checks = []
    for m, eps, snr in itertools.product(
        (1, 4, 16, 64), (0.0, 0.005, 0.01, 0.05), (10.0, 20.0)
    ):
        sigma2 = snr_to_sigma2(snr)
        params = analysis.NmseParams(epsilon=eps, n=64, l=8, l_cp=10, m=m, sigma2=sigma2)
        formula = analysis.nmse_closed_form_exact(params)
        measured = _point_means(
            base_seed, trials, n=64, l=8, l_cp=10, m=m, n_z=2, snr_db=snr,
            epsilon={"policy": "fixed", "values": [eps]}, estimator="baseline",
            compensate_baseline=False,
        )["cfr_nmse_baseline_rom"]
        rel = abs(measured / formula - 1.0)
        checks.append(
            CheckResult(
                f"criterion-1 closed-form match M={m} eps={eps} snr={snr:g}dB",
                rel <= 0.05,
                f"mc={measured:.6g} formula={formula:.6g} rel={rel * 100:.2f}% (<=5%)",
            )
        )
        if eps == 0.0:
            # At eps = 0 the paper's expression is its noise term alone.
            noise_only = analysis.nmse_closed_form(params)
            rel0 = abs(measured / noise_only - 1.0)
            checks.append(
                CheckResult(
                    f"criterion-2 noise-only term M={m} snr={snr:g}dB",
                    rel0 <= 0.05,
                    f"mc={measured:.6g} sigma2*L/(N(M+1))={noise_only:.6g} "
                    f"rel={rel0 * 100:.2f}% (<=5%)",
                )
            )

    saturation = analysis.nmse_closed_form(
        analysis.NmseParams(epsilon=0.01, n=64, l=8, l_cp=10, m=10**6, sigma2=0.0)
    )
    checks.append(
        CheckResult(
            "criterion-3 large-M saturation",
            abs(saturation - 2.0) <= 1e-3,
            f"NMSE(M=1e6, eps=0.01)={saturation:.6f}, |.-2|<=1e-3",
        )
    )
    # Turning points exist below the scan limit only when noise still
    # dominates small-M behavior; at sigma2=1 both offsets turn within the
    # grid and their ordering is well separated.
    tp_large = analysis.nmse_turning_point(0.05, 64, 8, 10, 1.0, 10_000)
    tp_small = analysis.nmse_turning_point(0.005, 64, 8, 10, 1.0, 10_000)
    ordered = tp_large is not None and tp_small is not None and tp_large < tp_small
    checks.append(
        CheckResult(
            "criterion-3 turning-point ordering",
            ordered,
            f"turning(eps=0.05)={tp_large} < turning(eps=0.005)={tp_small} at sigma2=1",
        )
    )
    return checks


def _noiseless_joint(
    geom: FrameGeometry,
    channels: ChannelSet,
    epsilon: float,
    rng: np.random.Generator,
    mutation: str | None,
) -> tuple[float, np.ndarray]:
    """Send a noiseless periodic frame; return the joint estimates (eps_hat, G_hat).

    Runs the production stages of ``harness.run_trial``; a mutation
    changes the input of one of them (see the module docstring).
    """
    pattern = dft_pattern(geom.m)
    tx_channels = channels
    if mutation == "ones_pattern":
        # The paths are summed in order, as a running sum, so that every
        # block receives the all-ones pattern's aggregate bit for bit.
        summed = channels.g.cumsum(axis=1)[:, -1:] * np.eye(1, geom.n_blocks)
        tx_channels = ChannelSet(g=summed, n_subcarriers=channels.n_subcarriers)
    frame = build_periodic_pilots(geom, zadoff_chu(geom.l), rng)
    received = transmit_frame(frame, tx_channels, pattern, epsilon, 0.0, rng)
    eps_hat = cfo_estimate(received).epsilon_hat
    if mutation == "drop_block_phase":
        one_block_ramp = phase_ramp(replace(geom, m=0), -eps_hat, received.r.shape[0])
        compensated = replace(received, r=one_block_ramp * received.r)
    else:
        compensated = cfo_compensate(received, eps_hat)
    if mutation == "avg_first_subsequence":
        compensated = replace(compensated, r=np.roll(compensated.r, geom.l, axis=0))
    return eps_hat, cir_estimate_full(compensated, frame, pattern).g_hat


def suite_exactness(
    base_seed: int = DEFAULT_SEED, mutation: str | None = None
) -> list[CheckResult]:
    """Noiseless exactness of the joint pipeline and model equivalence."""
    if mutation is not None and mutation not in MUTATIONS:
        raise ConfigError(f"unknown mutation {mutation!r}; choose from {sorted(MUTATIONS)}")
    checks = []

    for m in (4, 16):
        worst_eps = 0.0
        worst_nmse = 0.0
        for draw in range(_EXACTNESS_DRAWS):
            rng = np.random.default_rng(
                np.random.SeedSequence(base_seed, spawn_key=(101, m, draw))
            )
            geom = FrameGeometry(n=256, l=32, l_cp=34, m=m, n_z=4)
            channels = sample_cir(exponential_pdp(32, 1 / 3), m, 256, rng)
            epsilon = 0.5 - rng.random()
            eps_hat, g_hat = _noiseless_joint(geom, channels, epsilon, rng, mutation)
            worst_eps = max(worst_eps, abs(eps_hat - epsilon))
            worst_nmse = max(worst_nmse, analysis.nmse_freq(channels.g, g_hat))
        checks.append(
            CheckResult(
                f"criterion-4 noiseless CFO exactness M={m}",
                worst_eps <= 1e-9,
                f"worst |eps_hat - eps| = {worst_eps:.3e} over {_EXACTNESS_DRAWS} draws (<=1e-9)",
            )
        )
        checks.append(
            CheckResult(
                f"criterion-4 noiseless pipeline NMSE M={m}",
                worst_nmse <= 1e-12,
                f"worst NMSE(G, G_hat) = {worst_nmse:.3e} over {_EXACTNESS_DRAWS} draws (<=1e-12)",
            )
        )

    rng = np.random.default_rng(np.random.SeedSequence(base_seed, spawn_key=(102,)))
    geom = FrameGeometry(n=256, l=32, l_cp=34, m=4, n_z=4)
    channels = sample_cir(exponential_pdp(32, 1 / 3), 4, 256, rng)
    pattern = dft_pattern(4)
    frame = build_baseline_pilots(geom, rng)
    received = transmit_frame(frame, channels, pattern, 0.0, 0.0, rng)
    estimate = baseline_cfr_full(received, frame, pattern)
    nmse0 = analysis.nmse_freq(channels.h, estimate.h_hat)
    checks.append(
        CheckResult(
            "noiseless baseline CFR exactness",
            nmse0 <= 1e-18,
            f"NMSE(H, H_hat) = {nmse0:.3e} at eps=0, sigma2=0 (<=1e-18)",
        )
    )

    checks.append(_model_equivalence_check(base_seed))
    return checks


def _model_equivalence_check(base_seed: int) -> CheckResult:
    """Criterion 8: time-domain simulation equals the leakage-matrix form."""
    grid = [
        (n, l, m, eps)
        for n in (16, 64, 256)
        for l in (2, 8, 32)
        for m in (0, 1, 4, 16)
        for eps in (0.0, 0.005, -0.005, 0.3, -0.3)
        if l <= n // 2 and n % l == 0
    ]
    rng = np.random.default_rng(np.random.SeedSequence(base_seed, spawn_key=(103,)))
    chosen = [grid[i] for i in rng.choice(len(grid), size=_EQUIVALENCE_SAMPLES, replace=False)]
    worst = 0.0
    worst_cfg = None
    for n, l, m, eps in chosen:
        geom = FrameGeometry(n=n, l=l, l_cp=l, m=m, n_z=2)
        channels = sample_cir(exponential_pdp(l, 1 / 3), m, n, rng)
        pattern = dft_pattern(m)
        frame = build_baseline_pilots(geom, rng)
        received = transmit_frame(frame, channels, pattern, eps, 0.0, rng)
        lam = build_lambda(eps, n)
        k = np.arange(geom.n_blocks)
        block_phase = np.exp(2j * np.pi * eps * geom.l_p * k / n)
        oracle = block_phase * (lam @ (frame.s * (channels.h @ pattern.phi)))
        rel = float(
            np.abs(received.y - oracle).max() / max(np.abs(oracle).max(), 1e-300)
        )
        if rel > worst:
            worst, worst_cfg = rel, (n, l, m, eps)
    return CheckResult(
        f"criterion-8 model equivalence ({_EQUIVALENCE_SAMPLES} configurations)",
        worst <= 1e-9,
        f"worst relative deviation {worst:.3e} at (n, l, m, eps)={worst_cfg} (<=1e-9)",
    )


def _strictly_decreasing(values) -> bool:
    return all(b < a for a, b in zip(values, values[1:]))


# Criterion-5 legs: (check name, points as (n, l, l_cp, m, n_z), metric,
# detail label).  Legs share points; each distinct point runs once.
_NZ_POINTS = [(256, 32, 34, 16, n_z) for n_z in (2, 4, 8)]
_MONOTONICITY_LEGS = (
    (
        "criterion-5 MSE(eps) decreasing in M (4, 16, 64)",
        [(256, 32, 34, m, 4) for m in (4, 16, 64)], "cfo_mse", "mse",
    ),
    # The lag-L correlator reads eps from the angle -2 pi eps L / N, so its
    # MSE in subcarrier spacings scales as (N/L)^2 / ((n_z - 2) L + 1).
    # N therefore grows at a fixed N/L = 8, where only the sample count grows.
    (
        "criterion-5 MSE(eps) decreasing in N (64, 128, 256 at N/L=8)",
        [(64, 8, 10, 16, 4), (128, 16, 18, 16, 4), (256, 32, 34, 16, 4)], "cfo_mse", "mse",
    ),
    ("criterion-5 MSE(eps) decreasing in N_z (2, 4, 8)", _NZ_POINTS, "cfo_mse", "mse"),
    ("criterion-5 CIR NMSE decreasing in N_z (2, 4, 8)", _NZ_POINTS, "cir_nmse", "nmse"),
)


def suite_monotonicity(base_seed: int = DEFAULT_SEED, trials: int = 5000) -> list[CheckResult]:
    """Offset-estimation MSE trends versus M, N, and N_z at 10 dB SNR."""
    distinct = dict.fromkeys(point for _, points, _, _ in _MONOTONICITY_LEGS for point in points)
    means = {
        (n, l, l_cp, m, n_z): _point_means(
            base_seed, trials, n=n, l=l, l_cp=l_cp, m=m, n_z=n_z, snr_db=10.0,
            estimator="proposed",
        )
        for n, l, l_cp, m, n_z in distinct
    }
    checks = []
    for name, points, metric, label in _MONOTONICITY_LEGS:
        curve = [means[point][metric] for point in points]
        checks.append(
            CheckResult(
                name,
                _strictly_decreasing(curve),
                f"{label} = " + ", ".join(f"{v:.3e}" for v in curve),
            )
        )
    return checks


def suite_comparison(base_seed: int = DEFAULT_SEED, trials: int = 5000) -> list[CheckResult]:
    """Frequency-domain baseline versus the joint pipeline, one run, two claims.

    * The uncompensated baseline has at least 10x the joint pipeline's
      NMSE: the offset badly degrades channel estimation, and the joint
      estimator repairs it.
    * The baseline compensated with the joint pipeline's own offset
      estimate has at least the joint pipeline's NMSE: time-domain
      estimation is no worse at matched pilots (``n_p = n_z L = 128``).
      Both then carry the same residual block-phase error, so the ratio
      sits just above 1 rather than far above it.
    """
    points = _point_means(
        base_seed, trials, n=256, l=32, l_cp=34, m=16, n_z=4, n_p=128, snr_db=20.0,
        epsilon={"policy": "uniform"}, estimator="both", compensate_baseline=True,
    )
    proposed = points["cfr_nmse_proposed_rom"]
    baseline = points["cfr_nmse_baseline_rom"]
    ratio = baseline / proposed
    # The uncompensated baseline has no ratio-of-means metric, so this
    # ratio is taken between the per-realization means.
    mean_proposed = points["cfr_nmse_proposed"]
    uncomp = points["cfr_nmse_baseline_uncomp"]
    uncomp_ratio = uncomp / mean_proposed
    return [
        CheckResult(
            "criterion-6 uncompensated-baseline/proposed NMSE ratio >= 10",
            uncomp_ratio >= 10.0,
            f"proposed={mean_proposed:.4e} baseline={uncomp:.4e} "
            f"ratio={uncomp_ratio:.1f}",
        ),
        CheckResult(
            "criterion-6 compensated-baseline/proposed NMSE ratio >= 1",
            ratio >= 1.0,
            f"proposed={proposed:.4e} baseline={baseline:.4e} ratio={ratio:.4f}",
        ),
    ]


def suite_complexity() -> list[CheckResult]:
    """Operation-count model: overall ratio and per-term counter scalings."""
    checks = []
    cfr = analysis.complexity_cfr(n=1024, l=102, n_p=1024, m=100).total
    joint = analysis.complexity_joint(l=102, n_z=4, m=100).total
    ratio = cfr / joint
    checks.append(
        CheckResult(
            "criterion-7 complexity ratio at M=100",
            ratio >= 500.0,
            f"C_cfr/C_joint = {ratio:.0f} at N=1024, L=102, N_p=N, N_z=4 (>=500)",
        )
    )

    base = dict(l=32, n_z=16, m=16)
    doublings = {
        "M": dict(base, m=32),
        "L": dict(base, l=64),
        "N_z": dict(base, n_z=32),
    }

    def counts(params):
        geom = FrameGeometry(
            n=params["l"] * params["n_z"],
            l=params["l"],
            l_cp=params["l"],
            m=params["m"],
            n_z=params["n_z"],
        )
        return analysis.count_joint_multiplications(geom)

    base_counts = counts(base)
    base_terms = analysis.complexity_joint(**base).terms
    for label, params in doublings.items():
        doubled = counts(params)
        terms = analysis.complexity_joint(**params).terms
        for term in base_terms:
            # Each counter scales like the complexity_joint term of the same
            # name, except that the correlation counter's term is "cfo".
            counter = "cfo_correlation" if term == "cfo" else term
            measured_ratio = getattr(doubled, counter) / getattr(base_counts, counter)
            predicted_ratio = terms[term] / base_terms[term]
            rel = abs(measured_ratio / predicted_ratio - 1.0)
            checks.append(
                CheckResult(
                    f"criterion-7 counter scaling {counter} doubling {label}",
                    rel <= 0.20,
                    f"measured x{measured_ratio:.3f} vs predicted x{predicted_ratio:.3f} "
                    f"(within 20%)",
                )
            )
    return checks


def suite_mutations(base_seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """The exactness suite must fail under each deliberately broken variant."""
    checks = []
    for mutation in sorted(MUTATIONS):
        results = suite_exactness(base_seed, mutation=mutation)
        failures = [r for r in results if not r.passed]
        checks.append(
            CheckResult(
                f"criterion-9 exactness suite fails under '{mutation}'",
                bool(failures),
                f"{len(failures)} of {len(results)} checks failed under the mutation",
            )
        )
    return checks


def verify(
    suite: str,
    base_seed: int = DEFAULT_SEED,
    trials: int = 5000,
    mutation: str | None = None,
) -> VerifyReport:
    """Run one named acceptance suite (or ``all``) and collect results."""
    if mutation is not None and suite != "exactness":
        raise ConfigError("--mutation applies to the 'exactness' suite only")
    if suite == "closed_form":
        results = suite_closed_form(base_seed, trials)
    elif suite == "exactness":
        results = suite_exactness(base_seed, mutation=mutation)
    elif suite == "monotonicity":
        results = suite_monotonicity(base_seed, trials)
    elif suite == "all":
        results = (
            suite_closed_form(base_seed, trials)
            + suite_exactness(base_seed)
            + suite_monotonicity(base_seed, trials)
            + suite_comparison(base_seed, trials)
            + suite_complexity()
            + suite_mutations(base_seed)
        )
    else:
        choices = ", ".join(SUITES[:-1]) + f", or {SUITES[-1]}"
        raise ConfigError(f"unknown suite {suite!r}; choose {choices}")
    return VerifyReport(suite=suite, results=results)
