"""Benchmark workloads: one risofdm experiment config each.

Every workload is a plain ``ExperimentConfig`` keyword set plus the number
of trials per grid point in one timed repetition; all run on one worker.  The ``why`` of each entry records what the workload stresses;
keep it in mind before retuning a workload, because later changes are
judged by whether the expected workload moves and the control does not.

This module imports only the standard library, so ``run.py`` and
``ready.py`` can read it without loading numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

# The fig4 geometry of the paper: N=256 subcarriers, L=32 taps, L_CP=34,
# N_z=4 training copies per block.
_FIG4 = dict(n=256, l=32, l_cp=34, n_z=4, snr_db=10.0, epsilon={"policy": "uniform"})


@dataclass(frozen=True)
class Workload:
    config: dict
    trials: int  # per grid point in one timed repetition
    reference: str  # key into reference.json; outputs depend on config only
    why: str
    noise_check: bool = False  # eps=0 points must match the noise term; x is m


WORKLOADS = {
    # The fig4b point is the roadmap's unit of speed.  It runs every stage:
    # transmit_frame and baseline_cfr_full twice per trial (compensated and
    # raw baseline), plus the whole joint estimator.
    "fig4b_point": Workload(
        config=dict(_FIG4, m=16, n_p=128, estimator="both", compensate_baseline=True),
        trials=64,
        reference="fig4b",
        why="fig4b point, workers=1: every stage runs, transmit and baseline twice per trial",
    ),
    # Large M makes the (N, L, M+1) transmit gather, the per-block Zadoff-Chu
    # checks in build_periodic_pilots and the pattern unmix dominate.  The
    # baseline never runs, so this is the control for baseline speed-ups.
    "fig4a_m64": Workload(
        config=dict(_FIG4, m=64, estimator="proposed"),
        trials=32,
        reference="fig4a_m64",
        why="fig4a M=64 proposed only: transmit gather, ZC checks and unmix dominate; no baseline",
    ),
    # Same shape as acceptance criterion 1, which dominates tier-1 time: 16
    # small points stress per-call overhead, the per-block Python loop of the
    # baseline at M=64 and the harness's per-point work.  The proposed
    # pipeline never runs, so this is the control for joint-estimator work.
    "fig2_grid": Workload(
        config=dict(
            n=64,
            l=8,
            l_cp=10,
            m=[1, 4, 16, 64],
            n_z=2,
            snr_db=20.0,
            epsilon={"policy": "fixed", "values": [0.0, 0.005, 0.01, 0.05]},
            estimator="baseline",
            x_axis="m",
            compensate_baseline=False,
        ),
        trials=16,
        reference="fig2_grid",
        why="fig2 grid, 16 small points, uncompensated baseline: per-call and per-point overhead",
        noise_check=True,
    ),
    # No workload runs workers > 1.  With default BLAS threads, two harness
    # workers and the BLAS threads share two vCPUs, and a workers=nproc
    # figure spread up to 0.25 (IQR/median) over ten runs even calibrated,
    # as wide as any bound the benchmark may set.  The worker fan-out is
    # still checked: every run compares its first repetition's CSV with a
    # workers=nproc rerun.
}


def build_config(workload: Workload, base_seed: int, trials: int):
    """The workload's validated ``ExperimentConfig`` for one repetition."""
    from risofdm import ExperimentConfig

    cfg = ExperimentConfig(trials=trials, base_seed=base_seed, **workload.config)
    cfg.validate()
    return cfg
