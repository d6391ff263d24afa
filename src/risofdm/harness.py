"""Monte Carlo experiment runner.

An :class:`ExperimentConfig` mirrors the JSON config file format one to
one.  Any of ``m``, ``n_z``, ``snr_db`` and the fixed-offset values may be
lists; the runner expands their Cartesian product into grid points, runs
``trials`` independent trials per point, and aggregates per-trial metrics
into :class:`CurvePoint` rows.

Reproducibility contract: trial ``t`` of grid point ``p`` always draws
from ``numpy``'s PCG64 generator seeded with
``SeedSequence(base_seed, spawn_key=(p, t))``.  Results are stored by
trial index and reduced in index order with exact summation, so the output
is byte-identical for any worker count.

Trials run in fixed blocks of consecutive trial indices, stacked along a
leading array axis through the stages' block form; a block of one trial
takes the same path as any other block.  The block size
(:func:`block_size`) depends only on the geometry and the trial count: as
many trials as keep one (block, N, M+1) array within
:data:`CAP` = 20480 complex samples, a bound on memory only (the fig4b
point runs blocks of 4).  Each trial draws from its own generator in its
own order, every elementwise operation and transform acts on each trial's
values as on a trial alone, and each trial's metrics are its own
``np.vdot`` sums, so the bytes do not depend on the block size either, at
any array size.  The runner is one ordered map
over every (point, block) task of the grid; with more than one worker, one
thread pool takes the blocks of all points.
"""

from __future__ import annotations

import contextlib
import copy
import csv
import ctypes
import itertools
import json
import math
import numbers
import os
import platform
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import analysis
from .channel_model import exponential_pdp, sample_cir
from .errors import ConfigError, LinkSimError, TrialError
from .estimators import (
    CirEstimate,
    baseline_cfr_full,
    cfo_compensate,
    joint_estimate,
    uniform_comb,
)
from .frame import FrameGeometry, build_baseline_pilots, build_periodic_pilots, check_comb
from .link import check_offset, snr_to_sigma2, transmit_frame
from .numerics import per_trial, zadoff_chu
from .ris_pattern import dft_pattern

__all__ = [
    "ExperimentConfig",
    "CurvePoint",
    "run_monte_carlo",
    "recipe",
    "RECIPES",
    "write_csv",
    "emit_csv",
    "read_csv",
    "load_config",
]

ESTIMATORS = ("baseline", "proposed", "both")

# OpenBLAS's thread-count setter in numpy 2 wheels and in numpy 1 wheels.
_OPENBLAS_SET_THREADS = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_")
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc mallopt parameters


def _single_thread_blas() -> None:
    """Run numpy's bundled OpenBLAS, if there is one, on one thread.

    The harness parallelizes over trials (``workers``), so BLAS threads
    only cost: above 10^4 elements OpenBLAS splits even the metrics' dot
    products across cores, a trial then waits for a second core that
    other processes may hold, and between calls the idle BLAS threads spin
    on it.  The split also changes the order of the partial sums, so the
    metrics' last bits would depend on the machine's core count.  Other
    BLAS builds are left as they are.
    """
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in _OPENBLAS_SET_THREADS:
            if hasattr(lib, symbol):
                setter = getattr(lib, symbol)
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                setter(1)
                return


def _keep_freed_memory() -> None:
    """Keep freed heap memory for reuse, where the C library is glibc.

    A trial allocates and frees a few arrays of N x (M+1) samples.  glibc
    sets its mmap and trim thresholds from the largest block freed so far,
    so they settle near one such array, and the heap is returned to the
    system after every trial and faulted back in by the next: at N=256,
    M=64 about 600 page faults per trial, a quarter of its CPU time.
    These are the ceilings glibc's own adaptive thresholds can reach.
    """
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


# Process-wide, at import, so that anything replaying ``run_trial`` in this
# process computes the same bits at the same speed.
_single_thread_blas()
_keep_freed_memory()


# Config fields that hold integers, or lists of them for the grid axes; n_p
# may also be None.
_INTEGER_FIELDS = ("n", "l", "l_cp", "m", "n_z", "trials", "base_seed", "zc_root")


def _require_integer(name: str, value) -> None:
    # bool is an Integral too, but true/false in a config is never a count.
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")


def _require_real(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} {value!r} is not a number")
    try:
        float(value)
    except OverflowError:  # a JSON integer beyond the float range
        raise ConfigError(f"{name} is an integer too large for a float") from None


def _require_distinct(name: str, values: list) -> None:
    # A repeated value would write two CSV rows with the same (x, metric) key.
    if any(value in values[:i] for i, value in enumerate(values)):
        raise ConfigError(f"{name} repeats a value: {values!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one experiment.

    ``epsilon`` is either ``{"policy": "uniform"}`` (fresh draw from
    (-0.5, 0.5] per trial) or ``{"policy": "fixed", "values": [...]}``
    (each value becomes a grid axis entry).  ``n_p`` selects a uniform comb
    of pilot subcarriers for the baseline estimator (``None`` = all).
    ``estimator`` picks which pipelines run.  ``out`` is the default CSV
    path used by the command line when ``--out`` is absent.
    """

    n: int
    l: int
    l_cp: int
    m: int | list = 1
    n_z: int | list = 2
    n_p: int | None = None
    snr_db: float | list = 10.0
    epsilon: dict = field(default_factory=lambda: {"policy": "uniform"})
    trials: int = 1000
    base_seed: int = 12345
    estimator: str = "proposed"
    pdp_decay: float = 1.0 / 3.0
    zc_root: int = 1
    x_axis: str = "snr_db"
    compensate_baseline: bool = True
    out: str | None = None

    def validate(self) -> list[_PointContext]:
        """Check every field and build the runner's grid points; returns their contexts."""
        if self.estimator not in ESTIMATORS:
            raise ConfigError(
                f"unknown estimator {self.estimator!r}: use one of {', '.join(ESTIMATORS)}"
            )
        for name in ("m", "n_z", "snr_db"):
            values = _as_list(getattr(self, name))
            if not values:
                raise ConfigError(f"{name} must not be an empty list: the grid would be empty")
            _require_distinct(name, values)
        for name in _INTEGER_FIELDS:
            value = getattr(self, name)
            for item in _as_list(value) if name in ("m", "n_z") else [value]:
                _require_integer(name, item)
        if self.n_p is not None:
            _require_integer("n_p", self.n_p)
            if self.estimator == "proposed":
                raise ConfigError(
                    "n_p sets the baseline's pilot comb, and estimator='proposed' runs no "
                    "baseline: leave n_p null, or use estimator='baseline' or 'both'"
                )
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.base_seed < 0:
            raise ConfigError(f"base_seed must be >= 0, got {self.base_seed}")
        if not isinstance(self.compensate_baseline, bool):
            raise ConfigError(
                f"compensate_baseline must be true or false, got {self.compensate_baseline!r}"
            )
        if self.estimator == "baseline" and self.compensate_baseline:
            raise ConfigError(
                "estimator='baseline' runs no offset estimator, so there is nothing to "
                "compensate the baseline with: set compensate_baseline=false, or use "
                "estimator='both' to compensate it with the joint estimate"
            )
        if not isinstance(self.epsilon, dict):
            raise ConfigError(
                f"epsilon must be a policy object like {{'policy': 'uniform'}}, "
                f"got {self.epsilon!r}"
            )
        policy = self.epsilon.get("policy")
        if policy not in ("uniform", "fixed"):
            raise ConfigError(f"unknown epsilon policy {self.epsilon!r}")
        extra = set(self.epsilon) - ({"policy", "values"} if policy == "fixed" else {"policy"})
        if extra:
            raise ConfigError(
                f"epsilon policy {policy!r} takes no {sorted(map(str, extra))}: {self.epsilon!r}"
            )
        if policy == "fixed":
            values = self.epsilon.get("values")
            if not isinstance(values, (list, tuple)) or not values:
                raise ConfigError(
                    f"fixed epsilon policy needs a nonempty list of 'values', got {values!r}"
                )
            for value in values:
                _require_real("fixed epsilon", value)
            _require_distinct("epsilon values", list(values))
        # A tuple, not a set: a list or dict x_axis is then unequal, not unhashable.
        axes = ("epsilon", "m", "n_z", "snr_db")
        if self.x_axis not in axes:
            raise ConfigError(f"x_axis must be one of {list(axes)}, got {self.x_axis!r}")
        if self.x_axis == "epsilon" and policy != "fixed":
            raise ConfigError("x_axis='epsilon' requires the fixed epsilon policy")
        for snr_db in _as_list(self.snr_db):
            _require_real("snr_db", snr_db)
            if not math.isfinite(snr_db):
                raise ConfigError(f"snr_db must be a finite number, got {snr_db!r}")
        _require_real("pdp_decay", self.pdp_decay)
        # true would open file descriptor 1, an integer that descriptor.
        if self.out is not None and not isinstance(self.out, str):
            raise ConfigError(f"out must be a string or null, got {self.out!r}")
        return [_PointContext(self, point) for point in resolve_grid(self)]

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        missing = {"n", "l", "l_cp"} - set(data)
        if missing:
            raise ConfigError(f"missing required config fields: {sorted(missing)}")
        cfg = cls(**data)
        cfg.validate()
        return cfg


def load_config(path) -> ExperimentConfig:
    """Read and validate a JSON experiment configuration."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return ExperimentConfig.from_dict(data)


@dataclass(frozen=True)
class CurvePoint:
    """One aggregated number: metric value at one grid x with a 95% CI."""

    x: float
    metric: str
    mean: float
    ci95: float
    trials: int

    @classmethod
    def analytic(cls, x: float, metric: str, value: float) -> "CurvePoint":
        """A model row: exact, so its ci95 is 0, and drawn from no trials."""
        return cls(x, metric, value, 0.0, 0)


@dataclass(frozen=True)
class GridPoint:
    """One fully resolved parameter combination."""

    index: int
    snr_db: float
    m: int
    n_z: int
    epsilon_fixed: float | None
    x: float
    label: str


def _as_list(value) -> list:
    return list(value) if isinstance(value, (list, tuple)) else [value]


def resolve_grid(cfg: ExperimentConfig) -> list[GridPoint]:
    """Expand list-valued config fields into the Cartesian grid."""
    policy = cfg.epsilon.get("policy")
    eps_values = _as_list(cfg.epsilon.get("values")) if policy == "fixed" else [None]
    axes = {
        "snr_db": _as_list(cfg.snr_db),
        "m": _as_list(cfg.m),
        "n_z": _as_list(cfg.n_z),
        "epsilon": eps_values,
    }
    label_axes = [
        name
        for name in ("snr_db", "m", "n_z", "epsilon")
        if name != cfg.x_axis and len(axes[name]) > 1
    ]
    points = []
    combos = itertools.product(
        axes["snr_db"], axes["m"], axes["n_z"], axes["epsilon"]
    )
    for index, (snr_db, m, n_z, eps) in enumerate(combos):
        values = {"snr_db": snr_db, "m": m, "n_z": n_z, "epsilon": eps}
        labels = ",".join(f"{name}={values[name]:g}" for name in label_axes)
        points.append(
            GridPoint(
                index=index,
                snr_db=float(snr_db),
                m=int(m),
                n_z=int(n_z),
                epsilon_fixed=eps,
                x=float(values[cfg.x_axis]),
                label=f"[{labels}]" if labels else "",
            )
        )
    return points


# Complex samples in one (block, N, M+1) array (20480 samples = 320 KiB).  It
# bounds memory only: the bits do not depend on the block size at any cap.
# perfbench's fig4b peak RSS (three 8 s runs each, 2-vCPU host) read
# 40.9 MB in one-trial blocks, 43.3-43.4 in this cap's blocks of 4,
# 43.4-43.5 in blocks of 5 (a cap of 21760) and 45.1 in blocks of 8
# (34816); that figure also moves by 2 MB with the process layout alone.
# Three runs each could not rank the throughput of 4, 5 and 8 trials.
CAP = 20480


def block_size(geometry: FrameGeometry, trials: int) -> int:
    """Trials per block at ``geometry``: as many as keep one block array within :data:`CAP`."""
    return max(1, min(trials, CAP // (geometry.n * geometry.n_blocks)))


def _named(field_name: str, build, *args):
    """``build(*args)``; a rule it breaks is a config error that names ``field_name`` first."""
    try:
        return build(*args)
    except LinkSimError as exc:
        raise ConfigError(f"{field_name}: {exc}") from exc


class _PointContext:
    """What one grid point needs, shared by its trials; building it applies every rule they do."""

    def __init__(self, cfg: ExperimentConfig, point: GridPoint):
        self.cfg = cfg
        self.point = point
        try:  # these rules name their parameter in their messages
            self.geometry = FrameGeometry(n=cfg.n, l=cfg.l, l_cp=cfg.l_cp, m=point.m, n_z=point.n_z)
            if point.epsilon_fixed is not None:
                check_offset(point.epsilon_fixed)
            if cfg.n_p is not None:
                check_comb(cfg.n, cfg.l, cfg.n_p)
        except LinkSimError as exc:
            raise ConfigError(str(exc)) from exc
        self.pdp = _named("pdp_decay", exponential_pdp, cfg.l, cfg.pdp_decay)
        self.sigma2 = _named("snr_db", snr_to_sigma2, point.snr_db)
        run_joint = cfg.estimator != "baseline"  # only the joint pipeline sends training
        self.z = _named("zc_root", zadoff_chu, cfg.l, cfg.zc_root) if run_joint else None
        self.pattern = dft_pattern(point.m)
        self.pilot_idx = None if cfg.n_p is None else uniform_comb(cfg.n, cfg.n_p)

    def draw_epsilon(self, rng) -> float | np.ndarray:
        """The fixed offset, or a uniform draw over (-0.5, 0.5] per trial."""
        if self.point.epsilon_fixed is not None:
            return float(self.point.epsilon_fixed)
        return per_trial(rng, lambda trial_rng: 0.5 - trial_rng.random())


def _energies(x: np.ndarray) -> np.ndarray:
    """Each trial's squared norm, one ``np.vdot`` over its slice of the block ``x``.

    A reduction over the whole block would sum in another order and move
    the last bit.
    """
    return np.array([np.vdot(trial, trial).real for trial in x])


def _cfr_errors(estimate: CirEstimate, h: np.ndarray) -> np.ndarray:
    """Each trial's ||h_hat - h||^2, with ``h`` subtracted in place from the
    gains ``h_hat`` transforms afresh: no difference array is made.
    """
    error = estimate.h_hat
    error -= h
    return _energies(error)


def _run_proposed(ctx: _PointContext, frame, channels, epsilon, rngs, out: dict) -> np.ndarray:
    """The joint pipeline's metrics into ``out``; returns the offset estimates.

    Its received frame and estimate are freed on return.
    """
    rx = transmit_frame(frame, channels, ctx.pattern, epsilon, ctx.sigma2, rngs)
    joint = joint_estimate(rx, frame, ctx.pattern)
    epsilon_hat = joint.cfo.epsilon_hat
    pairs = zip(np.broadcast_to(epsilon, epsilon_hat.shape).tolist(), epsilon_hat.tolist())
    out["cfo_mse"] = np.array([analysis.mse_cfo(e, e_hat) for e, e_hat in pairs])
    out["cir_nmse_num"] = _energies(joint.cir.g_hat - channels.g)
    out["cir_nmse_den"] = _energies(channels.g)
    out["cfr_nmse_proposed_num"] = _cfr_errors(joint.cir, channels.h)
    return epsilon_hat


def run_trial(ctx: _PointContext, rngs: list[np.random.Generator]) -> dict:
    """A block of independent trials, one generator each; returns a flat dict
    of metric arrays, one value per trial.

    A block of one takes this path too.  Each trial's draw order is fixed
    (periodic frame's payload tail, baseline pilots, channel, offset, noise
    per transmission: the periodic frame's over its training window only)
    so results are reproducible from the trial seed alone, and
    the stages compute every trial's values with the bits of its one-trial
    call.

    Each full-size array is freed once nothing downstream reads it: the
    periodic frame and everything the joint pipeline made are gone before
    the baseline frame is sent, and the compensated baseline's frame before
    the raw estimate.  What a trial keeps throughout is the channel (its
    taps and gains) and the baseline pilots; every phase ramp and mix is
    built where it is read, for the rows that are read, and nothing is
    cached across trials or blocks.
    """
    cfg = ctx.cfg
    geom = ctx.geometry
    run_proposed = cfg.estimator in ("proposed", "both")
    run_baseline = cfg.estimator in ("baseline", "both")

    frame_p = build_periodic_pilots(geom, ctx.z, rngs) if run_proposed else None
    frame_b = build_baseline_pilots(geom, rngs) if run_baseline else None
    channels = sample_cir(ctx.pdp, geom.m, cfg.n, rngs)
    h_energy = _energies(channels.h)  # transforms the taps once, for every metric
    epsilon = ctx.draw_epsilon(rngs)

    out: dict[str, np.ndarray] = {}
    epsilon_hat = None

    if run_proposed:
        epsilon_hat = _run_proposed(ctx, frame_p, channels, epsilon, rngs, out)
        out["cfr_nmse_proposed_den"] = h_energy
        del frame_p  # its pilots are read by nothing after the joint pipeline

    if run_baseline:
        rx_b = transmit_frame(frame_b, channels, ctx.pattern, epsilon, ctx.sigma2, rngs)
        compensated = cfg.compensate_baseline and epsilon_hat is not None
        # The compensated frame is an argument only, freed when its estimate returns.
        estimate = baseline_cfr_full(
            cfo_compensate(rx_b, epsilon_hat) if compensated else rx_b,
            frame_b, ctx.pattern, pilot_idx=ctx.pilot_idx,
        )
        out["cfr_nmse_baseline_num"] = _cfr_errors(estimate, channels.h)
        out["cfr_nmse_baseline_den"] = h_energy
        if compensated:
            raw = baseline_cfr_full(rx_b, frame_b, ctx.pattern, pilot_idx=ctx.pilot_idx)
            out["cfr_nmse_baseline_uncomp"] = _cfr_errors(raw, channels.h) / h_energy

    return out


def _run_block(ctx: _PointContext, lo: int, hi: int) -> dict:
    """Trials ``lo`` to ``hi - 1`` of the point as one block.

    If the block raises, its trials are rerun one at a time, so that the
    error names the failing trial and its seed.
    """
    cfg, point = ctx.cfg, ctx.point

    def generators(first: int, stop: int) -> list[np.random.Generator]:
        return [
            np.random.default_rng(np.random.SeedSequence(cfg.base_seed, spawn_key=(point.index, t)))
            for t in range(first, stop)
        ]

    try:
        return run_trial(ctx, generators(lo, hi))
    except Exception:  # noqa: BLE001 - find the trial, then report its seed
        for trial in range(lo, hi):
            try:
                run_trial(ctx, generators(trial, trial + 1))
            except Exception as exc:  # noqa: BLE001 - report the seed
                raise TrialError(point.index, trial, cfg.base_seed, exc) from exc
        raise


def _mean_ci(values: np.ndarray) -> tuple[float, float]:
    trials = values.shape[0]
    mean = math.fsum(values) / trials
    if trials < 2:
        return mean, 0.0
    var = math.fsum((v - mean) ** 2 for v in values) / (trials - 1)
    return mean, 1.96 * math.sqrt(var / trials)


def _aggregate_point(ctx: _PointContext, samples: dict[str, np.ndarray]) -> list[CurvePoint]:
    # A normalized error is stored as its _num/_den pair and gives two rows:
    # the mean per-realization ratio under the plain name, and the ratio of
    # means (``_rom``), which matches the expectation-ratio definition of the NMSE.
    cfg, point = ctx.cfg, ctx.point
    bases = sorted(name[: -len("_num")] for name in samples if name.endswith("_num"))
    rows = {name: samples[name] for name in samples if name[-4:] not in ("_num", "_den")}
    rows.update((base, samples[base + "_num"] / samples[base + "_den"]) for base in bases)
    points = []
    for name in sorted(rows):
        mean, ci = _mean_ci(rows[name])
        points.append(CurvePoint(point.x, name + point.label, mean, ci, cfg.trials))
    for base in bases:
        num, den = samples[base + "_num"], samples[base + "_den"]
        total_den = math.fsum(den)
        rom = math.fsum(num) / total_den
        mean_den = total_den / den.shape[0]
        residuals = (num - rom * den) / mean_den
        _, ci = _mean_ci(residuals)
        points.append(CurvePoint(point.x, base + "_rom" + point.label, rom, ci, cfg.trials))
    if (
        cfg.estimator in ("baseline", "both")
        and point.epsilon_fixed is not None
        and not cfg.compensate_baseline
        and cfg.n_p is None
    ):
        params = analysis.NmseParams(
            epsilon=point.epsilon_fixed,
            n=cfg.n,
            l=cfg.l,
            l_cp=cfg.l_cp,
            m=point.m,
            sigma2=ctx.sigma2,
        )
        value = analysis.nmse_closed_form(params)
        points.append(CurvePoint.analytic(point.x, "nmse_closed_form" + point.label, value))
    return points


def run_monte_carlo(cfg: ExperimentConfig, workers: int = 1) -> list[CurvePoint]:
    """Run the full grid; byte-reproducible for any ``workers`` value.

    One ordered map over every (point, block) task: the builtin ``map`` on
    one worker, a thread pool's on more, with no more threads than tasks
    or cores.  Results are read in task order, so the bytes and the first
    error raised do not depend on ``workers``.
    """
    _require_integer("workers", workers)
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    tasks = []  # (point context, first trial, stop trial) of every block, in grid order
    for ctx in cfg.validate():
        size = block_size(ctx.geometry, cfg.trials)
        tasks += [(ctx, lo, min(lo + size, cfg.trials)) for lo in range(0, cfg.trials, size)]
    if workers == 1:
        pool, ordered_map = contextlib.nullcontext(), map
    else:
        # Imported here: it and the logging it pulls in cost every import of
        # the package about 12 ms.
        from concurrent.futures import ThreadPoolExecutor

        # The pool starts a thread for each task submitted while none is idle,
        # and ``map`` submits every task at once: the cap bounds the threads.
        pool = ThreadPoolExecutor(max_workers=min(workers, len(tasks), os.cpu_count() or 1))
        ordered_map = pool.map
    curve: list[CurvePoint] = []
    with pool:
        for (ctx, lo, hi), values in zip(tasks, ordered_map(_run_block, *zip(*tasks))):
            if lo == 0:
                storage = {key: np.empty(cfg.trials) for key in values}
            for key, column in values.items():
                storage[key][lo:hi] = column
            if hi == cfg.trials:
                curve.extend(_aggregate_point(ctx, storage))
    return curve


# Fields the fig4a and fig4b presets share.
_FIG4 = dict(
    n=256, l=32, l_cp=34, n_z=4, snr_db=[0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0],
    epsilon={"policy": "uniform"}, trials=5000, x_axis="snr_db",
)

# Preset experiment configurations, by name: the config fields of each.
RECIPES = {
    "fig2": dict(
        n=64, l=8, l_cp=10, m=[1, 2, 4, 8, 16, 32, 64, 128], n_z=2, snr_db=20.0,
        epsilon={"policy": "fixed", "values": [0.0, 0.005, 0.01, 0.05]}, trials=5000,
        estimator="baseline", x_axis="m", compensate_baseline=False,
    ),
    "fig4a": dict(_FIG4, m=[16, 64], estimator="proposed"),
    "fig4b": dict(_FIG4, m=16, n_p=128, estimator="both", compensate_baseline=True),
}


def recipe(name: str) -> ExperimentConfig:
    """The preset experiment configuration ``name``, one of :data:`RECIPES`.

    ``fig2``: closed-form NMSE overlay versus Monte Carlo for the baseline
    estimator under fixed offsets (N=64, L=8, L_CP=10, QPSK pilots).
    ``fig4a``/``fig4b``: offset-estimation MSE and channel NMSE versus SNR
    for the proposed pipeline (and the compensated baseline in 4b) with
    L=32, L_CP=34 and uniform random offsets.  The element/subcarrier
    grids of the 4x presets are representative placeholders; sweep them
    with your own configs as needed.  Each call returns fresh lists and
    dicts, so a caller may change them.
    """
    if name not in RECIPES:
        raise ConfigError(f"unknown recipe {name!r}")
    return ExperimentConfig(**copy.deepcopy(RECIPES[name]))


def write_csv(points: list[CurvePoint], fh) -> None:
    """Write curve points as CSV to the text stream ``fh``.

    Rows are sorted by (metric, x), with 12 significant digits.  ``fh`` is
    written as is, so a file should be opened with ``newline=""``.
    """
    writer = csv.writer(fh)
    writer.writerow(["x", "metric", "mean", "ci95", "trials"])
    for p in sorted(points, key=lambda p: (p.metric, p.x)):
        writer.writerow([f"{p.x:.12g}", p.metric, f"{p.mean:.12g}", f"{p.ci95:.12g}", p.trials])


def emit_csv(points: list[CurvePoint], path) -> None:
    """Write curve points to the file ``path`` with :func:`write_csv`."""
    try:
        with open(path, "w", newline="") as fh:
            write_csv(points, fh)
    except OSError as exc:
        raise ConfigError(f"cannot write CSV {path}: {exc}") from exc


def read_csv(path) -> list[CurvePoint]:
    """Read back a CSV written by :func:`emit_csv`."""
    points = []
    try:
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                points.append(
                    CurvePoint(
                        x=float(row["x"]),
                        metric=row["metric"],
                        mean=float(row["mean"]),
                        ci95=float(row["ci95"]),
                        trials=int(row["trials"]),
                    )
                )
    except OSError as exc:
        raise ConfigError(f"cannot read CSV {path}: {exc}") from exc
    return points
