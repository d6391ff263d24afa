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
leading array axis through the same stage functions a single trial calls.
The block size (:func:`block_size`) depends only on the geometry and the
trial count: as many trials as keep one (block, N, M+1) array within
:data:`CAP` = 20480 complex samples, a memory bound set by measured peak
RSS (the fig4b point runs blocks of 4 with no rise in it).  Each trial
draws from its own generator in its own order, every elementwise operation
and transform acts on each trial's values as on a trial alone, and each
trial's metrics are its own ``np.vdot`` sums, so the bytes do not depend on
the block size either, at any array size.  Workers take whole blocks.
"""

from __future__ import annotations

import copy
import csv
import ctypes
import itertools
import json
import math
import numbers
import platform
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import analysis
from .channel_model import exponential_pdp, sample_cir
from .errors import ConfigError, LinkSimError, TrialError
from .estimators import (
    baseline_cfr_full,
    cfo_compensate,
    joint_estimate,
    uniform_comb,
)
from .frame import FrameGeometry, build_baseline_pilots, build_periodic_pilots
from .link import transmit_frame
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

    def validate(self) -> None:
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
            for value in _as_list(getattr(self, name)):
                _require_integer(name, value)
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
                if not -0.5 < value <= 0.5:
                    raise ConfigError(f"fixed epsilon {value} outside (-0.5, 0.5]")
            _require_distinct("epsilon values", list(values))
        axes = {"snr_db", "m", "n_z", "epsilon"}
        if self.x_axis not in axes:
            raise ConfigError(f"x_axis must be one of {sorted(axes)}")
        if self.x_axis == "epsilon" and policy != "fixed":
            raise ConfigError("x_axis='epsilon' requires the fixed epsilon policy")
        for snr_db in _as_list(self.snr_db):
            _require_real("snr_db", snr_db)
            if not math.isfinite(snr_db):
                raise ConfigError(f"snr_db must be a finite number, got {snr_db!r}")
        _require_real("pdp_decay", self.pdp_decay)
        if self.n_p is not None and (self.n_p < self.l or self.n % self.n_p):
            raise ConfigError(
                f"n_p={self.n_p} must divide n={self.n} and be at least l={self.l}: "
                "the baseline comb must be uniform and resolve every tap"
            )
        try:
            exponential_pdp(self.l, self.pdp_decay)
            if self.estimator != "baseline":
                zadoff_chu(self.l, self.zc_root)
            for point in resolve_grid(self):
                geometry_for(self, point)
        except LinkSimError as exc:
            raise ConfigError(f"invalid channel, pilot or grid geometry: {exc}") from exc

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


def geometry_for(cfg: ExperimentConfig, point: GridPoint) -> FrameGeometry:
    return FrameGeometry(n=cfg.n, l=cfg.l, l_cp=cfg.l_cp, m=point.m, n_z=point.n_z)


def _trial_seed(base_seed: int, point_index: int, trial_index: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(base_seed, spawn_key=(point_index, trial_index))


# Complex samples in one (block, N, M+1) array (20480 samples = 320 KiB).  It
# bounds memory only: the bits do not depend on the block size at any cap.
# Set by measuring perfbench's peak RSS: at this cap the fig4b point runs
# blocks of 4 trials with its peak RSS unchanged from one-trial blocks (the
# benchmark's calibration kernel already holds that much heap), while blocks
# of 5 (a cap of 21760) raised it by 3.6% and blocks of 8 (34816) by 12%.
CAP = 20480


def block_size(geometry: FrameGeometry, trials: int) -> int:
    """Trials per block at ``geometry``: as many as keep one block array within :data:`CAP`."""
    return max(1, min(trials, CAP // (geometry.n * geometry.n_blocks)))


class _PointContext:
    """Per-grid-point immutable objects shared across trials."""

    def __init__(self, cfg: ExperimentConfig, point: GridPoint):
        self.cfg = cfg
        self.point = point
        self.geometry = geometry_for(cfg, point)
        self.pdp = exponential_pdp(cfg.l, cfg.pdp_decay)
        self.pattern = dft_pattern(point.m)
        self.z = zadoff_chu(cfg.l, cfg.zc_root)
        self.sigma2 = 10.0 ** (-point.snr_db / 10.0)
        self.pilot_idx = None if cfg.n_p is None else uniform_comb(cfg.n, cfg.n_p)

    def draw_epsilon(self, rng) -> float | np.ndarray:
        """The fixed offset, or a uniform draw over (-0.5, 0.5] per trial."""
        if self.point.epsilon_fixed is not None:
            return float(self.point.epsilon_fixed)
        return per_trial(rng, lambda trial_rng: 0.5 - trial_rng.random())


def _floats(x: float | np.ndarray, trials: int) -> list[float]:
    """One float per trial, from an array of them or one value for all."""
    return x.tolist() if isinstance(x, np.ndarray) else [x] * trials


def _energies(x: np.ndarray) -> float | np.ndarray:
    """Each trial's squared norm, one ``np.vdot`` over its slice of ``x``.

    ``x`` is one trial's (rows, columns) array or a block of them.  A
    reduction over the whole block would sum in another order and move the
    last bit.
    """
    if x.ndim == 2:
        return np.vdot(x, x).real
    return np.array([np.vdot(trial, trial).real for trial in x])


def run_trial(ctx: _PointContext, rngs: list[np.random.Generator]) -> dict:
    """A block of independent trials, one generator each; returns a flat dict
    of metric values, one per trial (numbers for a one-trial block).

    Each trial's draw order is fixed (periodic frame payload, baseline
    pilots, channel, offset, noise per transmission) so results are
    reproducible from the trial seed alone, and the stages compute every
    trial's values with the bits of its one-trial call.
    """
    cfg = ctx.cfg
    geom = ctx.geometry
    run_proposed = cfg.estimator in ("proposed", "both")
    run_baseline = cfg.estimator in ("baseline", "both")
    # A one-trial block calls the stages' one-trial form, which skips the
    # block axis and its per-trial bookkeeping.
    rng = rngs[0] if len(rngs) == 1 else rngs

    frame_p = build_periodic_pilots(geom, ctx.z, rng) if run_proposed else None
    frame_b = build_baseline_pilots(geom, rng) if run_baseline else None
    channels = sample_cir(ctx.pdp, geom.m, cfg.n, rng)
    epsilon = ctx.draw_epsilon(rng)

    out: dict[str, np.ndarray] = {}
    h_energy = _energies(channels.h)
    epsilon_hat = None

    if run_proposed:
        rx_p = transmit_frame(frame_p, channels, ctx.pattern, epsilon, ctx.sigma2, rng)
        joint = joint_estimate(rx_p, frame_p, ctx.pattern)
        epsilon_hat = joint.cfo.epsilon_hat
        pairs = zip(_floats(epsilon, len(rngs)), _floats(epsilon_hat, len(rngs)))
        out["cfo_mse"] = np.array([analysis.mse_cfo(e, e_hat) for e, e_hat in pairs])
        out["cir_nmse_num"] = _energies(joint.cir.g_hat - channels.g)
        out["cir_nmse_den"] = _energies(channels.g)
        out["cir_nmse"] = out["cir_nmse_num"] / out["cir_nmse_den"]
        out["cfr_nmse_proposed_num"] = _energies(joint.cir.h_hat - channels.h)
        out["cfr_nmse_proposed_den"] = h_energy
        out["cfr_nmse_proposed"] = out["cfr_nmse_proposed_num"] / h_energy

    if run_baseline:
        rx_b = transmit_frame(frame_b, channels, ctx.pattern, epsilon, ctx.sigma2, rng)
        compensated = cfg.compensate_baseline and epsilon_hat is not None
        rx_used = cfo_compensate(rx_b, epsilon_hat) if compensated else rx_b
        estimate = baseline_cfr_full(rx_used, frame_b, ctx.pattern, pilot_idx=ctx.pilot_idx)
        out["cfr_nmse_baseline_num"] = _energies(estimate.h_hat - channels.h)
        out["cfr_nmse_baseline_den"] = h_energy
        out["cfr_nmse_baseline"] = out["cfr_nmse_baseline_num"] / h_energy
        if compensated:
            raw = baseline_cfr_full(rx_b, frame_b, ctx.pattern, pilot_idx=ctx.pilot_idx)
            out["cfr_nmse_baseline_uncomp"] = _energies(raw.h_hat - channels.h) / h_energy

    return out


def _run_block(ctx: _PointContext, lo: int, hi: int) -> dict:
    """Trials ``lo`` to ``hi - 1`` of the point as one block.

    If the block raises, its trials are rerun one at a time, so that the
    error names the failing trial and its seed.
    """
    cfg, point = ctx.cfg, ctx.point

    def generators(first: int, stop: int) -> list[np.random.Generator]:
        return [
            np.random.default_rng(_trial_seed(cfg.base_seed, point.index, trial))
            for trial in range(first, stop)
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


def _aggregate_point(
    cfg: ExperimentConfig, point: GridPoint, samples: dict[str, np.ndarray]
) -> list[CurvePoint]:
    points = []
    for name in sorted(samples):
        if name.endswith("_num") or name.endswith("_den"):
            continue
        mean, ci = _mean_ci(samples[name])
        points.append(
            CurvePoint(point.x, name + point.label, mean, ci, cfg.trials)
        )
    # Ratio-of-means variants for the normalized errors: this matches the
    # expectation-ratio definition of the NMSE, while the plain metric above
    # is the mean per-realization ratio.
    for name in sorted(samples):
        if not name.endswith("_num"):
            continue
        base = name[: -len("_num")]
        num = samples[name]
        den = samples[base + "_den"]
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
            sigma2=10.0 ** (-point.snr_db / 10.0),
        )
        points.append(
            CurvePoint(
                point.x,
                "nmse_closed_form" + point.label,
                analysis.nmse_closed_form(params),
                0.0,
                0,
            )
        )
    return points


def run_monte_carlo(cfg: ExperimentConfig, workers: int = 1) -> list[CurvePoint]:
    """Run the full grid; byte-reproducible for any ``workers`` value."""
    _require_integer("workers", workers)
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    cfg.validate()
    curve: list[CurvePoint] = []
    for point in resolve_grid(cfg):
        ctx = _PointContext(cfg, point)
        size = block_size(ctx.geometry, cfg.trials)
        blocks = [(lo, min(lo + size, cfg.trials)) for lo in range(0, cfg.trials, size)]
        storage: dict[str, np.ndarray] = {}

        def run_blocks(chunk: list[tuple[int, int]]) -> None:
            for lo, hi in chunk:
                for key, values in _run_block(ctx, lo, hi).items():
                    if key not in storage:
                        storage[key] = np.empty(cfg.trials)
                    storage[key][lo:hi] = values

        if workers == 1:
            run_blocks(blocks)
        else:
            # Pre-create storage deterministically from block 0, then deal
            # the other blocks out to the workers.
            run_blocks(blocks[:1])
            # Imported here: it and the logging it pulls in cost every
            # import of the package about 12 ms.
            from concurrent.futures import ThreadPoolExecutor

            chunks = [blocks[1 + i :: workers] for i in range(workers)]
            with ThreadPoolExecutor(max_workers=workers) as pool:
                for future in [pool.submit(run_blocks, c) for c in chunks if c]:
                    future.result()
        curve.extend(_aggregate_point(cfg, point, storage))
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
