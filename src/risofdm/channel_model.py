"""Frequency-selective Rayleigh channels for the direct and reflected paths.

Every path (direct plus one per reflecting element) draws an independent
L-tap impulse response with circularly-symmetric Gaussian taps whose
variances follow a shared power delay profile; the elements are collocated,
so one profile describes them all.  The per-subcarrier gain of a path is
the plain (unnormalized) DFT of its zero-padded impulse response: with a
unit-energy tap profile every subcarrier gain has unit variance, which is
the scale the estimators and the closed-form error analysis are written
in.  The unitary transforms in :mod:`risofdm.numerics` are reserved for
signal synthesis.  Given one generator per trial, :func:`sample_cir` draws
a block of realizations stacked along a leading axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError
from .frame import check_frame
from .numerics import complex_normals, sample_axis

__all__ = [
    "PowerDelayProfile",
    "ChannelSet",
    "exponential_pdp",
    "sample_cir",
    "cir_to_cfr",
]


@dataclass(frozen=True)
class PowerDelayProfile:
    """Per-tap average powers, normalized to unit total power."""

    p: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=np.float64)
        object.__setattr__(self, "p", p)
        if p.ndim != 1 or p.shape[0] < 1:
            raise ParameterError("power delay profile must be a nonempty 1-D array")
        if not np.all(np.isfinite(p)) or np.any(p < 0):
            raise ParameterError("power delay profile needs finite nonnegative taps")
        if abs(p.sum() - 1.0) > 1e-12:
            raise ParameterError(f"power delay profile must sum to 1, got {p.sum()!r}")

    @property
    def n_taps(self) -> int:
        return self.p.shape[0]


def exponential_pdp(n_taps: int, decay: float) -> PowerDelayProfile:
    """Exponentially decaying profile p(l) ~ exp(-decay * l), unit sum."""
    if n_taps < 1:
        raise ParameterError(f"exponential_pdp needs n_taps >= 1, got {n_taps}")
    if not decay > 0:
        raise ParameterError(f"exponential_pdp needs decay > 0, got {decay}")
    raw = np.exp(-decay * np.arange(n_taps, dtype=np.float64))
    return PowerDelayProfile(raw / raw.sum())


@dataclass(frozen=True)
class ChannelSet:
    """One realization of all M+1 path channels.

    ``g`` stacks the impulse responses column-wise (shape L x (M+1), column
    0 is the direct path) and ``h`` holds the matching subcarrier gains
    (shape N x (M+1)), each column the unnormalized DFT of the zero-padded
    column of ``g``.  A block of realizations, one per trial, stacks both
    along a leading axis.  A transmit reads only ``g``: it mixes the L taps
    through the pattern it is given, and a full transmit transforms the mix
    to subcarrier gains itself.  ``h`` is read by the metrics alone, as the
    truth the estimates are scored against.  The set keeps nothing derived
    from them.
    """

    g: np.ndarray
    h: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.g, dtype=np.complex128)
        h = np.asarray(self.h, dtype=np.complex128)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "h", h)
        if (
            g.ndim not in (2, 3)
            or h.ndim != g.ndim
            or h.shape[:-2] != g.shape[:-2]
            or g.shape[-1] != h.shape[-1]
        ):
            raise DimensionError("g and h must be 2-D with one column per path")
        if g.shape[-2] > h.shape[-2]:
            raise DimensionError("channel length exceeds subcarrier count")
        if not (np.isfinite(g).all() and np.isfinite(h).all()):
            raise ParameterError("channel realizations must be finite")

    @property
    def n_taps(self) -> int:
        return self.g.shape[-2]

    @property
    def n_subcarriers(self) -> int:
        return self.h.shape[-2]

    @property
    def n_paths(self) -> int:
        return self.g.shape[-1]


def cir_to_cfr(g: np.ndarray, n_subcarriers: int) -> np.ndarray:
    """Subcarrier gains of an L-tap impulse response (or columns of them).

    Zero-pads to ``n_subcarriers`` and applies the plain DFT along the tap
    axis (:func:`~risofdm.numerics.sample_axis`), so an impulse
    ``[1, 0, ...]`` maps to an all-ones response.  The taps are copied into
    a zeroed array of the output's shape, which is transformed in place
    (``out=``, numpy >= 2.0): the bits of ``np.fft.fft(g, n=n_subcarriers)``
    without its padded temporary.
    """
    g = np.asarray(g, dtype=np.complex128)
    axis = sample_axis(g)
    taps = g.shape[axis]
    if taps > n_subcarriers:
        raise DimensionError(
            f"impulse response has {taps} taps, more than {n_subcarriers} subcarriers"
        )
    shape = list(g.shape)
    shape[axis] = n_subcarriers
    h = np.zeros(shape, np.complex128)
    (h[:taps] if axis == 0 else h[..., :taps, :])[...] = g
    return np.fft.fft(h, axis=axis, out=h)


def sample_cir(
    pdp: PowerDelayProfile,
    n_reflectors: int,
    n_subcarriers: int,
    rng,
) -> ChannelSet:
    """Draw impulse responses for the direct path and ``n_reflectors`` paths.

    Tap (l, m) is complex Gaussian with variance ``pdp.p[l]``, independent
    across taps and paths.  The caller owns the random stream, so trials
    can run concurrently on independent generators; ``rng`` is one
    generator, or one per trial for a block of realizations.  The taps are
    drawn as :func:`~risofdm.numerics.complex_normals`, real and imaginary
    parts interleaved, and each tap's two parts are scaled in place by
    sqrt(p[l] / 2).
    """
    check_frame(n_subcarriers, pdp.n_taps, pdp.n_taps, n_reflectors)  # a draw has no prefix
    g = complex_normals(rng, (pdp.n_taps, n_reflectors + 1))
    parts = g.view(np.float64)  # a tap row's parts share its scale
    parts *= np.sqrt(pdp.p / 2.0)[:, None]
    return ChannelSet(g=g, h=cir_to_cfr(g, n_subcarriers))
