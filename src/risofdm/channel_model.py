"""Frequency-selective Rayleigh channels for the direct and reflected paths.

Every path (direct plus one per reflecting element) draws an independent
L-tap impulse response with circularly-symmetric Gaussian taps whose
variances follow a shared power delay profile; the elements are collocated,
so one profile describes them all.  The per-subcarrier gain of a path is
the plain (unnormalized) DFT of its zero-padded impulse response: with a
unit-energy tap profile every subcarrier gain has unit variance, which is
the scale the estimators and the closed-form error analysis are written
in.  The unitary transforms in :mod:`risofdm.numerics` are reserved for
signal synthesis.  A drawn channel is its taps alone; its gains are
transformed from them where they are first read (``ChannelSet.h``).
Given one generator per trial, :func:`sample_cir` draws a block of
realizations stacked along a leading axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionError, ParameterError
from .frame import check_frame
from .numerics import complex_normals

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
    """One realization of all M+1 path channels, as their taps.

    ``g`` stacks the impulse responses column-wise (shape L x (M+1), column
    0 is the direct path); a block of realizations, one per trial, stacks
    them along a leading axis.  A transmit reads only ``g``: it mixes the L
    taps through the pattern it is given, and a full transmit transforms
    the mix to subcarrier gains itself.  ``h``, the gains the estimates are
    scored against, is read by the metrics alone, and is derived from
    ``g`` where it is first read.
    """

    g: np.ndarray
    n_subcarriers: int

    def __post_init__(self):
        g = np.asarray(self.g, dtype=np.complex128)
        object.__setattr__(self, "g", g)
        if g.ndim not in (2, 3):
            raise DimensionError("g must be 2-D with one column per path")
        if g.shape[-2] > self.n_subcarriers:
            raise DimensionError("channel length exceeds subcarrier count")
        if not np.isfinite(g).all():
            raise ParameterError("channel realizations must be finite")

    @cached_property
    def h(self) -> np.ndarray:
        """The subcarrier gains (N x (M+1), stacked like ``g``): each column
        the unnormalized DFT of the zero-padded column of ``g``, computed on
        first read and kept."""
        return cir_to_cfr(self.g, self.n_subcarriers)

    @property
    def n_taps(self) -> int:
        return self.g.shape[-2]

    @property
    def n_paths(self) -> int:
        return self.g.shape[-1]


def cir_to_cfr(g: np.ndarray, n_subcarriers: int) -> np.ndarray:
    """Subcarrier gains of L-tap impulse responses, shaped (..., taps, paths).

    Zero-pads each column to ``n_subcarriers`` and applies the plain DFT
    along the tap axis -2, so an impulse ``[1, 0, ...]`` maps to an
    all-ones response.  The taps are copied into a zeroed array of the
    output's shape, which is transformed in place (``out=``, numpy >= 2.0):
    the bits of ``np.fft.fft(g, n=n_subcarriers, axis=-2)`` without its
    padded temporary.
    """
    g = np.asarray(g, dtype=np.complex128)
    if g.ndim < 2 or g.shape[-2] > n_subcarriers:
        raise DimensionError(
            f"impulse responses of shape {g.shape} need (..., at most {n_subcarriers} taps, paths)"
        )
    h = np.zeros((*g.shape[:-2], n_subcarriers, g.shape[-1]), np.complex128)
    h[..., : g.shape[-2], :] = g
    return np.fft.fft(h, axis=-2, out=h)


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
    return ChannelSet(g=g, n_subcarriers=n_subcarriers)
