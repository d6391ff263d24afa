"""Pilot-frame construction.

A frame spans M+1 pilot blocks (one per reflection-pattern column).  Two
styles exist:

* ``baseline``: each block carries independent unit-modulus QPSK symbols on
  all N subcarriers, the classical frequency-domain pilot.
* ``periodic``: each block's time-domain signal starts with N_z identical
  copies of a length-L training sequence z, followed by unit-power payload
  samples.  The repetition enables lag-L correlation (frequency-offset
  estimation) and circulant least squares (impulse-response estimation)
  from the same samples.

Both styles have exactly unit average sample power, so SNR is 1/sigma^2
throughout the package.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionError, ParameterError
from .numerics import circulant_spectrum, dft, idft

__all__ = [
    "FrameGeometry",
    "PilotFrame",
    "qpsk_symbols",
    "build_baseline_pilots",
    "build_periodic_pilots",
]

BASELINE = "baseline"
PERIODIC = "periodic"


@dataclass(frozen=True)
class FrameGeometry:
    """All integer parameters of one pilot frame.

    n      subcarriers per OFDM symbol
    l      channel length in samples (maximum delay spread)
    l_cp   cyclic-prefix length, at least ``l``
    m      number of reflecting elements (frame has m+1 blocks)
    n_z    training subsequences per block, 2 <= n_z <= n/l
    """

    n: int
    l: int
    l_cp: int
    m: int
    n_z: int

    def __post_init__(self):
        if self.n < 1 or self.l < 1:
            raise ParameterError("n and l must be positive")
        if self.l > self.n:
            raise ParameterError(f"channel length {self.l} exceeds n={self.n}")
        if self.n % self.l != 0:
            raise ParameterError(f"n={self.n} must be a multiple of l={self.l}")
        if self.n_s < 2:
            raise ParameterError(f"n/l must be at least 2, got {self.n_s}")
        if not 2 <= self.n_z <= self.n_s:
            raise ParameterError(
                f"n_z={self.n_z} outside [2, {self.n_s}]; the correlation estimator "
                "needs at least one lag-l pair of training subsequences"
            )
        if self.l_cp < self.l:
            raise ParameterError(f"l_cp={self.l_cp} shorter than channel length {self.l}")
        if self.l_cp > self.n:
            raise ParameterError(f"l_cp={self.l_cp} exceeds symbol length {self.n}")
        if self.m < 0:
            raise ParameterError(f"m must be nonnegative, got {self.m}")

    @property
    def n_s(self) -> int:
        """Subsequences per symbol."""
        return self.n // self.l

    @property
    def n_d(self) -> int:
        """Payload subsequences per symbol."""
        return self.n_s - self.n_z

    @property
    def l_p(self) -> int:
        """Pilot block length including cyclic prefix."""
        return self.l_cp + self.n

    @property
    def n_blocks(self) -> int:
        return self.m + 1


@dataclass(frozen=True)
class PilotFrame:
    """Transmit content of one frame; column k of ``s``/``x`` is block k.

    ``x`` is always the unitary IDFT of ``s``, so both views carry the same
    energy.  Frames whose time-domain samples are made directly (periodic
    frames) carry them as ``samples``; otherwise ``x`` is computed from
    ``s`` on first read, since the link itself reads only ``s``.  For periodic frames the
    first ``n_z * l`` samples of every column are ``n_z`` copies of ``z``.
    """

    geometry: FrameGeometry
    s: np.ndarray
    style: str
    z: np.ndarray | None = None
    samples: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        expected = (self.geometry.n, self.geometry.n_blocks)
        if self.s.shape != expected or (
            self.samples is not None and self.samples.shape != expected
        ):
            raise DimensionError(
                f"frame arrays must have shape {expected}, got {self.s.shape} / "
                f"{None if self.samples is None else self.samples.shape}"
            )
        if self.style not in (BASELINE, PERIODIC):
            raise ParameterError(f"unknown frame style {self.style!r}")

    @cached_property
    def x(self) -> np.ndarray:
        """Time-domain view: the built samples, else the unitary IDFT of ``s``."""
        return idft(self.s) if self.samples is None else self.samples


# The QPSK symbol of the bits (a, b), at index 2a + b: ((2a - 1) + 1j (2b - 1)) / sqrt(2).
_QPSK = (np.array([-1, -1, 1, 1]) + 1j * np.array([-1, 1, -1, 1])) / np.sqrt(2.0)


def qpsk_symbols(rng: np.random.Generator, shape) -> np.ndarray:
    """Uniform unit-modulus QPSK draws (+-1 +-1j)/sqrt(2)."""
    re = rng.integers(0, 2, size=shape)
    im = rng.integers(0, 2, size=shape)
    return _QPSK.take(2 * re + im)


def build_baseline_pilots(geometry: FrameGeometry, rng: np.random.Generator) -> PilotFrame:
    """Frequency-domain QPSK pilots on every subcarrier of every block."""
    s = qpsk_symbols(rng, (geometry.n, geometry.n_blocks))
    return PilotFrame(geometry=geometry, s=s, style=BASELINE)


def build_periodic_pilots(
    geometry: FrameGeometry,
    z: np.ndarray,
    rng: np.random.Generator,
) -> PilotFrame:
    """Blocks whose head repeats ``z`` n_z times; the tail carries payload.

    The payload subsequences are random unit-power QPSK samples.  They are
    never used for estimation but they are physically present, so their
    wrap-around through the cyclic prefix contaminates the first training
    subsequence exactly as it would on air.  The same ``z`` serves every
    block.
    """
    z = np.asarray(z, dtype=np.complex128)
    if z.shape != (geometry.l,):
        raise DimensionError(f"z must have shape ({geometry.l},), got {z.shape}")
    circulant_spectrum(z)  # rejects a sequence whose circulant is singular
    head = geometry.n_z * geometry.l
    x = np.empty((geometry.n, geometry.n_blocks), dtype=np.complex128)
    x[:head] = np.tile(z, geometry.n_z)[:, None]
    x[head:] = qpsk_symbols(rng, (geometry.n_d * geometry.l, geometry.n_blocks))
    return PilotFrame(geometry=geometry, s=dft(x), style=PERIODIC, z=z, samples=x)
