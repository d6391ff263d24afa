"""Pilot-frame construction.

A frame spans M+1 pilot blocks (one per reflection-pattern column).  Two
styles exist, told apart by the training sequence z that only a periodic
frame carries:

* ``baseline``: each block carries independent unit-modulus QPSK symbols on
  all N subcarriers, the classical frequency-domain pilot.
* ``periodic``: each block's time-domain signal starts with N_z identical
  copies of a length-L training sequence z, followed by unit-power payload
  samples.  The repetition enables lag-L correlation (frequency-offset
  estimation) and circulant least squares (impulse-response estimation)
  from the same samples.

Both styles have exactly unit average sample power, so SNR is 1/sigma^2
throughout the package.

A frame keeps only what the link reads: its spectrum, and a periodic
frame's z.  Its time samples are the unitary IDFT of that spectrum.

Given a sequence of generators, one per trial, the builders return a block
of frames whose spectra stack the trials along a leading axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionError, ParameterError
from .numerics import circulant_spectrum, dft, per_trial

__all__ = [
    "check_frame",
    "check_training",
    "check_comb",
    "FrameGeometry",
    "PilotFrame",
    "qpsk_symbols",
    "build_baseline_pilots",
    "build_periodic_pilots",
]


def check_frame(n: int, l: int, l_cp: int, m: int) -> None:
    """The frame rule, which every frame, model and command obeys: 1 <= l <= l_cp <= n, m >= 0."""
    if n < 1:
        raise ParameterError(f"n must be positive, got {n}")
    if not 1 <= l <= n:
        raise ParameterError(f"l must lie in [1, n={n}], got {l}")
    if not l <= l_cp <= n:
        raise ParameterError(f"l_cp must lie in [l={l}, n={n}], got {l_cp}")
    if m < 0:
        raise ParameterError(f"m must be nonnegative, got {m}")


def check_training(n_z: int, n: int | None = None, l: int = 1) -> None:
    """The periodic-training rule: l divides n and 2 <= n_z <= n/l; without ``n``, n_z >= 2."""
    if n is not None and n % l != 0:
        raise ParameterError(f"n={n} must be a multiple of l={l}")
    n_s = math.inf if n is None else n // l
    if not 2 <= n_z <= n_s:
        raise ParameterError(
            f"n_z={n_z} outside [2, n/l={n_s}]; the offset correlation needs two training copies"
        )


def check_comb(n: int, l: int, n_p: int) -> int:
    """The comb rule: n_p divides n and is at least l; returns the comb spacing n / n_p."""
    if not 1 <= n_p <= n or n % n_p != 0:
        raise ParameterError(f"n_p={n_p} must divide n={n}: the comb must be uniform")
    if n_p < l:
        raise ParameterError(f"n_p={n_p} is below l={l}: the comb cannot resolve {l} taps")
    return n // n_p


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
        check_frame(self.n, self.l, self.l_cp, self.m)
        check_training(self.n_z, self.n, self.l)

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
    """Transmit content of one frame: column k of ``s`` is block k's spectrum.

    The link reads a frame only through ``s``, so a frame keeps no time
    samples; they are the unitary IDFT of ``s``.  A frame is periodic
    exactly when it carries ``z``: then the first ``n_z * l`` samples of
    every block are ``n_z`` copies of ``z``, and ``spectrum`` is derived
    from ``z``.  A block of frames, one per trial, stacks ``s`` along a
    leading axis.
    """

    geometry: FrameGeometry
    s: np.ndarray
    z: np.ndarray | None = None

    def __post_init__(self):
        expected = (self.geometry.n, self.geometry.n_blocks)
        if self.s.shape[-2:] != expected or self.s.ndim > 3:
            raise DimensionError(f"s must have shape {expected}, got {self.s.shape}")

    @cached_property
    def spectrum(self) -> np.ndarray:
        """Eigenvalues of the training circulant, the DFT of ``z``, read-only.

        Computed from ``z`` on first read, so a frame never pairs a new ``z``
        with an old spectrum; a singular ``z`` raises on every read.
        """
        return circulant_spectrum(self.z)


# The QPSK symbol of the bits (a, b), at index 2a + b: ((2a - 1) + 1j (2b - 1)) / sqrt(2).
_QPSK = (np.array([-1, -1, 1, 1]) + 1j * np.array([-1, 1, -1, 1])) / np.sqrt(2.0)


def qpsk_symbols(rng, shape) -> np.ndarray:
    """Uniform unit-modulus QPSK draws (+-1 +-1j)/sqrt(2).

    The real-part bits are drawn first, then the imaginary-part bits, in one
    call: it takes exactly the bits two calls of ``shape`` take, at one
    call's fixed cost, which is most of a small draw's.  ``rng`` is one
    generator, or one per trial for a block of draws; each trial draws its
    bits in turn, and the block is mapped to symbols at once.
    """
    shape = tuple(shape) if np.iterable(shape) else (shape,)
    bits = per_trial(rng, lambda generator: generator.integers(0, 2, size=(2, *shape)))
    re, im = np.moveaxis(bits, -1 - len(shape), 0)
    return _QPSK.take(2 * re + im)


def build_baseline_pilots(geometry: FrameGeometry, rng) -> PilotFrame:
    """Frequency-domain QPSK pilots on every subcarrier of every block.

    ``rng`` is one generator, or one per trial for a block of frames.
    """
    s = qpsk_symbols(rng, (geometry.n, geometry.n_blocks))
    return PilotFrame(geometry=geometry, s=s)


def build_periodic_pilots(geometry: FrameGeometry, z: np.ndarray, rng) -> PilotFrame:
    """Blocks whose head repeats ``z`` n_z times; the tail carries payload.

    The payload subsequences are random unit-power QPSK samples.  They are
    never used for estimation but they are physically present, so their
    wrap-around through the cyclic prefix contaminates the first training
    subsequence exactly as it would on air.  The same ``z`` serves every
    block.  ``rng`` is one generator, or one per trial for a block of
    frames.  The samples are built in full and only their spectrum is kept.
    """
    z = np.asarray(z, dtype=np.complex128)
    if z.shape != (geometry.l,):
        raise DimensionError(f"z must have shape ({geometry.l},), got {z.shape}")
    head = geometry.n_z * geometry.l
    block = () if isinstance(rng, np.random.Generator) else (len(rng),)
    x = np.empty(block + (geometry.n, geometry.n_blocks), dtype=np.complex128)
    x[..., :head, :] = np.tile(z, geometry.n_z)[:, None]
    x[..., head:, :] = qpsk_symbols(rng, (geometry.n_d * geometry.l, geometry.n_blocks))
    frame = PilotFrame(geometry=geometry, s=dft(x), z=z)
    frame.spectrum  # rejects a sequence whose circulant is singular
    return frame
