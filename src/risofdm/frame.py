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

A frame keeps only what the link reads.  A baseline frame is its
spectrum; its time samples are the unitary IDFT of that spectrum.  A
periodic frame is z and its payload tail: the estimators read only the
N_z * L training samples of each block, and of the payload only the last
L-1 samples reach them, wrapped through the cyclic prefix into the head of
the first training copy.  So the link sends only that training window, and
only the tail's L-1 symbols per block are drawn.

Given a sequence of generators, one per trial, the builders return a block
of frames whose arrays stack the trials along a leading axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionError, ParameterError
from .numerics import circulant_spectrum, per_trial

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
    """Transmit content of one frame.

    A baseline frame is its spectrum ``s``: column k is block k's spectrum,
    and the block's time samples are its unitary IDFT.  A frame is periodic
    exactly when it carries ``z``: the first ``n_z * l`` samples of every
    block are ``n_z`` copies of ``z``, and ``spectrum`` is derived from
    ``z``.  Such a frame keeps no spectrum, only ``tail``: the last ``l - 1``
    samples of every block ((l-1) x (M+1)), which wrap into the first
    training copy, or ``None`` when nothing wraps but ``z`` itself (the
    training fills the block) or nothing at all (``l = 1``).  A block of
    frames, one per trial, stacks ``s`` or ``tail`` along a leading axis.
    """

    geometry: FrameGeometry
    s: np.ndarray | None = None
    z: np.ndarray | None = None
    tail: np.ndarray | None = None

    def __post_init__(self):
        geom = self.geometry
        if self.z is not None:
            if self.s is not None:
                raise DimensionError("a periodic frame is sent as its training window; it has no s")
            array, name, expected = self.tail, "tail", (geom.l - 1, geom.n_blocks)
        else:
            array, name, expected = self.s, "s", (geom.n, geom.n_blocks)
            if array is None:
                raise DimensionError("a frame needs a spectrum s, or a training sequence z")
        if array is not None and (array.shape[-2:] != expected or array.ndim > 3):
            raise DimensionError(f"{name} must have shape {expected}, got {array.shape}")

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
    call's fixed cost, which is most of a small draw's.  The bits are drawn
    as ``int32``, which gives the values, and leaves the generator in the
    state, of the default ``int64`` draw.  ``rng`` is one generator, or one
    per trial for a block of draws; each trial draws its bits in turn, and
    the block is mapped to symbols at once, its index 2a + b built in place
    in the real-part bits.
    """
    shape = tuple(shape) if np.iterable(shape) else (shape,)
    bits = per_trial(
        rng, lambda generator: generator.integers(0, 2, size=(2, *shape), dtype=np.int32)
    )
    re, im = np.moveaxis(bits, -1 - len(shape), 0)
    re <<= 1
    re |= im
    return _QPSK.take(re)


def build_baseline_pilots(geometry: FrameGeometry, rng) -> PilotFrame:
    """Frequency-domain QPSK pilots on every subcarrier of every block.

    ``rng`` is one generator, or one per trial for a block of frames.
    """
    s = qpsk_symbols(rng, (geometry.n, geometry.n_blocks))
    return PilotFrame(geometry=geometry, s=s)


def build_periodic_pilots(geometry: FrameGeometry, z: np.ndarray, rng) -> PilotFrame:
    """Blocks whose head repeats ``z`` n_z times; the rest carries payload.

    The payload is random unit-power QPSK.  It is never used for
    estimation, but its last L-1 samples wrap through the cyclic prefix
    into the head of the first training copy, exactly as on air.  The link
    sends only the training window, so only those L-1 symbols per block
    are drawn, as the frame's ``tail``: one QPSK draw per trial, an empty
    one when no payload wraps (L = 1, or the training fills the block).
    The same ``z`` serves every block.  ``rng`` is one generator, or one
    per trial for a block of frames.
    """
    z = np.asarray(z, dtype=np.complex128)
    if z.shape != (geometry.l,):
        raise DimensionError(f"z must have shape ({geometry.l},), got {z.shape}")
    wrapped = geometry.l - 1 if geometry.n_d else 0
    tail = qpsk_symbols(rng, (wrapped, geometry.n_blocks))
    frame = PilotFrame(geometry=geometry, z=z, tail=tail if wrapped else None)
    frame.spectrum  # rejects a sequence whose circulant is singular
    return frame
