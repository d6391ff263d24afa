"""The reflection pattern of the pilot frame.

One column per pilot block, one row per propagation path (row 0 is the
direct path, which always carries coefficient 1).  The pattern is the
(M+1)-point DFT matrix: unit modulus entrywise and scaled-unitary
(Phi Phi^H = (M+1) I), which both maximizes reflected energy and makes
the per-block estimates combine without noise enhancement.  Mixing and
unmixing along the block axis therefore run as an FFT and an inverse FFT.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionError

__all__ = ["ReflectionPattern", "dft_pattern"]


@dataclass(frozen=True)
class ReflectionPattern:
    """DFT pattern Phi[m, k] = exp(-j 2 pi m k / (M+1)) over ``n_blocks`` = M+1 blocks."""

    n_blocks: int

    def __post_init__(self):
        if self.n_blocks < 1:
            raise DimensionError(
                f"the pattern needs n_reflectors >= 0 (one block or more), got {self.n_blocks} blocks"
            )

    @cached_property
    def phi(self) -> np.ndarray:
        """The pattern as a dense matrix."""
        m = np.arange(self.n_blocks)
        return np.exp(-2j * np.pi * np.outer(m, m) / self.n_blocks)

    def mix(self, x: np.ndarray) -> np.ndarray:
        """Per-block aggregate ``x @ phi`` of per-path columns ``x``."""
        return np.fft.fft(x, axis=-1)

    def unmix(self, x: np.ndarray) -> np.ndarray:
        """Per-path columns ``x @ phi^H / (M+1)`` of per-block columns ``x``."""
        return np.fft.ifft(x, axis=-1)


def dft_pattern(n_reflectors: int) -> ReflectionPattern:
    """The pattern for ``n_reflectors`` reflecting elements and the direct path."""
    return ReflectionPattern(n_reflectors + 1)
