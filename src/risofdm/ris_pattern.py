"""Reflection-pattern matrices for the pilot frame.

One column per pilot block, one row per propagation path (row 0 is the
direct path, which always carries coefficient 1).  A good pattern is unit
modulus entrywise and scaled-unitary (Phi Phi^H = (M+1) I), which both
maximizes reflected energy and makes the per-block estimates combine
without noise enhancement.  The (M+1)-point DFT matrix satisfies all of
this and is the canonical choice here; for it, mixing and unmixing along
the block axis run as FFTs instead of matrix products.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionError

__all__ = [
    "ReflectionPattern",
    "PatternViolation",
    "PatternWarning",
    "dft_pattern",
    "validate_pattern",
    "inverse_pattern",
]

MODULUS_TOL = 1e-12
UNITARY_TOL = 1e-10


class PatternWarning(UserWarning):
    """A usable but non-optimal reflection pattern was supplied."""


@dataclass(frozen=True)
class PatternViolation:
    """One failed pattern invariant, with the worst offending entry."""

    invariant: str
    entry: tuple
    error: float

    def __str__(self) -> str:
        return f"{self.invariant} (worst entry {self.entry}, error {self.error:.3e})"


@dataclass(frozen=True)
class ReflectionPattern:
    """Square matrix of per-block reflection coefficients."""

    phi: np.ndarray

    def __post_init__(self):
        phi = np.asarray(self.phi, dtype=np.complex128)
        object.__setattr__(self, "phi", phi)
        if phi.ndim != 2 or phi.shape[0] != phi.shape[1] or phi.shape[0] < 1:
            raise DimensionError(f"reflection pattern must be square, got {phi.shape}")

    @property
    def n_blocks(self) -> int:
        return self.phi.shape[1]

    @cached_property
    def is_dft(self) -> bool:
        """Whether ``phi`` is the DFT pattern, so mix/unmix can be FFTs."""
        return bool(np.abs(self.phi - _dft_matrix(self.n_blocks)).max() <= MODULUS_TOL)

    def mix(self, x: np.ndarray) -> np.ndarray:
        """Per-block aggregate ``x @ phi`` of per-path columns ``x``."""
        if self.is_dft:
            return np.fft.fft(x, axis=-1)
        return x @ self.phi

    def unmix(self, x: np.ndarray) -> np.ndarray:
        """Per-path columns ``x @ inverse_pattern(self)`` of per-block columns ``x``."""
        if self.is_dft:
            return np.fft.ifft(x, axis=-1)
        return x @ inverse_pattern(self)


def _dft_matrix(size: int) -> np.ndarray:
    m = np.arange(size)
    return np.exp(-2j * np.pi * np.outer(m, m) / size)


def dft_pattern(n_reflectors: int) -> ReflectionPattern:
    """DFT pattern Phi[m, k] = exp(-j 2 pi m k / (M+1)).

    Satisfies every pattern invariant exactly: unit modulus, ones in the
    direct-path row, and Phi Phi^H = (M+1) I.
    """
    if n_reflectors < 0:
        raise DimensionError(f"dft_pattern needs n_reflectors >= 0, got {n_reflectors}")
    return ReflectionPattern(_dft_matrix(n_reflectors + 1))


def validate_pattern(pattern: ReflectionPattern) -> list[PatternViolation]:
    """Check the three pattern invariants; empty list means all pass."""
    phi = pattern.phi
    size = phi.shape[0]
    violations = []

    modulus_err = np.abs(np.abs(phi) - 1.0)
    if modulus_err.max() > MODULUS_TOL:
        worst = np.unravel_index(int(np.argmax(modulus_err)), phi.shape)
        violations.append(
            PatternViolation("entries not unit modulus", worst, float(modulus_err.max()))
        )

    direct_err = np.abs(phi[0, :] - 1.0)
    if direct_err.max() > MODULUS_TOL:
        worst = (0, int(np.argmax(direct_err)))
        violations.append(
            PatternViolation(
                "direct-path coefficient not unity", worst, float(direct_err.max())
            )
        )

    gram_err = np.abs(phi @ phi.conj().T - size * np.eye(size))
    if gram_err.max() > UNITARY_TOL * size:
        worst = np.unravel_index(int(np.argmax(gram_err)), gram_err.shape)
        violations.append(
            PatternViolation("not scaled-unitary", worst, float(gram_err.max()))
        )

    return violations


def inverse_pattern(pattern: ReflectionPattern) -> np.ndarray:
    """Inverse used to unmix per-block estimates.

    For a valid pattern this is the closed form Phi^H / (M+1).  Anything
    that fails validation falls back to a general linear solve and is
    flagged with a ``PatternWarning``, since MSE optimality is lost (and a
    singular pattern raises ``numpy.linalg.LinAlgError``).
    """
    violations = validate_pattern(pattern)
    if violations:
        warnings.warn(
            "reflection pattern is not scaled-unitary; inverting numerically: "
            + "; ".join(str(v) for v in violations),
            PatternWarning,
            stacklevel=2,
        )
        return np.linalg.inv(pattern.phi)
    return pattern.phi.conj().T / pattern.n_blocks
