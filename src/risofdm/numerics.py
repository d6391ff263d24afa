"""Complex baseband primitives shared by the whole simulator.

The transforms here are unitary (numpy's ``norm="ortho"``, 1/sqrt(N) each
way), so ``dft``/``idft`` preserve signal energy and every power
convention downstream can be stated per sample.  ``dirichlet_fs`` is the
periodic-sinc leakage kernel that a fractional frequency offset produces at
the DFT output, and ``build_lambda`` is its N x N circulant image.
Zadoff-Chu sequences, circulant solves and a small cache of pilot
spectra support the time-domain pilot processing.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from .errors import DimensionError, ParameterError, SingularCirculantError

__all__ = [
    "dft",
    "idft",
    "dirichlet_fs",
    "build_lambda",
    "zadoff_chu",
    "circulant",
    "circulant_eigenvalues",
    "circulant_spectrum",
    "circulant_solve",
]

# A circulant counts as singular when its weakest eigenvalue magnitude is at
# most this fraction of its strongest.
SINGULAR_REL_TOL = 1e-10
# Distinct first-column sets whose spectra circulant_spectrum keeps.
SPECTRUM_CACHE_SIZE = 16


def dft(x: np.ndarray) -> np.ndarray:
    """Unitary N-point DFT along axis 0; columns are transformed independently."""
    x = np.asarray(x)
    if x.shape[0] == 0:
        raise DimensionError("dft requires a nonempty input")
    return np.fft.fft(x, axis=0, norm="ortho")


def idft(y: np.ndarray) -> np.ndarray:
    """Inverse of :func:`dft` (unitary, so simply the adjoint)."""
    y = np.asarray(y)
    if y.shape[0] == 0:
        raise DimensionError("idft requires a nonempty input")
    return np.fft.ifft(y, axis=0, norm="ortho")


def dirichlet_fs(alpha: float, n: int) -> complex:
    """Leakage coefficient sin(pi a)/(N sin(pi a/N)) * exp(j pi (N-1) a / N).

    Equals the normalized geometric sum (1/N) sum_u exp(j 2 pi a u / N) for
    every real ``alpha``; it is periodic with period ``n`` and equals 1 at
    every multiple of ``n``.  Evaluation goes through the remainder of
    ``alpha`` mod ``n`` so the removable singularities at those multiples
    are exact rather than 0/0.
    """
    if n < 1:
        raise ParameterError(f"dirichlet_fs needs n >= 1, got {n}")
    r = math.remainder(alpha, n)
    m = round((alpha - r) / n)
    if r == 0.0:
        ratio = 1.0
    else:
        ratio = math.sin(math.pi * r) / (n * math.sin(math.pi * r / n))
    if (m * (n - 1)) % 2:
        ratio = -ratio
    return ratio * cmath.exp(1j * math.pi * (n - 1) * alpha / n)


def circulant(first_col: np.ndarray) -> np.ndarray:
    """Dense circulant matrix C with C[i, j] = first_col[(i - j) mod n]."""
    c = np.asarray(first_col)
    if c.ndim != 1 or c.shape[0] == 0:
        raise DimensionError("circulant needs a nonempty 1-D first column")
    n = c.shape[0]
    idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    return c[idx]


def build_lambda(epsilon: float, n: int) -> np.ndarray:
    """Frequency-domain image of a time-domain CFO phase ramp.

    Right-circulant N x N matrix whose first column is
    ``[f_s(eps), f_s(eps - 1), ..., f_s(eps - N + 1)]``; identical to
    ``F diag(exp(j 2 pi eps u / N)) F^H`` with the unitary DFT ``F``.
    ``build_lambda(0, n)`` is the identity.
    """
    if n < 2:
        raise ParameterError(f"build_lambda needs n >= 2, got {n}")
    first_col = np.array([dirichlet_fs(epsilon - i, n) for i in range(n)])
    return circulant(first_col)


def zadoff_chu(length: int, root: int = 1) -> np.ndarray:
    """Zadoff-Chu sequence z(u) = exp(-j pi q u (u + (L mod 2)) / L).

    Unit modulus by construction, and for gcd(root, length) == 1 its DFT
    has constant magnitude, which makes the pilot circulant perfectly
    conditioned.  The exponent uses u^2 for even lengths and u(u+1) for odd
    lengths so the constant-magnitude property holds for both parities.
    """
    if length < 1:
        raise ParameterError(f"zadoff_chu needs length >= 1, got {length}")
    if root < 1:
        raise ParameterError(f"zadoff_chu needs root >= 1, got {root}")
    if math.gcd(root, length) != 1:
        raise ParameterError(
            f"zadoff_chu root {root} is not coprime with length {length}"
        )
    u = np.arange(length)
    return np.exp(-1j * np.pi * root * u * (u + (length % 2)) / length)


def circulant_eigenvalues(first_col: np.ndarray) -> np.ndarray:
    """DFT eigenvalues of the circulant built from ``first_col``.

    A 2-D ``first_col`` holds one first column per column; the eigenvalues
    come back column by column.
    """
    c = np.asarray(first_col)
    if c.ndim not in (1, 2) or c.shape[0] == 0:
        raise DimensionError("circulant_eigenvalues needs nonempty 1-D or 2-D columns")
    return np.fft.fft(c, axis=0)


def circulant_spectrum(first_cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of the circulants built from ``first_cols``, and which are singular.

    ``first_cols`` holds one first column per column, shape (L, K).  Returns
    the (L, K) eigenvalues of :func:`circulant_eigenvalues` and a (K,) flag
    that is true where a circulant is singular in the sense of
    :func:`circulant_solve`.  A pilot sequence stays fixed over many frames,
    so both are worked out once per distinct content and kept in a small
    cache that all threads share; the returned arrays are read-only.
    """
    c = np.ascontiguousarray(first_cols, dtype=np.complex128)
    if c.ndim != 2 or c.shape[0] == 0:
        raise DimensionError("circulant_spectrum needs nonempty 2-D columns")
    return _cached_spectrum(c.tobytes(), c.shape)


@functools.lru_cache(maxsize=SPECTRUM_CACHE_SIZE)
def _cached_spectrum(data: bytes, shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    lam = circulant_eigenvalues(np.frombuffer(data, dtype=np.complex128).reshape(shape))
    mags = np.abs(lam)
    singular = mags.min(axis=0) <= SINGULAR_REL_TOL * mags.max(axis=0)
    lam.flags.writeable = False
    singular.flags.writeable = False
    return lam, singular


def circulant_solve(first_col: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve C g = rhs for the circulant C built from ``first_col``.

    Uses DFT diagonalization; ``rhs`` may be a vector or a matrix of
    column right-hand sides.  Raises ``SingularCirculantError`` naming the
    first eigenvalue whose magnitude is at most ``SINGULAR_REL_TOL`` times
    the largest one.  Well-designed pilots (Zadoff-Chu) have perfectly flat
    eigenvalue magnitudes, so tripping this check signals a bad pilot, not
    an unlucky draw.
    """
    c = np.asarray(first_col, dtype=np.complex128)
    b = np.asarray(rhs, dtype=np.complex128)
    if c.ndim != 1 or c.shape[0] == 0:
        raise DimensionError("circulant_solve needs a nonempty 1-D first column")
    if b.shape[:1] != c.shape[:1]:
        raise DimensionError(
            f"rhs length {b.shape[0] if b.ndim else '?'} does not match "
            f"circulant size {c.shape[0]}"
        )
    lam = np.fft.fft(c)
    mags = np.abs(lam)
    threshold = SINGULAR_REL_TOL * float(mags.max(initial=0.0))
    weak = int(np.argmin(mags))
    if mags[weak] <= threshold:
        raise SingularCirculantError(weak, float(mags[weak]), threshold)
    spectrum = np.fft.fft(b, axis=0)
    spectrum = spectrum / (lam if b.ndim == 1 else lam[:, None])
    return np.fft.ifft(spectrum, axis=0)
