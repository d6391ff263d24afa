"""Complex baseband primitives shared by the whole simulator.

The transforms here are unitary (numpy's ``norm="ortho"``, 1/sqrt(N) each
way), so ``dft``/``idft`` preserve signal energy and every power
convention downstream can be stated per sample.  ``dirichlet_fs`` is the
periodic-sinc leakage kernel that a fractional frequency offset produces at
the DFT output, and ``build_lambda`` is its N x N circulant image.
Zadoff-Chu sequences and the spectrum of a pilot circulant support the
time-domain pilot processing; each periodic frame keeps its own spectrum
(``PilotFrame.spectrum``).

Every signal array carries one column per pilot block, and a block of
trials stacks them along a leading axis: ``(N, M+1)`` for one trial,
``(B, N, M+1)`` for B trials.  So the sample axis is always -2, and
:func:`dft` and :func:`idft` transform along it.  :func:`per_trial` and
:func:`complex_normals` draw a block's random values, one generator call
per trial and draw, each trial in turn and in trial order; every stage
then maps the whole block at once.  A complex Gaussian array is drawn
straight into its memory: one ``standard_normal`` call fills its
``float64`` view, so the real and imaginary parts of each element are
consecutive draws, elements in C order.  A block's normals fill one
C-contiguous ``(B, *shape)`` array.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import DimensionError, ParameterError, SingularCirculantError

__all__ = [
    "per_trial",
    "complex_normals",
    "dft",
    "idft",
    "periodic_sinc",
    "dirichlet_fs",
    "build_lambda",
    "zadoff_chu",
    "circulant",
    "circulant_spectrum",
]

# A circulant counts as singular when its weakest eigenvalue magnitude is at
# most this fraction of its strongest.
SINGULAR_REL_TOL = 1e-10


def per_trial(rng, draw):
    """``draw(rng)`` for one generator; for a sequence of them, one per
    trial of a block, their draws in trial order along a new leading axis.

    Every trial draws from its own generator exactly what its one-trial
    run draws, so a block holds the same values as its trials run one by
    one.
    """
    if isinstance(rng, np.random.Generator):
        return draw(rng)
    return np.stack([draw(generator) for generator in rng])


def complex_normals(rng, shape: tuple[int, ...]) -> np.ndarray:
    """A complex array of the tuple ``shape`` whose real and imaginary parts are standard normal.

    Each generator makes one ``standard_normal`` call into the array's
    ``float64`` view: element k's real part is draw 2k and its imaginary
    part draw 2k+1, elements in C order.  Given one generator per trial of
    a block, the trials draw in turn into one ``(B, *shape)`` array.  A
    0-d array has no ``float64`` view, so ``shape`` needs an axis.
    """
    if not shape:
        raise DimensionError("complex_normals needs a shape with at least one axis")
    if isinstance(rng, np.random.Generator):
        out = np.empty(shape, np.complex128)
        rng.standard_normal(out=out.view(np.float64))
        return out
    out = np.empty((len(rng), *shape), np.complex128)
    for generator, trial in zip(rng, out):
        generator.standard_normal(out=trial.view(np.float64))
    return out


def dft(x: np.ndarray) -> np.ndarray:
    """Unitary N-point DFT along the sample axis -2; each column is transformed independently."""
    x = np.asarray(x)
    if x.ndim < 2 or x.shape[-2] == 0:
        raise DimensionError("dft requires a nonempty (..., samples, blocks) input")
    return np.fft.fft(x, axis=-2, norm="ortho")


def idft(y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Inverse of :func:`dft` (unitary, so simply the adjoint); ``out=y`` transforms in place."""
    y = np.asarray(y)
    if y.ndim < 2 or y.shape[-2] == 0:
        raise DimensionError("idft requires a nonempty (..., samples, blocks) input")
    return np.fft.ifft(y, axis=-2, norm="ortho", out=out)


def periodic_sinc(k: int, t: float) -> float:
    """sin(k t) / (k sin t), stabilized at the removable singularities.

    Evaluation goes through the remainder of ``t`` mod pi, so the value at
    every multiple of pi is the exact limit +-1 rather than 0/0.
    """
    r = math.remainder(t, math.pi)
    m = round((t - r) / math.pi)
    sign = -1.0 if (m * (k - 1)) % 2 else 1.0
    if r == 0.0:
        return sign
    return sign * math.sin(k * r) / (k * math.sin(r))


def dirichlet_fs(alpha: float, n: int) -> complex:
    """Leakage coefficient sin(pi a)/(N sin(pi a/N)) * exp(j pi (N-1) a / N).

    Equals the normalized geometric sum (1/N) sum_u exp(j 2 pi a u / N) for
    every real ``alpha``; it is periodic with period ``n`` and equals 1 at
    every multiple of ``n``, where :func:`periodic_sinc` takes its limit.
    """
    if n < 1:
        raise ParameterError(f"dirichlet_fs needs n >= 1, got {n}")
    ratio = periodic_sinc(n, math.pi * alpha / n)
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


def circulant_spectrum(z: np.ndarray) -> np.ndarray:
    """Eigenvalues of the circulant whose first column is the training sequence ``z``.

    They are the DFT of ``z``, returned read-only.  Raises
    ``SingularCirculantError`` when the weakest eigenvalue magnitude is at
    most ``SINGULAR_REL_TOL`` times the strongest.  Well-designed pilots
    (Zadoff-Chu) have perfectly flat eigenvalue magnitudes, so tripping
    this check signals a bad pilot, not an unlucky draw.
    """
    c = np.asarray(z, dtype=np.complex128)
    if c.ndim != 1 or c.shape[0] == 0:
        raise DimensionError("circulant_spectrum needs a nonempty 1-D sequence")
    lam = np.fft.fft(c)
    mags = np.abs(lam)
    threshold = SINGULAR_REL_TOL * mags.max()
    index = int(np.argmin(mags))
    if mags[index] <= threshold:
        raise SingularCirculantError(index, float(mags[index]), float(threshold))
    lam.flags.writeable = False
    return lam
