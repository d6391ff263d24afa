"""Physical link: multipath channel, RIS reflection, CFO rotation, AWGN.

Each block k sees the aggregate impulse response g_phi_k = G @ phi_k.
After cyclic-prefix removal the received block is the mod-N circular
convolution of the transmitted symbol with g_phi_k (exact because
l_cp >= l; computed as a product of spectra), rotated sample-by-sample by
the oscillator-offset phase ramp exp(j 2 pi eps (L_P k + u) / N), plus
white complex Gaussian noise of variance sigma2 per sample.  The prefix samples themselves are never
observed by an estimator, so they are not materialized.

In the frequency domain the same signal is exp(j 2 pi eps L_P k / N) *
Lambda(eps) diag(s_k) H phi_k + w_k with the leakage matrix from
:func:`risofdm.numerics.build_lambda`; the equivalence of the two forms is
part of the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .channel_model import ChannelSet
from .errors import DimensionError, ParameterError
from .frame import FrameGeometry, PilotFrame
from .numerics import dft, idft
from .ris_pattern import ReflectionPattern

__all__ = ["ReceivedFrame", "transmit_frame", "phase_ramp", "awgn"]


@dataclass(frozen=True)
class ReceivedFrame:
    """Post-CP-removal received frame.

    ``r`` holds time-domain samples (N x (M+1)); ``y``, their unitary DFT,
    is computed on first use, so the joint estimator (which reads only the
    training samples of ``r``) never pays for it.
    """

    geometry: FrameGeometry
    r: np.ndarray

    @cached_property
    def y(self) -> np.ndarray:
        """Frequency-domain view: the unitary DFT of ``r``."""
        return dft(self.r)


@lru_cache(maxsize=2)
def phase_ramp(geometry: FrameGeometry, epsilon: float) -> np.ndarray:
    """CFO rotation exp(j 2 pi eps (L_P k + u) / N) for all (u, k).

    Both frames of a trial are rotated by the same offset and compensated
    with the same estimate, so the last two ramps are kept; they are
    read-only.
    """
    step = 2j * np.pi * epsilon / geometry.n
    within = np.exp(step * np.arange(geometry.n))
    across = np.exp(step * geometry.l_p * np.arange(geometry.n_blocks))
    ramp = within[:, None] * across
    ramp.flags.writeable = False
    return ramp


def awgn(rng: np.random.Generator, shape, sigma2: float) -> np.ndarray:
    """Circularly-symmetric complex Gaussian noise, variance sigma2/sample."""
    if sigma2 < 0:
        raise ParameterError(f"noise variance must be nonnegative, got {sigma2}")
    if sigma2 == 0:
        return np.zeros(shape, dtype=np.complex128)
    noise = np.empty(shape, dtype=np.complex128)
    noise.real = rng.standard_normal(shape)
    noise.imag = rng.standard_normal(shape)
    noise *= np.sqrt(sigma2 / 2.0)
    return noise


def transmit_frame(
    frame: PilotFrame,
    channels: ChannelSet,
    pattern: ReflectionPattern,
    epsilon: float,
    sigma2: float,
    rng: np.random.Generator,
) -> ReceivedFrame:
    """Run one frame through the channel model.

    ``epsilon`` is the frequency offset in subcarrier spacings, restricted
    to (-0.5, 0.5]; ``sigma2`` the per-sample noise variance (SNR is
    1/sigma2 under the unit-power frames built by :mod:`risofdm.frame`).
    """
    geom = frame.geometry
    if not -0.5 < epsilon <= 0.5:
        raise ParameterError(f"epsilon must lie in (-0.5, 0.5], got {epsilon}")
    if channels.n_taps != geom.l or channels.n_subcarriers != geom.n:
        raise DimensionError(
            f"channel set is {channels.n_taps} taps x {channels.n_subcarriers} "
            f"subcarriers; frame geometry wants {geom.l} x {geom.n}"
        )
    if channels.n_paths != geom.n_blocks or pattern.n_blocks != geom.n_blocks:
        raise DimensionError(
            f"paths/pattern/blocks disagree: {channels.n_paths} paths, "
            f"{pattern.n_blocks} pattern columns, {geom.n_blocks} blocks"
        )

    # Circular convolution of each block with its aggregate CIR g @ phi, as
    # a product of spectra: s is the unitary DFT of x, and h is the N-point
    # DFT of g, so mixing h gives the spectra of the aggregate CIRs.
    r = idft(frame.s * channels.mixed_cfr(pattern))
    r *= phase_ramp(geom, epsilon)
    r += awgn(rng, r.shape, sigma2)
    return ReceivedFrame(geometry=geom, r=r)
