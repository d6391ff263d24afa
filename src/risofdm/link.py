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

A periodic frame is sent as its training window only: the first N_z * L
received samples of each block, all that its estimators read.  The
training is L-periodic, so from sample L-1 on the window repeats one
L-point circular convolution of z with g_phi_k; the first L-1 samples
also carry the payload tail through the wrap.  Its ramp is built for the
window's N_z * L rows alone, and only the window draws noise.

A block of trials runs through the same functions: frames, channels and
received samples stack the trials along a leading axis, the offset is one
value per trial (or one shared by all), and the noise comes from one
generator per trial.  The link keeps no state between calls: each call
builds its mix and its ramp afresh, for the rows it sends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel_model import ChannelSet
from .errors import DimensionError, ParameterError
from .frame import FrameGeometry, PilotFrame
from .numerics import dft, idft, normal_pairs, per_trial
from .ris_pattern import ReflectionPattern

__all__ = [
    "check_offset", "check_noise", "snr_to_sigma2", "ReceivedFrame", "transmit_frame", "phase_ramp",
    "awgn",
]


def check_offset(epsilon: float) -> None:
    """The offset rule: -0.5 < epsilon <= 0.5 subcarrier spacings; NaN fails."""
    if not -0.5 < epsilon <= 0.5:
        raise ParameterError(f"epsilon={epsilon} outside (-0.5, 0.5]")


def check_noise(sigma2: float) -> None:
    """The noise rule: 0 <= sigma2 < inf per sample; NaN fails."""
    if not 0 <= sigma2 < math.inf:
        raise ParameterError(f"sigma2 must be finite and nonnegative, got {sigma2}")


def snr_to_sigma2(snr_db: float) -> float:
    """The per-sample noise variance 10^(-snr_db/10) under unit-power frames, by the noise rule."""
    try:
        sigma2 = 10.0 ** (-snr_db / 10.0)
    except OverflowError:  # an infinite variance, which the rule rejects
        sigma2 = math.inf
    check_noise(sigma2)
    return sigma2


@dataclass(frozen=True)
class ReceivedFrame:
    """Post-CP-removal received frame.

    ``r`` holds time-domain samples, one column per block (N x (M+1), or
    B x N x (M+1) for a block of B trials); of a periodic frame, only the
    N_z * L-sample training window of each block.  ``y``, the unitary DFT
    of a full ``r``, is computed where it is read, so the joint estimator
    (which reads only the training samples of ``r``) never pays for it.
    """

    geometry: FrameGeometry
    r: np.ndarray

    @property
    def y(self) -> np.ndarray:
        """Frequency-domain view: the unitary DFT of ``r``; a training window has none."""
        if self.r.shape[-2] != self.geometry.n:
            raise DimensionError(
                f"r holds {self.r.shape[-2]} samples per block, a training window: "
                f"the spectrum of the block's {self.geometry.n} samples was not simulated"
            )
        return dft(self.r)


def phase_ramp(geometry: FrameGeometry, epsilon, rows: int) -> np.ndarray:
    """CFO rotation exp(j 2 pi eps (L_P k + u) / N) for u < ``rows`` and every block k.

    ``epsilon`` is one offset, or an array of them, one per trial of a
    block, whose ramps stack along a leading axis.  The ramp is built for
    the rows its frame has (all N of a full block, the N_z * L of a
    training window) and is a fresh array, which the caller may overwrite.
    """
    # Each step in Python arithmetic: numpy would divide by N through its
    # reciprocal, which moves the last bit when N is not a power of two.
    if np.ndim(epsilon):
        step = np.array([2j * np.pi * e / geometry.n for e in np.ravel(epsilon).tolist()])[:, None]
    else:
        step = 2j * np.pi * epsilon / geometry.n
    within = np.exp(step * np.arange(rows))
    across = np.exp(step * geometry.l_p * np.arange(geometry.n_blocks))
    return within[..., :, None] * across[..., None, :]


def awgn(rng, shape, sigma2: float, out: np.ndarray | None = None) -> np.ndarray:
    """Circularly-symmetric complex Gaussian noise, variance sigma2/sample.

    ``shape`` is one trial's; with one generator per trial of a block the
    trials' noise stacks along a leading axis.  The noise is added into
    ``out`` in place, or into zeros without it: its real and imaginary
    parts are scaled by sqrt(sigma2/2) and added to ``out``'s, with no
    complex noise array and no complex multiply, and the bits are those of
    adding (re + 1j*im) * sqrt(sigma2/2).  At sigma2 = 0 nothing is drawn.
    """
    check_noise(sigma2)
    if out is None:
        out = per_trial(rng, lambda _rng, trial_shape: np.zeros(trial_shape, np.complex128), shape)
    if sigma2:
        re, im = normal_pairs(rng, shape)
        scale = np.sqrt(sigma2 / 2.0)
        re *= scale
        im *= scale
        out.real += re
        out.imag += im
    return out


def transmit_frame(
    frame: PilotFrame,
    channels: ChannelSet,
    pattern: ReflectionPattern,
    epsilon: float | np.ndarray,
    sigma2: float,
    rng,
) -> ReceivedFrame:
    """Run one frame, or a block of them, through the channel model.

    A baseline frame returns every sample of each block; a periodic frame,
    its training window (see the module docstring).

    ``epsilon`` is the frequency offset in subcarrier spacings, restricted
    to (-0.5, 0.5]; ``sigma2`` the per-sample noise variance (SNR is
    1/sigma2 under the unit-power frames built by :mod:`risofdm.frame`).
    For a block, ``frame`` and ``channels`` stack the trials, ``epsilon``
    is one offset for all or an array of one per trial, and ``rng`` is a
    sequence of one generator per trial.  The received samples are one
    array: the noiseless samples are rotated in place and :func:`awgn` adds
    the noise into them.
    """
    geom = frame.geometry
    for offset in np.ravel(epsilon).tolist():
        check_offset(offset)
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

    if frame.z is None:
        # Circular convolution of each block with its aggregate CIR g @ phi,
        # as a product of spectra: s is the unitary DFT of the samples, h the
        # N-point DFT of g, so mixing h gives the spectra of the aggregate
        # CIRs.  The mix is multiplied and inverse-transformed in place, with
        # no second such array.
        r = pattern.mix(channels.h)
        np.multiply(frame.s, r, out=r)
        idft(r, out=r)
    else:
        r = _training_window(frame, pattern.mix(channels.g))
    r *= phase_ramp(geom, epsilon, r.shape[-2])
    awgn(rng, r.shape[-2:], sigma2, out=r)
    return ReceivedFrame(geometry=geom, r=r)


def _training_window(frame: PilotFrame, taps: np.ndarray) -> np.ndarray:
    """The noiseless first N_z * L samples of each block of the periodic ``frame``.

    ``taps`` are the blocks' aggregate impulse responses: the L taps mixed
    by the pattern, where a full transmit mixes N subcarriers.  Sample u
    is sum_j taps[j] x[(u - j) mod N], and x is z repeated up to sample
    N_z * L, so from u = L-1 on the window repeats the L-point circular
    convolution of z with the taps.  Below L-1 the convolution reaches
    back, through the wrap, to the block's last L-1 samples, the frame's
    tail, where the periodic form reads z[1:]: the head gains the last
    L-1 outputs of the linear convolution of the taps with their
    difference, tail - z[1:].

    Each array is built once and filled in place (``out=``, numpy >= 2.0):
    the copy is transformed, multiplied and inverse-transformed in one
    array and tiled into the window by a broadcast assignment, and the
    spill's two 2L-point transforms share one zeroed buffer and one call.
    The bits are those of the former formulas, ``np.tile`` of
    ``ifft(fft(taps) * spectrum)`` plus ``ifft(fft(taps, 2L) *
    fft(tail - z[1:], 2L))``.
    """
    geom = frame.geometry
    l = geom.l
    lead, paths = taps.shape[:-2], taps.shape[-1]
    copy = np.fft.fft(taps, axis=-2)
    np.multiply(copy, frame.spectrum[:, None], out=copy)
    np.fft.ifft(copy, axis=-2, out=copy)
    window = np.empty((*lead, geom.n_z * l, paths), np.complex128)
    window.reshape(*lead, geom.n_z, l, paths)[...] = copy[..., None, :, :]
    if frame.tail is not None:
        # A 2L-point product of spectra holds the whole (2L-2)-point linear
        # convolution.  The taps and the difference are padded into one
        # zeroed buffer, which one call transforms.
        padded = np.zeros((2, *lead, 2 * l, paths), np.complex128)
        padded[0, ..., :l, :] = taps
        np.subtract(frame.tail, frame.z[1:, None], out=padded[1, ..., : l - 1, :])
        np.fft.fft(padded, axis=-2, out=padded)
        spill = np.multiply(padded[0], padded[1], out=padded[0])
        np.fft.ifft(spill, axis=-2, out=spill)
        window[..., : l - 1, :] += spill[..., l - 1 : 2 * l - 2, :]
    return window
