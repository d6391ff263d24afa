"""Channel and frequency-offset estimators.

Baseline (frequency domain): per block, divide out the pilot symbols,
truncate the impulse response to its first L taps, and transform back;
stack all blocks and unmix with the reflection-pattern inverse.  An
optional uniform comb restricts the fit to N_p equally spaced subcarriers.

Proposed (time domain): the lag-L correlation over the periodic training
region yields the frequency offset at no extra pilot cost; after phase
compensation, the repeated training subsequences are averaged (discarding
the first copy, whose head is contaminated by the previous subsequence
through the circular wrap) and a single L x L circulant solve per block
recovers the aggregate impulse responses, unmixed the same way.

All estimators are pure functions of the received samples and the known
transmit side.  Each also takes a block of received frames, one per trial
stacked along a leading axis, and returns the block of estimates; every
trial's estimate has the bits of its one-trial call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channel_model import cir_to_cfr
from .errors import DimensionError, EstimationError, ParameterError, PilotError
from .frame import PilotFrame
from .link import ReceivedFrame, phase_ramp, ramp_key
from .numerics import circulant_spectrum
from .ris_pattern import ReflectionPattern

__all__ = [
    "CfoEstimate",
    "CfrEstimate",
    "CirEstimate",
    "JointEstimate",
    "uniform_comb",
    "baseline_cfr_full",
    "cfo_estimate",
    "cfo_compensate",
    "cir_estimate_full",
    "joint_estimate",
]


@dataclass(frozen=True)
class CfoEstimate:
    """Correlation-based frequency-offset estimate.

    ``correlation`` is the averaged lag-L correlation whose angle encodes
    the offset; its magnitude doubles as an SNR diagnostic.
    ``sample_count`` is the number of averaged correlation products.  For a
    block of frames the two values are arrays of one per trial.
    """

    epsilon_hat: float
    correlation: complex
    sample_count: int


@dataclass(frozen=True)
class CfrEstimate:
    """Frequency-domain channel estimate, one column per path."""

    h_hat: np.ndarray


@dataclass(frozen=True)
class CirEstimate:
    """Time-domain channel estimate, one column per path."""

    g_hat: np.ndarray
    n_subcarriers: int

    @cached_property
    def h_hat(self) -> np.ndarray:
        """Subcarrier-gain view of the estimate."""
        return cir_to_cfr(self.g_hat, self.n_subcarriers)


@dataclass(frozen=True)
class JointEstimate:
    """Output of the two-stage pipeline."""

    cfo: CfoEstimate
    cir: CirEstimate


def uniform_comb(n: int, n_p: int) -> np.ndarray:
    """Indices of a uniform comb of ``n_p`` pilot subcarriers out of ``n``."""
    if not 1 <= n_p <= n:
        raise ParameterError(f"n_p must lie in [1, {n}], got {n_p}")
    if n % n_p != 0:
        raise ParameterError(f"comb size {n_p} must divide n={n}")
    return np.arange(n_p) * (n // n_p)


def baseline_cfr_full(
    received: ReceivedFrame,
    frame: PilotFrame,
    pattern: ReflectionPattern,
    pilot_idx: np.ndarray | None = None,
) -> CfrEstimate:
    """Frequency-domain estimate of all per-path responses.

    Per block, divides the received subcarriers by the pilots and keeps the
    first L taps of the result; with ``pilot_idx`` (a uniform comb) the
    division is restricted to those subcarriers and the kept taps are the
    least-squares fit to the comb.  All blocks are estimated at once, the
    taps are unmixed with the pattern inverse (it commutes with the
    transform to subcarriers and is cheaper on L taps than on N
    subcarriers), then transformed.  Only valid on baseline-style frames
    (periodic frames do not have invertible pilots on every subcarrier).
    """
    if frame.z is not None:
        raise ParameterError("baseline estimator requires a baseline-style frame")
    geom = received.geometry
    if frame.geometry != geom:
        raise DimensionError("frame and received frame geometries disagree")
    y, s = received.y, frame.s
    if y.shape != s.shape:
        raise DimensionError(f"received spectrum {y.shape} and pilots {s.shape} disagree")

    step = 1
    if pilot_idx is not None:
        comb = np.asarray(pilot_idx)
        n_p = comb.shape[0]
        if geom.l > n_p:
            raise ParameterError(f"comb of {n_p} subcarriers cannot resolve {geom.l} taps")
        step = geom.n // n_p
        if geom.n % n_p or not np.array_equal(comb, np.arange(n_p) * step):
            raise ParameterError(f"pilot_idx must be a uniform comb of n={geom.n} subcarriers")

    s_used = s[..., ::step, :]
    if not s_used.all():
        dead = (s_used == 0.0).reshape(-1, *s_used.shape[-2:]).any(axis=0)  # over a block's trials
        k = int(np.argmax(dead.any(axis=0)))
        bad = int(np.argmax(dead[:, k])) * step
        raise PilotError(f"pilot symbol on subcarrier {bad} is zero")
    # On a uniform comb of N_p = N/step subcarriers the least-squares fit of
    # the first L taps is the head of the N_p-point inverse FFT of the pilot
    # quotients.
    taps = np.fft.ifft(y[..., ::step, :] / s_used, axis=-2)[..., : geom.l, :]
    return CfrEstimate(h_hat=np.fft.fft(pattern.unmix(taps), n=geom.n, axis=-2))


def cfo_estimate(received: ReceivedFrame) -> CfoEstimate:
    """Frequency offset from the lag-L correlation of the training region.

    Averages r_k(t) r_k*(t+L) over t in [L-1, (N_z-1) L - 1] and all
    blocks; the noiseless correlation is real and positive, so the angle
    of the average is exactly -2 pi eps L / N.
    """
    geom = received.geometry
    first = geom.l - 1
    last = (geom.n_z - 1) * geom.l - 1  # inclusive
    lead = received.r[..., first : last + 1, :]
    lagged = received.r[..., first + geom.l : last + 1 + geom.l, :]
    # An explicit ufunc call: in ``lead * np.conj(lagged)`` numpy reuses the
    # conj temporary as the output once it reaches 256 KiB and swaps the
    # operands, which moves the last bit of a product with the array size.
    products = np.multiply(lead, np.conj(lagged))
    count = products.shape[-2] * products.shape[-1]
    # Each trial's products are summed as one contiguous run, as a one-trial
    # sum over the whole array would.
    correlation = products.reshape(*products.shape[:-2], count).sum(axis=-1) / count
    if (correlation == 0).any():
        raise EstimationError("averaged correlation is exactly zero")
    epsilon_hat = -geom.n * np.angle(correlation) / (2.0 * np.pi * geom.l)
    if correlation.ndim == 0:
        correlation, epsilon_hat = complex(correlation), float(epsilon_hat)
    return CfoEstimate(
        epsilon_hat=epsilon_hat,
        correlation=correlation,
        sample_count=count,
    )


def cfo_compensate(received: ReceivedFrame, epsilon_hat: float) -> ReceivedFrame:
    """De-rotate every sample by exp(-j 2 pi eps_hat (L_P k + u) / N).

    The block-cumulative L_P k term matters: the oscillator keeps running
    across blocks (cyclic prefixes included), so each block starts with an
    accumulated phase.
    """
    return ReceivedFrame(
        geometry=received.geometry,
        r=phase_ramp(received.geometry, ramp_key(-epsilon_hat)) * received.r,
    )


def cir_estimate_full(
    received: ReceivedFrame,
    frame: PilotFrame,
    pattern: ReflectionPattern,
) -> CirEstimate:
    """Per-path impulse responses from a compensated periodic frame.

    Per block, averages training subsequences 2..N_z (the first copy is
    skipped: its head carries wrap-around from the previous symbol region)
    and solves the L x L circulant system built from the training sequence;
    the aggregate responses are then unmixed with the pattern inverse.
    """
    if frame.z is None:
        raise ParameterError("time-domain estimator requires a periodic-style frame")
    geom = received.geometry
    if frame.geometry != geom:
        raise DimensionError("frame and received frame geometries disagree")
    segments = received.r[..., geom.l : geom.n_z * geom.l, :]
    copies = segments.shape[:-2] + (geom.n_z - 1, geom.l, segments.shape[-1])
    averaged = segments.reshape(copies).mean(axis=-3)
    # Every block shares the training sequence, so one spectrum diagonalizes
    # all the circulant solves.
    lam = circulant_spectrum(frame.z)
    g_phi = np.fft.ifft(np.fft.fft(averaged, axis=-2) / lam[:, None], axis=-2)
    return CirEstimate(g_hat=pattern.unmix(g_phi), n_subcarriers=geom.n)


def joint_estimate(
    received: ReceivedFrame,
    frame: PilotFrame,
    pattern: ReflectionPattern,
) -> JointEstimate:
    """Two-stage pipeline: estimate the offset, compensate, solve the CIRs.

    Consumes only the N_z * L training samples of each block; the payload
    region never enters either stage.
    """
    cfo = cfo_estimate(received)
    compensated = cfo_compensate(received, cfo.epsilon_hat)
    cir = cir_estimate_full(compensated, frame, pattern)
    return JointEstimate(cfo=cfo, cir=cir)
