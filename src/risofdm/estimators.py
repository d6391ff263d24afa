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

Both joint stages read only the first N_z * L samples of each block, the
training window, which is all the link sends of a periodic frame.  Neither
reads the first L-1 samples, the first copy's head, which carries the
payload tail through the wrap.

All estimators are pure functions of the received samples and the known
transmit side.  Each also takes a block of received frames, one per trial
stacked along a leading axis, and returns the block of estimates; every
trial's estimate has the bits of its one-trial call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel_model import cir_to_cfr
from .errors import DimensionError, EstimationError, ParameterError, PilotError
from .frame import PilotFrame, check_comb
from .link import ReceivedFrame, phase_ramp
from .ris_pattern import ReflectionPattern

__all__ = [
    "CfoEstimate",
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
    ``sample_count`` is the number of averaged correlation products, one
    trial's.  One frame gives numpy ``float64`` and ``complex128`` scalars
    for ``epsilon_hat`` and ``correlation``; a block, arrays of one per trial.
    """

    epsilon_hat: float | np.ndarray
    correlation: complex | np.ndarray
    sample_count: int


@dataclass(frozen=True)
class CirEstimate:
    """Channel estimate as L taps per path, one column per path."""

    g_hat: np.ndarray
    n_subcarriers: int

    @property
    def h_hat(self) -> np.ndarray:
        """Subcarrier-gain view of the estimate, transformed on each read."""
        return cir_to_cfr(self.g_hat, self.n_subcarriers)


@dataclass(frozen=True)
class JointEstimate:
    """Output of the two-stage pipeline."""

    cfo: CfoEstimate
    cir: CirEstimate


def uniform_comb(n: int, n_p: int) -> np.ndarray:
    """Indices of a uniform comb of ``n_p`` pilot subcarriers out of ``n``."""
    return np.arange(n_p) * check_comb(n, 1, n_p)  # any comb resolves one tap


def baseline_cfr_full(
    received: ReceivedFrame,
    frame: PilotFrame,
    pattern: ReflectionPattern,
    pilot_idx: np.ndarray | None = None,
) -> CirEstimate:
    """Frequency-domain estimate of all per-path responses.

    Per block, divides the received subcarriers by the pilots and keeps the
    first L taps of the result; with ``pilot_idx`` (a uniform comb) the
    division is restricted to those subcarriers and the kept taps are the
    least-squares fit to the comb.  All blocks are estimated at once and
    the taps unmixed with the pattern inverse (it commutes with the
    transform to subcarriers and is cheaper on L taps than on N
    subcarriers); the estimate's ``h_hat`` is their subcarrier gains.  Only
    valid on baseline-style frames (periodic frames do not have invertible
    pilots on every subcarrier).
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
        step = check_comb(geom.n, geom.l, n_p)
        if not np.array_equal(comb, np.arange(n_p) * step):
            raise ParameterError(f"pilot_idx must be a uniform comb of n={geom.n} subcarriers")

    s_used = s[..., ::step, :]
    if not s_used.all():
        dead = (s_used == 0.0).reshape(-1, *s_used.shape[-2:]).any(axis=0)  # over a block's trials
        k = int(np.argmax(dead.any(axis=0)))
        bad = int(np.argmax(dead[:, k])) * step
        raise PilotError(f"pilot symbol on subcarrier {bad} is zero")
    # On a uniform comb of N_p = N/step subcarriers the least-squares fit of
    # the first L taps is the head of the N_p-point inverse FFT of the pilot
    # quotients, transformed in place (``out=``, numpy >= 2.0).
    quotients = y[..., ::step, :] / s_used
    np.fft.ifft(quotients, axis=-2, out=quotients)
    return CirEstimate(g_hat=pattern.unmix(quotients[..., : geom.l, :]), n_subcarriers=geom.n)


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
    return CfoEstimate(
        epsilon_hat=epsilon_hat,
        correlation=correlation,
        sample_count=count,
    )


def cfo_compensate(received: ReceivedFrame, epsilon_hat: float | np.ndarray) -> ReceivedFrame:
    """De-rotate every sample by exp(-j 2 pi eps_hat (L_P k + u) / N).

    ``epsilon_hat`` is one estimate for one frame, or an array of one per
    trial for a block.  The block-cumulative L_P k term matters: the
    oscillator keeps running across blocks (cyclic prefixes included), so
    each block starts with an accumulated phase.  The ramp is built for the
    frame's rows (a training window's N_z * L) and the samples are
    multiplied into it, so the call makes one array.
    """
    ramp = phase_ramp(received.geometry, -epsilon_hat, received.r.shape[-2])
    ramp *= received.r
    return ReceivedFrame(geometry=received.geometry, r=ramp)


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
    averaged = segments.reshape(copies).mean(axis=-3, dtype=np.complex128)  # solved in place
    # Every block shares the training sequence, so one spectrum diagonalizes
    # all the circulant solves, done in place in the averages (``out=``,
    # numpy >= 2.0) with the bits of ``ifft(fft(averaged) / spectrum)``.
    np.fft.fft(averaged, axis=-2, out=averaged)
    np.divide(averaged, frame.spectrum[:, None], out=averaged)
    np.fft.ifft(averaged, axis=-2, out=averaged)
    return CirEstimate(g_hat=pattern.unmix(averaged), n_subcarriers=geom.n)


def joint_estimate(
    received: ReceivedFrame,
    frame: PilotFrame,
    pattern: ReflectionPattern,
) -> JointEstimate:
    """Two-stage pipeline: estimate the offset, compensate, solve the CIRs.

    Consumes only the N_z * L training samples of each block, the window
    the link sends of a periodic frame; the payload region never enters
    either stage, nor does the first copy's head, where its tail wraps.
    """
    cfo = cfo_estimate(received)
    compensated = cfo_compensate(received, cfo.epsilon_hat)
    cir = cir_estimate_full(compensated, frame, pattern)
    return JointEstimate(cfo=cfo, cir=cir)
