"""Pipeline runner for the exactness suite, with deliberate-bug variants.

The mutations exist purely so the verification suite can prove it would
catch these classes of implementation error:

* ``avg_first_subsequence``: averages training subsequences 1..N_z instead
  of 2..N_z; the first copy is contaminated by the payload tail wrapping
  through the cyclic structure.
* ``drop_block_phase``: compensates only the within-symbol ramp, dropping
  the accumulated per-block term L_P k.
* ``ones_pattern``: transmits and estimates with an all-ones reflection
  pattern, whose column space cannot separate the paths (combined with a
  pseudo-inverse so the failure shows up as error energy, not an
  exception).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .channel_model import ChannelSet
from .estimators import cfo_compensate, cfo_estimate, cir_estimate_full
from .frame import FrameGeometry, build_periodic_pilots
from .link import transmit_frame
from .numerics import zadoff_chu
from .ris_pattern import ReflectionPattern, dft_pattern

MUTATIONS = ("avg_first_subsequence", "drop_block_phase", "ones_pattern")


def proposed_pipeline(
    geometry: FrameGeometry,
    channels: ChannelSet,
    epsilon: float,
    sigma2: float,
    rng: np.random.Generator,
    mutation: str | None = None,
) -> tuple[float, np.ndarray]:
    """Transmit a periodic frame and run the joint pipeline (or a mutant).

    Returns ``(epsilon_hat, g_hat)``.
    """
    if mutation == "ones_pattern":
        pattern = ReflectionPattern(np.ones((geometry.n_blocks, geometry.n_blocks)))
    else:
        pattern = dft_pattern(geometry.m)
    z = zadoff_chu(geometry.l)
    frame = build_periodic_pilots(geometry, z, rng)
    received = transmit_frame(frame, channels, pattern, epsilon, sigma2, rng)

    cfo = cfo_estimate(received)

    if mutation == "drop_block_phase":
        ramp = np.exp(
            -2j * np.pi * cfo.epsilon_hat * np.arange(geometry.n) / geometry.n
        )[:, None]
        compensated = replace(received, r=ramp * received.r)
    else:
        compensated = cfo_compensate(received, cfo.epsilon_hat)

    if mutation in ("avg_first_subsequence", "ones_pattern"):
        lam = np.fft.fft(z)
        if mutation == "avg_first_subsequence":
            segments = compensated.r[: geometry.n_z * geometry.l, :]
            averaged = segments.reshape(geometry.n_z, geometry.l, -1).mean(axis=0)
        else:
            segments = compensated.r[geometry.l : geometry.n_z * geometry.l, :]
            averaged = segments.reshape(geometry.n_z - 1, geometry.l, -1).mean(axis=0)
        g_phi = np.fft.ifft(np.fft.fft(averaged, axis=0) / lam[:, None], axis=0)
        if mutation == "ones_pattern":
            g_hat = g_phi @ np.linalg.pinv(pattern.phi)
        else:
            g_hat = pattern.unmix(g_phi)
    else:
        g_hat = cir_estimate_full(compensated, frame, pattern).g_hat

    return cfo.epsilon_hat, g_hat
