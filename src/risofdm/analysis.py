"""Closed-form performance and complexity models, plus error metrics.

The centerpiece is the closed-form normalized MSE of the frequency-domain
pilot estimator under a frequency offset: with unit-modulus pilots and a
scaled-unitary reflection pattern,

    NMSE(eps) = sigma2 L / (N (M+1)) + 2
                - 2 [sin(pi eps) / (N sin(pi eps / N))]
                  * [sin((M+1) pi eps L_P / N) / ((M+1) sin(pi eps L_P / N))]
                  * cos(pi eps (M L_P + N - 1) / N).

At eps = 0 only the noise term survives; as M grows with eps != 0 the
oscillatory term dies out and the NMSE saturates at 2.  Removable
singularities are evaluated by their limits.

That expression counts the full inter-carrier leakage power
1 - |f_s(eps)|^2, with f_s(eps) = sin(pi eps) / (N sin(pi eps / N)).  The
estimator truncates each block's impulse response to L of N taps, and the
leakage is white across subcarriers (QPSK pilots have E[s^2] = 0), so the
truncation keeps only L/N of it.  ``nmse_closed_form_exact`` subtracts the
removed share, (1 - L/N)(1 - |f_s(eps)|^2), which does not depend on M;
it is the oracle the Monte Carlo acceptance check compares against.
``nmse_closed_form`` stays the paper's expression, overlaid on the curves.

Complexity formulas follow the convention that each leading term carries a
unit coefficient.  ``count_joint_multiplications`` is a formula too: the
complex multiplications of the joint pipeline under the dense-solve
operation model of the algorithms as analyzed.  It counts no operation the
code executes, which solves the circulant and unmixes the pattern by FFT.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError
from .frame import FrameGeometry, check_comb, check_frame, check_training
from .link import check_noise, check_offset
from .numerics import periodic_sinc

__all__ = [
    "NmseParams",
    "nmse_closed_form",
    "nmse_closed_form_exact",
    "nmse_turning_point",
    "ComplexityBreakdown",
    "complexity_cfr",
    "complexity_joint",
    "MultiplicationCounts",
    "count_joint_multiplications",
    "nmse_freq",
    "mse_cfo",
]

# Below this |pi eps / N| the oscillatory part is evaluated by its eps -> 0
# limit (exactly the noise-only value).
_EPS_LIMIT_THRESHOLD = 1e-8


@dataclass(frozen=True)
class NmseParams:
    """Parameters of the closed-form NMSE expression.

    ``sigma2`` is the per-sample noise variance under unit-power pilots,
    so SNR = 1/sigma2.  ``l_p`` is the derived pilot block length.
    """

    epsilon: float
    n: int
    l: int
    l_cp: int
    m: int
    sigma2: float

    def __post_init__(self):
        # The closed form describes the baseline estimator, which sends no
        # training: the frame rule applies, so l = n and an l not dividing n pass.
        check_offset(self.epsilon)
        check_frame(self.n, self.l, self.l_cp, self.m)
        check_noise(self.sigma2)

    @property
    def l_p(self) -> int:
        return self.l_cp + self.n


def nmse_closed_form(params: NmseParams) -> float:
    """The closed-form NMSE at one parameter point.  Its eps = 0 term
    sigma2 L / (N (M+1)) is the efficiency bound: the variance of the
    minimum-variance unbiased estimator under a DFT reflection pattern
    (Jensen & De Carvalho, ICASSP 2020; Zheng & Zhang, IEEE WCL 2020)."""
    noise = params.sigma2 * params.l / (params.n * (params.m + 1))
    if abs(math.pi * params.epsilon / params.n) < _EPS_LIMIT_THRESHOLD:
        return noise
    carrier = periodic_sinc(params.n, math.pi * params.epsilon / params.n)
    blocks = periodic_sinc(
        params.m + 1, math.pi * params.epsilon * params.l_p / params.n
    )
    cosine = math.cos(
        math.pi * params.epsilon * (params.m * params.l_p + params.n - 1) / params.n
    )
    return noise + 2.0 - 2.0 * carrier * blocks * cosine


def nmse_closed_form_exact(params: NmseParams) -> float:
    """Closed-form NMSE less the leakage power that tap truncation removes.

    Returns ``nmse_closed_form(params) - (1 - L/N)(1 - f_s^2)`` with
    ``f_s = sin(pi eps) / (N sin(pi eps / N))``; it equals the paper's
    expression at eps = 0 and at L = N.
    """
    carrier = periodic_sinc(params.n, math.pi * params.epsilon / params.n)
    truncated = (1.0 - params.l / params.n) * (1.0 - carrier * carrier)
    return nmse_closed_form(params) - truncated


def nmse_turning_point(
    epsilon: float,
    n: int,
    l: int,
    l_cp: int,
    sigma2: float,
    m_max: int,
) -> int | None:
    """Smallest M in [0, m_max) where the closed-form NMSE starts rising.

    Scans :func:`nmse_closed_form` over M = 0 .. m_max and returns the first
    M with NMSE(M+1) > NMSE(M), or ``None`` when the curve is still decreasing
    everywhere below ``m_max``.
    """
    if epsilon == 0:
        raise ParameterError("turning point is undefined at epsilon = 0")
    if m_max < 1:
        raise ParameterError(f"m_max must be positive, got {m_max}")
    previous = nmse_closed_form(NmseParams(epsilon, n, l, l_cp, 0, sigma2))
    for m in range(m_max):
        current = nmse_closed_form(NmseParams(epsilon, n, l, l_cp, m + 1, sigma2))
        if current > previous:
            return m
        previous = current
    return None


@dataclass(frozen=True)
class ComplexityBreakdown:
    """Leading-term operation count with the per-term split exposed."""

    terms: dict

    @property
    def total(self) -> float:
        return float(sum(self.terms.values()))


def complexity_cfr(n: int, l: int, n_p: int, m: int) -> ComplexityBreakdown:
    """Frequency-domain estimator cost: (L N_p^2 + N^2) M + N M^2 + M^3."""
    # Every count is 0 at m = 0, where complexity_ratio would be 0/0.
    if m < 1:
        raise ParameterError(f"m must be positive, got {m}")
    check_comb(n, l, n_p)
    check_frame(n, l, l, m)  # a count has no prefix; l_cp = l is the shortest allowed
    return ComplexityBreakdown(
        terms={
            "pilot_ls": float(l) * n_p**2 * m,
            "transform": float(n) ** 2 * m,
            "combine": float(n) * m**2,
            "pattern_inverse": float(m) ** 3,
        }
    )


def complexity_joint(l: int, n_z: int, m: int) -> ComplexityBreakdown:
    """Joint estimator cost: (L N_z + L^2) M + L M^2 + M^3.

    The L N_z M term is the correlation stage; the remainder is the
    time-domain least-squares stage.
    """
    if l < 1:
        raise ParameterError(f"l must be positive, got {l}")
    if m < 1:
        raise ParameterError(f"m must be positive, got {m}")
    check_training(n_z)
    return ComplexityBreakdown(
        terms={
            "cfo": float(l) * n_z * m,
            "cir_solve": float(l) ** 2 * m,
            "combine": float(l) * m**2,
            "pattern_inverse": float(m) ** 3,
        }
    )


@dataclass(frozen=True)
class MultiplicationCounts:
    """Modelled complex-multiplication counts of one joint-estimation run.

    Buckets follow the dense-solve operation model of each stage:

    * ``cfo_correlation``: one product per correlation sample.
    * ``compensation``: one rotation per training-region sample actually
      consumed downstream.
    * ``cir_average``: scaling of the averaged subsequence per block.
    * ``cir_solve``: dense application of the precomputed pilot-circulant
      inverse, L^2 per block.
    * ``combine``: right-multiplication of the stacked estimates by the
      pattern inverse.
    * ``pattern_inverse``: generic cost of forming that inverse.
    """

    cfo_correlation: int
    compensation: int
    cir_average: int
    cir_solve: int
    combine: int
    pattern_inverse: int


def count_joint_multiplications(geometry: FrameGeometry) -> MultiplicationCounts:
    """Modelled operation counts of the joint pipeline for one frame geometry."""
    blocks = geometry.n_blocks
    l = geometry.l
    n_z = geometry.n_z
    return MultiplicationCounts(
        cfo_correlation=((n_z - 2) * l + 1) * blocks,
        compensation=(n_z - 1) * l * blocks,
        cir_average=l * blocks,
        cir_solve=l * l * blocks,
        combine=l * blocks * blocks,
        pattern_inverse=blocks**3,
    )


def nmse_freq(h: np.ndarray, h_hat: np.ndarray) -> float:
    """Per-realization normalized error ||h - h_hat||^2 / ||h||^2, of gains or taps."""
    h = np.asarray(h)
    h_hat = np.asarray(h_hat)
    if h.shape != h_hat.shape:
        raise DimensionError(f"shape mismatch: {h.shape} vs {h_hat.shape}")
    denom = float(np.vdot(h, h).real)
    if denom == 0.0:
        raise ParameterError("reference response has zero energy")
    diff = h - h_hat
    return float(np.vdot(diff, diff).real) / denom


def mse_cfo(epsilon: float, epsilon_hat: float) -> float:
    """Squared frequency-offset estimation error |eps - eps_hat|^2."""
    return float(abs(epsilon - epsilon_hat) ** 2)
