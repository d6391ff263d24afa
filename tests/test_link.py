"""Tests for the physical link model."""

import numpy as np
import pytest
from hypothesis import given, settings

from geometry_strategies import link_setups

from risofdm.channel_model import ChannelSet, cir_to_cfr, exponential_pdp, sample_cir
from risofdm.errors import DimensionError, ParameterError
from risofdm.frame import FrameGeometry, build_baseline_pilots, build_periodic_pilots
from risofdm.link import awgn, phase_ramp, transmit_frame
from risofdm.numerics import build_lambda, zadoff_chu
from risofdm.ris_pattern import dft_pattern


def impulse_channel(n: int, l: int) -> ChannelSet:
    g = np.zeros((l, 1), dtype=complex)
    g[0, 0] = 1.0
    return ChannelSet(g=g, h=cir_to_cfr(g, n))


class TestTransmitFrame:
    def test_identity_channel_is_exact(self):
        geom = FrameGeometry(n=16, l=2, l_cp=2, m=0, n_z=2)
        rng = np.random.default_rng(61)
        frame = build_baseline_pilots(geom, rng)
        rx = transmit_frame(frame, impulse_channel(16, 2), dft_pattern(0), 0.0, 0.0, rng)
        np.testing.assert_array_equal(rx.r, frame.x)

    def test_matches_leakage_matrix_form(self):
        geom = FrameGeometry(n=64, l=8, l_cp=10, m=4, n_z=2)
        rng = np.random.default_rng(62)
        frame = build_baseline_pilots(geom, rng)
        channels = sample_cir(exponential_pdp(8, 1 / 3), 4, 64, rng)
        pattern = dft_pattern(4)
        eps = 0.01
        rx = transmit_frame(frame, channels, pattern, eps, 0.0, rng)
        lam = build_lambda(eps, 64)
        k = np.arange(5)
        oracle = np.exp(2j * np.pi * eps * geom.l_p * k / 64) * (
            lam @ (frame.s * (channels.h @ pattern.phi))
        )
        np.testing.assert_allclose(rx.y, oracle, atol=1e-10 * np.abs(oracle).max())

    def test_zero_offset_reduces_to_diagonal_model(self):
        geom = FrameGeometry(n=64, l=8, l_cp=10, m=2, n_z=2)
        rng = np.random.default_rng(63)
        frame = build_baseline_pilots(geom, rng)
        channels = sample_cir(exponential_pdp(8, 1 / 3), 2, 64, rng)
        pattern = dft_pattern(2)
        rx = transmit_frame(frame, channels, pattern, 0.0, 0.0, rng)
        oracle = frame.s * (channels.h @ pattern.phi)
        np.testing.assert_allclose(rx.y, oracle, atol=1e-10 * np.abs(oracle).max())

    def test_pilot_region_matches_short_convolution(self):
        # On the training steady state the mod-N simulation must agree with
        # the period-L circular convolution of z with the aggregate CIR.
        geom = FrameGeometry(n=256, l=32, l_cp=34, m=3, n_z=4)
        rng = np.random.default_rng(64)
        z = zadoff_chu(32)
        frame = build_periodic_pilots(geom, z, rng)
        channels = sample_cir(exponential_pdp(32, 1 / 3), 3, 256, rng)
        pattern = dft_pattern(3)
        eps = 0.3
        rx = transmit_frame(frame, channels, pattern, eps, 0.0, rng)
        g_phi = channels.g @ pattern.phi
        deramped = rx.r / phase_ramp(geom, eps)
        u = np.arange(geom.l - 1, geom.n_z * geom.l)
        for k in range(geom.n_blocks):
            expected = np.array(
                [
                    sum(z[(ui - l) % geom.l] * g_phi[l, k] for l in range(geom.l))
                    for ui in u
                ]
            )
            np.testing.assert_allclose(deramped[u, k], expected, atol=1e-10)

    def test_parseval(self):
        geom = FrameGeometry(n=64, l=8, l_cp=10, m=1, n_z=2)
        rng = np.random.default_rng(65)
        frame = build_baseline_pilots(geom, rng)
        channels = sample_cir(exponential_pdp(8, 1 / 3), 1, 64, rng)
        rx = transmit_frame(frame, channels, dft_pattern(1), 0.2, 0.5, rng)
        np.testing.assert_allclose(
            np.linalg.norm(rx.y, axis=0), np.linalg.norm(rx.r, axis=0), rtol=1e-12
        )

    def test_offset_domain_validation(self):
        geom = FrameGeometry(n=16, l=2, l_cp=2, m=0, n_z=2)
        rng = np.random.default_rng(66)
        frame = build_baseline_pilots(geom, rng)
        with pytest.raises(ParameterError):
            transmit_frame(frame, impulse_channel(16, 2), dft_pattern(0), 0.6, 0.0, rng)
        with pytest.raises(ParameterError):
            transmit_frame(frame, impulse_channel(16, 2), dft_pattern(0), -0.5, 0.0, rng)

    def test_dimension_validation(self):
        geom = FrameGeometry(n=16, l=2, l_cp=2, m=1, n_z=2)
        rng = np.random.default_rng(67)
        frame = build_baseline_pilots(geom, rng)
        with pytest.raises(DimensionError):
            transmit_frame(frame, impulse_channel(16, 2), dft_pattern(1), 0.0, 0.0, rng)


class TestAwgn:
    def test_zero_variance(self):
        np.testing.assert_array_equal(awgn(np.random.default_rng(0), (4, 2), 0.0), 0)

    def test_energy_calibration(self):
        # Mean sample energy over 1e4 block draws must sit within 3%.
        rng = np.random.default_rng(69)
        noise = awgn(rng, (64, 10**4), 0.37)
        assert np.mean(np.abs(noise) ** 2) == pytest.approx(0.37, rel=0.03)

    def test_negative_variance_rejected(self):
        with pytest.raises(ParameterError):
            awgn(np.random.default_rng(0), 4, -1.0)

    def test_draws_match_the_scaled_pair_formula(self):
        # Same draws in the same order, same values bit for bit.
        noise = awgn(np.random.default_rng(70), (16, 3), 0.37)
        rng = np.random.default_rng(70)
        re, im = rng.standard_normal((16, 3)), rng.standard_normal((16, 3))
        np.testing.assert_array_equal(noise, np.sqrt(0.37 / 2.0) * (re + 1j * im))


def test_phase_ramp_is_the_outer_product():
    geom = FrameGeometry(n=64, l=8, l_cp=10, m=4, n_z=2)
    step = 2j * np.pi * 0.3 / 64
    within = np.exp(step * np.arange(64))
    across = np.exp(step * geom.l_p * np.arange(5))
    np.testing.assert_array_equal(phase_ramp(geom, 0.3), np.outer(within, across))


def test_phase_ramps_are_kept_read_only_in_a_bounded_cache():
    geom = FrameGeometry(n=64, l=8, l_cp=10, m=4, n_z=2)
    ramp = phase_ramp(geom, 0.3)
    assert phase_ramp(geom, 0.3) is ramp
    with pytest.raises(ValueError):
        ramp[0, 0] = 0
    for eps in np.linspace(-0.4, 0.4, 50):
        phase_ramp(geom, float(eps))
    info = phase_ramp.cache_info()
    assert info.currsize <= info.maxsize


class TestMixedCfr:
    def test_equals_pattern_product_and_is_kept_read_only(self):
        channels = sample_cir(exponential_pdp(8, 1 / 3), 4, 64, np.random.default_rng(71))
        pattern = dft_pattern(4)
        mixed = channels.mixed_cfr(pattern)
        oracle = channels.h @ pattern.phi
        assert np.abs(mixed - oracle).max() <= 1e-12 * np.abs(oracle).max()
        assert channels.mixed_cfr(pattern) is mixed
        assert not mixed.flags.writeable
        with pytest.raises(ValueError):
            mixed[0, 0] = 0

    def test_keeps_only_the_last_pattern(self):
        channels = sample_cir(exponential_pdp(8, 1 / 3), 1, 64, np.random.default_rng(72))
        # Equal patterns, but the cache holds the one object it was asked for.
        first, other = dft_pattern(1), dft_pattern(1)
        mixed = channels.mixed_cfr(first)
        assert channels.mixed_cfr(other) is not mixed
        again = channels.mixed_cfr(first)
        assert again is not mixed
        np.testing.assert_array_equal(again, mixed)


@pytest.mark.parametrize("n,l", [(16, 2), (64, 8), (256, 32)])
@pytest.mark.parametrize("m", [0, 1, 4])
@pytest.mark.parametrize("eps", [0.0, -0.005, 0.3])
def test_model_equivalence_grid(n, l, m, eps):
    """Noiseless time-domain output equals the frequency-domain form."""
    geom = FrameGeometry(n=n, l=l, l_cp=l, m=m, n_z=2)
    rng = np.random.default_rng(abs(hash((n, l, m, eps))) % 2**32)
    frame = build_baseline_pilots(geom, rng)
    channels = sample_cir(exponential_pdp(l, 1 / 3), m, n, rng)
    pattern = dft_pattern(m)
    rx = transmit_frame(frame, channels, pattern, eps, 0.0, rng)
    lam = build_lambda(eps, n)
    k = np.arange(m + 1)
    oracle = np.exp(2j * np.pi * eps * geom.l_p * k / n) * (
        lam @ (frame.s * (channels.h @ pattern.phi))
    )
    assert np.abs(rx.y - oracle).max() <= 1e-9 * np.abs(oracle).max()


def direct_convolution(x: np.ndarray, g_phi: np.ndarray) -> np.ndarray:
    """Mod-N circular convolution of column k of x with column k of g_phi."""
    n, l = x.shape[0], g_phi.shape[0]
    gathered = x[(np.arange(n)[:, None] - np.arange(l)[None, :]) % n, :]  # (n, l, k)
    return np.einsum("ulk,lk->uk", gathered, g_phi)


@settings(max_examples=60, deadline=None)
@given(setup=link_setups())
def test_fft_convolution_matches_direct_oracle(setup):
    """Noiseless output is the ramped direct convolution for both frame styles."""
    geom, eps = setup.geometry, setup.epsilon
    rng = np.random.default_rng(setup.seed)
    channels = sample_cir(exponential_pdp(geom.l, 1 / 3), geom.m, geom.n, rng)
    pattern = dft_pattern(geom.m)
    u = np.arange(geom.n)[:, None]
    k = np.arange(geom.n_blocks)[None, :]
    ramp = np.exp(2j * np.pi * eps * (geom.l_p * k + u) / geom.n)
    for frame in (
        build_periodic_pilots(geom, zadoff_chu(geom.l, setup.zc_root), rng),
        build_baseline_pilots(geom, rng),
    ):
        rx = transmit_frame(frame, channels, pattern, eps, 0.0, rng)
        oracle = ramp * direct_convolution(frame.x, channels.g @ pattern.phi)
        assert np.abs(rx.r - oracle).max() <= 1e-12 * np.abs(oracle).max()
