"""Tests for the physical link model."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geometry_strategies import LinkSetup, link_setups

from risofdm.channel_model import ChannelSet, exponential_pdp, sample_cir
from risofdm.errors import DimensionError, ParameterError
from risofdm.frame import FrameGeometry, PilotFrame, build_baseline_pilots, build_periodic_pilots
from risofdm.link import phase_ramp, transmit_frame
from risofdm.numerics import build_lambda, dft, idft, zadoff_chu
from risofdm.ris_pattern import ReflectionPattern, dft_pattern


def impulse_channel(n: int, l: int) -> ChannelSet:
    g = np.zeros((l, 1), dtype=complex)
    g[0, 0] = 1.0
    return ChannelSet(g=g, n_subcarriers=n)


class TestTransmitFrame:
    def test_identity_channel_is_exact(self):
        geom = FrameGeometry(n=16, l=2, l_cp=2, m=0, n_z=2)
        rng = np.random.default_rng(61)
        frame = build_baseline_pilots(geom, rng)
        rx = transmit_frame(frame, impulse_channel(16, 2), dft_pattern(0), 0.0, 0.0, rng)
        np.testing.assert_array_equal(rx.r, idft(frame.s))

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

    def test_parseval(self):
        geom = FrameGeometry(n=64, l=8, l_cp=10, m=1, n_z=2)
        rng = np.random.default_rng(65)
        frame = build_baseline_pilots(geom, rng)
        channels = sample_cir(exponential_pdp(8, 1 / 3), 1, 64, rng)
        rx = transmit_frame(frame, channels, dft_pattern(1), 0.2, 0.5, rng)
        np.testing.assert_allclose(
            np.linalg.norm(rx.y, axis=0), np.linalg.norm(rx.r, axis=0), rtol=1e-12
        )

    def test_dimension_validation(self):
        geom = FrameGeometry(n=16, l=2, l_cp=2, m=1, n_z=2)
        rng = np.random.default_rng(67)
        frame = build_baseline_pilots(geom, rng)
        with pytest.raises(DimensionError):
            transmit_frame(frame, impulse_channel(16, 2), dft_pattern(1), 0.0, 0.0, rng)

    def test_periodic_frame_checked_before_any_work(self):
        # The window transmit applies the full one's rules first: a rejected
        # call draws no noise.
        geom = FrameGeometry(n=16, l=2, l_cp=2, m=1, n_z=4)
        rng = np.random.default_rng(68)
        frame = build_periodic_pilots(geom, zadoff_chu(2), rng)
        channels = sample_cir(exponential_pdp(2, 1 / 3), 1, 16, rng)
        state = rng.bit_generator.state
        with pytest.raises(ParameterError, match="^epsilon"):
            transmit_frame(frame, channels, dft_pattern(1), 0.6, 0.1, rng)
        with pytest.raises(DimensionError):
            transmit_frame(frame, impulse_channel(16, 2), dft_pattern(1), 0.0, 0.1, rng)
        with pytest.raises(DimensionError):
            transmit_frame(frame, channels, dft_pattern(2), 0.0, 0.1, rng)
        assert rng.bit_generator.state == state

    def test_window_has_no_spectrum(self):
        # A window's DFT is not the block's spectrum, so y refuses it.
        geom = FrameGeometry(n=64, l=8, l_cp=10, m=2, n_z=4)
        rng = np.random.default_rng(69)
        frame = build_periodic_pilots(geom, zadoff_chu(8), rng)
        channels = sample_cir(exponential_pdp(8, 1 / 3), 2, 64, rng)
        rx = transmit_frame(frame, channels, dft_pattern(2), 0.1, 0.1, rng)
        with pytest.raises(DimensionError, match="training window"):
            rx.y


def full_ramp(geom: FrameGeometry, eps: float) -> np.ndarray:
    """One offset's ramp over all N rows, as the outer product of its two factors."""
    step = 2j * np.pi * eps / geom.n
    within = np.exp(step * np.arange(geom.n))
    across = np.exp(step * geom.l_p * np.arange(geom.n_blocks))
    return np.outer(within, across)


def test_phase_ramp_is_the_outer_product():
    geom = FrameGeometry(n=64, l=8, l_cp=10, m=4, n_z=2)
    np.testing.assert_array_equal(phase_ramp(geom, 0.3, 64), full_ramp(geom, 0.3))


@settings(max_examples=60, deadline=None)
@given(setup=link_setups(), data=st.data())
def test_phase_ramp_is_the_head_of_the_full_ramp(setup, data):
    """A ramp of any rows is, bit for bit, the first rows of the N-row ramp, for
    one offset and for a block's array of one offset per trial."""
    geom, eps = setup.geometry, setup.epsilon
    rows = data.draw(st.integers(1, geom.n), label="rows")
    others = data.draw(st.lists(st.floats(-0.5, 0.5, exclude_min=True), max_size=3), label="others")
    np.testing.assert_array_equal(phase_ramp(geom, eps, rows), full_ramp(geom, eps)[:rows])
    offsets = np.array([eps, *others])
    oracle = np.stack([full_ramp(geom, offset)[:rows] for offset in offsets.tolist()])
    np.testing.assert_array_equal(phase_ramp(geom, offsets, rows), oracle)


class TestMixing:
    def test_each_send_mixes_the_taps_through_its_pattern(self, monkeypatch):
        # Every send mixes the L taps, once: a periodic frame's window and a
        # baseline frame's full transmit alike; no send reads the N gains.
        geom = FrameGeometry(n=64, l=8, l_cp=10, m=4, n_z=2)
        rng = np.random.default_rng(72)
        channels = sample_cir(exponential_pdp(8, 1 / 3), 4, 64, rng)
        pattern, mix, mixed = dft_pattern(4), ReflectionPattern.mix, []
        monkeypatch.setattr(
            ReflectionPattern, "mix", lambda p, x: mixed.append((p, x)) or mix(p, x)
        )
        frames = build_periodic_pilots(geom, zadoff_chu(8), rng), build_baseline_pilots(geom, rng)
        for frame in frames + frames:
            transmit_frame(frame, channels, pattern, 0.1, 0.01, rng)
        assert all(p is pattern for p, _ in mixed)
        assert [id(x) for _, x in mixed] == [id(channels.g)] * 4


def direct_convolution(x: np.ndarray, g_phi: np.ndarray) -> np.ndarray:
    """Mod-N circular convolution of column k of x with column k of g_phi."""
    n, l = x.shape[0], g_phi.shape[0]
    gathered = x[(np.arange(n)[:, None] - np.arange(l)[None, :]) % n, :]  # (n, l, k)
    return np.einsum("ulk,lk->uk", gathered, g_phi)


def full_periodic_samples(frame, rng) -> np.ndarray:
    """The time samples of a periodic frame's blocks, which the frame does not keep.

    n_z copies of z, then payload: its last l-1 symbols are the frame's
    tail, and the others are arbitrary draws from ``rng``.
    """
    geom = frame.geometry
    head = geom.n_z * geom.l
    x = np.empty((geom.n, geom.n_blocks), dtype=complex)
    x[:head] = np.tile(frame.z, geom.n_z)[:, None]
    x[head:] = np.exp(2j * np.pi * rng.random((geom.n - head, geom.n_blocks)))
    if frame.tail is not None:
        x[geom.n - (geom.l - 1) :] = frame.tail
    return x


@settings(max_examples=60, deadline=None)
@given(setup=link_setups())
@example(setup=LinkSetup(FrameGeometry(n=256, l=32, l_cp=34, m=3, n_z=4), 0.3, 1, 64))
def test_fft_convolution_matches_direct_oracle(setup):
    """Noiseless output is the ramped direct convolution for both frame styles;
    of a periodic frame, its training window."""
    geom, eps = setup.geometry, setup.epsilon
    rng = np.random.default_rng(setup.seed)
    channels = sample_cir(exponential_pdp(geom.l, 1 / 3), geom.m, geom.n, rng)
    pattern = dft_pattern(geom.m)
    u = np.arange(geom.n)[:, None]
    k = np.arange(geom.n_blocks)[None, :]
    ramp = np.exp(2j * np.pi * eps * (geom.l_p * k + u) / geom.n)
    periodic = build_periodic_pilots(geom, zadoff_chu(geom.l, setup.zc_root), rng)
    baseline = build_baseline_pilots(geom, rng)
    for frame, x in ((periodic, full_periodic_samples(periodic, rng)), (baseline, idft(baseline.s))):
        rx = transmit_frame(frame, channels, pattern, eps, 0.0, rng)
        oracle = (ramp * direct_convolution(x, channels.g @ pattern.phi))[: rx.r.shape[0]]
        assert np.abs(rx.r - oracle).max() <= 1e-12 * np.abs(oracle).max()


# Each side's transforms round to about log2(N) ulps of the largest sample;
# the worst case over 2000 examples of this strategy was 1.7e-15.
WINDOW_ROUNDING = 1e-13


@settings(max_examples=60, deadline=None)
@given(setup=link_setups())
@example(setup=LinkSetup(FrameGeometry(n=64, l=8, l_cp=8, m=3, n_z=8), 0.37, 3, 1))
@example(setup=LinkSetup(FrameGeometry(n=12, l=1, l_cp=1, m=2, n_z=5), -0.21, 1, 2))
@example(setup=LinkSetup(FrameGeometry(n=8, l=1, l_cp=1, m=0, n_z=8), 0.5, 1, 3))
def test_window_equals_the_full_transmit(setup):
    """A periodic frame's window is the first n_z L samples of its full transmit.

    The full frame is built from its time samples and sent as a baseline-style
    frame of spectrum ``dft(x)``; its payload's last l-1 symbols are the
    window's tail and the others are arbitrary, so two payloads must give
    the same window.  Noiseless, at any offset.
    """
    geom, eps = setup.geometry, setup.epsilon
    rng = np.random.default_rng(setup.seed)
    frame = build_periodic_pilots(geom, zadoff_chu(geom.l, setup.zc_root), rng)
    channels = sample_cir(exponential_pdp(geom.l, 1 / 3), geom.m, geom.n, rng)
    pattern = dft_pattern(geom.m)
    window = transmit_frame(frame, channels, pattern, eps, 0.0, rng).r
    assert window.shape == (geom.n_z * geom.l, geom.n_blocks)
    for _ in range(2):
        full = PilotFrame(geometry=geom, s=dft(full_periodic_samples(frame, rng)))
        head = transmit_frame(full, channels, pattern, eps, 0.0, rng).r[: window.shape[0]]
        assert np.abs(window - head).max() <= WINDOW_ROUNDING * np.abs(head).max()
