"""Tests for the channel and frequency-offset estimators."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geometry_strategies import link_setups

from risofdm.analysis import count_joint_multiplications, nmse_freq
from risofdm.channel_model import exponential_pdp, sample_cir
from risofdm.errors import (
    EstimationError,
    ParameterError,
    PilotError,
    SingularCirculantError,
)
from risofdm.estimators import (
    baseline_cfr_full,
    cfo_compensate,
    cfo_estimate,
    cir_estimate_full,
    joint_estimate,
    uniform_comb,
)
from risofdm.frame import FrameGeometry, PilotFrame, build_baseline_pilots, build_periodic_pilots
from risofdm.link import ReceivedFrame, phase_ramp, transmit_frame
from risofdm.numerics import circulant, idft, zadoff_chu
from risofdm.ris_pattern import dft_pattern


def make_setup(n=256, l=32, l_cp=34, m=3, n_z=4, seed=70, style="periodic"):
    geom = FrameGeometry(n=n, l=l, l_cp=l_cp, m=m, n_z=n_z)
    rng = np.random.default_rng(seed)
    if style == "periodic":
        frame = build_periodic_pilots(geom, zadoff_chu(l), rng)
    else:
        frame = build_baseline_pilots(geom, rng)
    channels = sample_cir(exponential_pdp(l, 1 / 3), m, n, rng)
    pattern = dft_pattern(m)
    return geom, frame, channels, pattern, rng


def dense_unitary_dft(n):
    p, q = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return np.exp(-2j * np.pi * p * q / n) / np.sqrt(n)


def estimate_one_block(y, s, l, pilot_idx=None):
    """baseline_cfr_full on a one-block (M=0) frame with spectrum y and pilots s."""
    geom = FrameGeometry(n=len(y), l=l, l_cp=l, m=0, n_z=2)
    frame = PilotFrame(geometry=geom, s=np.asarray(s, dtype=complex)[:, None], style="baseline")
    r = idft(np.asarray(y, dtype=complex)[:, None])
    rx = ReceivedFrame(geometry=geom, r=r)
    return baseline_cfr_full(rx, frame, dft_pattern(0), pilot_idx=pilot_idx).h_hat[:, 0]


class TestBaselineBlock:
    """The per-block estimate, on one-block (M=0) frames, where unmixing is the identity."""

    def test_noiseless_recovers_aggregate_response(self):
        geom, frame, channels, pattern, rng = make_setup(m=0, style="baseline")
        rx = transmit_frame(frame, channels, pattern, 0.0, 0.0, rng)
        estimate = baseline_cfr_full(rx, frame, pattern).h_hat
        np.testing.assert_allclose(estimate, channels.h, atol=1e-10 * np.abs(channels.h).max())

    def test_zero_input_gives_zero(self):
        geom, frame, *_ = make_setup(m=0, style="baseline")
        out = estimate_one_block(np.zeros(geom.n), frame.s[:, 0], geom.l)
        np.testing.assert_array_equal(out, np.zeros(geom.n))

    def test_matches_dense_matrix_chain_under_offset(self):
        # Oracle: the same estimator written with explicit DFT matrices
        # (divide by pilots, project on the first-L-taps subspace).
        geom, frame, channels, pattern, rng = make_setup(
            n=64, l=8, l_cp=10, m=0, n_z=2, style="baseline"
        )
        rx = transmit_frame(frame, channels, pattern, 0.01, 0.0, rng)
        f = dense_unitary_dft(64)
        g_dense = f[:, :8].conj().T @ (rx.y[:, 0] / frame.s[:, 0])
        oracle = f @ np.concatenate([g_dense, np.zeros(56)])
        estimate = baseline_cfr_full(rx, frame, pattern).h_hat[:, 0]
        np.testing.assert_allclose(estimate, oracle, atol=1e-12 * np.abs(oracle).max())

    def test_truncation_removes_leakage_energy(self):
        # Under an offset, the estimate is the tap-truncated image of the
        # leakage-corrupted response, not that response itself; the
        # difference is the inter-carrier energy outside the first L taps.
        geom, frame, channels, pattern, rng = make_setup(
            n=64, l=8, l_cp=10, m=0, n_z=2, style="baseline"
        )
        rx = transmit_frame(frame, channels, pattern, 0.01, 0.0, rng)
        corrupted = rx.y[:, 0] / frame.s[:, 0]
        estimate = baseline_cfr_full(rx, frame, pattern).h_hat[:, 0]
        gap = np.linalg.norm(estimate - corrupted) / np.linalg.norm(corrupted)
        assert 1e-4 < gap < 0.1

    def test_comb_matches_least_squares_oracle(self):
        geom, frame, channels, pattern, rng = make_setup(m=0, style="baseline")
        rx = transmit_frame(frame, channels, pattern, 0.0, 0.1, rng)
        comb = uniform_comb(geom.n, 128)
        a = dense_unitary_dft(geom.n)[comb, : geom.l]
        g_ls, *_ = np.linalg.lstsq(a, rx.y[comb, 0] / frame.s[comb, 0], rcond=None)
        oracle = np.fft.fft(g_ls, n=geom.n) / np.sqrt(geom.n)
        estimate = baseline_cfr_full(rx, frame, pattern, pilot_idx=comb).h_hat[:, 0]
        np.testing.assert_allclose(estimate, oracle, atol=1e-9 * np.abs(oracle).max())

    def test_zero_pilot_symbol_names_subcarrier(self):
        geom, frame, *_ = make_setup(m=0, style="baseline")
        s = frame.s[:, 0].copy()
        s[17] = 0.0
        with pytest.raises(PilotError, match="17"):
            estimate_one_block(np.ones(geom.n), s, geom.l)

    def test_zero_pilot_on_comb_names_subcarrier(self):
        s = np.ones(64, dtype=complex)
        s[40] = 0.0
        with pytest.raises(PilotError, match="subcarrier 40 is zero"):
            estimate_one_block(np.ones(64), s, 8, pilot_idx=uniform_comb(64, 16))

    def test_comb_must_be_uniform(self):
        with pytest.raises(ParameterError, match="uniform comb"):
            estimate_one_block(np.ones(64), np.ones(64), 8, pilot_idx=np.arange(16) * 4 + 1)

    def test_comb_must_resolve_taps(self):
        with pytest.raises(ParameterError, match="cannot resolve 16 taps"):
            estimate_one_block(np.ones(64), np.ones(64), 16, pilot_idx=uniform_comb(64, 8))


class TestBaselineFull:
    def test_noiseless_exact(self):
        geom, frame, channels, pattern, rng = make_setup(style="baseline")
        rx = transmit_frame(frame, channels, pattern, 0.0, 0.0, rng)
        estimate = baseline_cfr_full(rx, frame, pattern)
        assert nmse_freq(channels.h, estimate.h_hat) <= 1e-18

    def test_noise_floor_matches_theory(self):
        # At zero offset the NMSE is sigma2 L / (N (M+1)).
        geom, frame, channels, pattern, _ = make_setup(
            n=64, l=8, l_cp=10, m=4, n_z=2, style="baseline"
        )
        sigma2 = 0.1
        num = den = 0.0
        for trial in range(2000):
            rng = np.random.default_rng(1000 + trial)
            frame = build_baseline_pilots(geom, rng)
            channels = sample_cir(exponential_pdp(8, 1 / 3), 4, 64, rng)
            rx = transmit_frame(frame, channels, pattern, 0.0, sigma2, rng)
            estimate = baseline_cfr_full(rx, frame, pattern)
            num += np.linalg.norm(estimate.h_hat - channels.h) ** 2
            den += np.linalg.norm(channels.h) ** 2
        assert num / den == pytest.approx(sigma2 * 8 / (64 * 5), rel=0.05)

    def test_requires_baseline_frame(self):
        geom, frame, channels, pattern, rng = make_setup(style="periodic")
        rx = transmit_frame(frame, channels, pattern, 0.0, 0.0, rng)
        with pytest.raises(ParameterError):
            baseline_cfr_full(rx, frame, pattern)


class TestCfoEstimate:
    @pytest.mark.parametrize("eps", [0.0, 0.005, -0.37, 0.5])
    def test_noiseless_is_exact(self, eps):
        geom, frame, channels, pattern, rng = make_setup()
        rx = transmit_frame(frame, channels, pattern, eps, 0.0, rng)
        estimate = cfo_estimate(rx)
        assert abs(estimate.epsilon_hat - eps) <= 1e-9

    def test_sample_count(self):
        geom, frame, channels, pattern, rng = make_setup()
        rx = transmit_frame(frame, channels, pattern, 0.1, 0.0, rng)
        expected = ((geom.n_z - 2) * geom.l + 1) * geom.n_blocks
        assert cfo_estimate(rx).sample_count == expected

    def test_estimate_range_bound(self):
        geom, frame, channels, pattern, rng = make_setup()
        for trial in range(20):
            rx = transmit_frame(frame, channels, pattern, 0.49, 10.0, rng)
            estimate = cfo_estimate(rx)
            assert abs(estimate.epsilon_hat) <= geom.n / (2 * geom.l) + 1e-12

    def test_noiseless_correlation_is_real_positive(self):
        geom, frame, channels, pattern, rng = make_setup()
        eps = 0.23
        rx = transmit_frame(frame, channels, pattern, eps, 0.0, rng)
        estimate = cfo_estimate(rx)
        rotated = estimate.correlation * np.exp(2j * np.pi * eps * geom.l / geom.n)
        assert abs(np.angle(rotated)) <= 1e-9
        assert rotated.real > 0

    def test_zero_correlation_raises(self):
        geom, frame, channels, pattern, rng = make_setup()
        zero = transmit_frame(
            frame,
            dataclasses.replace(channels, g=np.zeros_like(channels.g), h=np.zeros_like(channels.h)),
            pattern,
            0.0,
            0.0,
            rng,
        )
        with pytest.raises(EstimationError):
            cfo_estimate(zero)


class TestCfoCompensate:
    def test_zero_offset_is_identity(self):
        geom, frame, channels, pattern, rng = make_setup()
        rx = transmit_frame(frame, channels, pattern, 0.2, 0.1, rng)
        np.testing.assert_array_equal(cfo_compensate(rx, 0.0).r, rx.r)

    def test_exact_compensation_removes_ramp(self):
        geom, frame, channels, pattern, rng = make_setup()
        eps = 0.31
        rx = transmit_frame(frame, channels, pattern, eps, 0.0, rng)
        clean = cfo_compensate(rx, eps)
        oracle = rx.r / phase_ramp(geom, eps)
        np.testing.assert_allclose(clean.r, oracle, atol=1e-12)

    def test_phase_additivity(self):
        geom, frame, channels, pattern, rng = make_setup()
        rx = transmit_frame(frame, channels, pattern, 0.11, 0.2, rng)
        twice = cfo_compensate(cfo_compensate(rx, 0.07), -0.18)
        once = cfo_compensate(rx, 0.07 - 0.18)
        np.testing.assert_allclose(twice.r, once.r, atol=1e-12)


def one_block_periodic(n):
    """A one-block (M=0) periodic frame with L=4, n_z=3 and Zadoff-Chu training."""
    geom = FrameGeometry(n=n, l=4, l_cp=4, m=0, n_z=3)
    rng = np.random.default_rng(71)
    return geom, build_periodic_pilots(geom, zadoff_chu(4), rng), rng


class TestCirEstimate:
    def test_noiseless_block_recovers_aggregate_cir(self):
        geom, frame, channels, pattern, rng = make_setup()
        eps = 0.29
        rx = transmit_frame(frame, channels, pattern, eps, 0.0, rng)
        estimate = cir_estimate_full(cfo_compensate(rx, eps), frame, pattern)
        g_phi = channels.g @ pattern.phi
        np.testing.assert_allclose(
            pattern.mix(estimate.g_hat), g_phi, atol=1e-10 * np.abs(g_phi).max()
        )

    def test_zero_input_gives_zero(self):
        geom, frame, _ = one_block_periodic(16)
        rx = ReceivedFrame(geometry=geom, r=np.zeros((16, 1)))
        out = cir_estimate_full(rx, frame, dft_pattern(0)).g_hat
        np.testing.assert_allclose(out, np.zeros((4, 1)), atol=1e-15)

    def test_matches_dense_stacked_least_squares(self):
        # Averaging subsequences then solving one circulant system is the
        # least-squares solution of the stacked per-subsequence systems.
        geom, frame, rng = one_block_periodic(12)
        z = zadoff_chu(4)
        r = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        stacked = np.vstack([circulant(z), circulant(z)])
        target = np.concatenate([r[4:8], r[8:12]])
        oracle, *_ = np.linalg.lstsq(stacked, target, rcond=None)
        rx = ReceivedFrame(geometry=geom, r=r[:, None])
        estimate = cir_estimate_full(rx, frame, dft_pattern(0)).g_hat[:, 0]
        np.testing.assert_allclose(estimate, oracle, atol=1e-9)

    def test_full_noiseless_with_known_offset(self):
        geom, frame, channels, pattern, rng = make_setup()
        eps = -0.17
        rx = transmit_frame(frame, channels, pattern, eps, 0.0, rng)
        estimate = cir_estimate_full(cfo_compensate(rx, eps), frame, pattern)
        assert nmse_freq(channels.g, estimate.g_hat) <= 1e-18
        assert nmse_freq(channels.h, estimate.h_hat) <= 1e-18

    def test_singular_sequence_rejected_on_every_call(self):
        # The eigenvalues are cached per sequence; the check must still run.
        geom, good, _ = one_block_periodic(16)
        bad = dataclasses.replace(good, z=np.ones(4))
        rx = ReceivedFrame(geometry=geom, r=np.ones((16, 1)))
        errors = []
        for frame, singular in ((bad, True), (bad, True), (good, False), (bad, True)):
            if singular:
                with pytest.raises(SingularCirculantError, match="eigenvalue 1 ") as err:
                    cir_estimate_full(rx, frame, dft_pattern(0))
                errors.append(err.value)
            else:
                cir_estimate_full(rx, frame, dft_pattern(0))
        assert all(isinstance(e, PilotError) for e in errors)
        assert len({(e.index, str(e)) for e in errors}) == 1
        assert errors[0].index == 1

    def test_requires_periodic_frame(self):
        geom, frame, channels, pattern, rng = make_setup(style="baseline")
        rx = transmit_frame(frame, channels, pattern, 0.0, 0.0, rng)
        with pytest.raises(ParameterError):
            cir_estimate_full(rx, frame, pattern)


class TestJointEstimate:
    def test_noiseless_end_to_end(self):
        geom, frame, channels, pattern, rng = make_setup()
        rx = transmit_frame(frame, channels, pattern, 0.41, 0.0, rng)
        joint = joint_estimate(rx, frame, pattern)
        assert abs(joint.cfo.epsilon_hat - 0.41) <= 1e-9
        assert nmse_freq(channels.g, joint.cir.g_hat) <= 1e-12

    def test_deterministic(self):
        geom, frame, channels, pattern, _ = make_setup()
        rng = np.random.default_rng(72)
        rx = transmit_frame(frame, channels, pattern, 0.13, 0.5, rng)
        a = joint_estimate(rx, frame, pattern)
        b = joint_estimate(rx, frame, pattern)
        assert a.cfo.epsilon_hat == b.cfo.epsilon_hat
        np.testing.assert_array_equal(a.cir.g_hat, b.cir.g_hat)

    def test_consumes_only_training_samples_and_no_ground_truth(self):
        # Poison everything the estimators must not touch: the payload
        # region of r and the whole frequency-domain view (y is the DFT of
        # the poisoned r, so NaN everywhere).  The pipeline must still be
        # exact.
        geom, frame, channels, pattern, rng = make_setup()
        eps = 0.27
        rx = transmit_frame(frame, channels, pattern, eps, 0.0, rng)
        poisoned_r = rx.r.copy()
        poisoned_r[geom.n_z * geom.l :, :] = np.nan
        poisoned = dataclasses.replace(rx, r=poisoned_r)
        assert np.isnan(poisoned.y).all()
        joint = joint_estimate(poisoned, frame, pattern)
        assert abs(joint.cfo.epsilon_hat - eps) <= 1e-9
        assert nmse_freq(channels.g, joint.cir.g_hat) <= 1e-12

    def test_reports_operation_counts(self):
        # The counts of a run come from the geometry of the received frame;
        # the solve bucket follows the shape of the taps the run returns.
        geom, frame, channels, pattern, rng = make_setup()
        rx = transmit_frame(frame, channels, pattern, 0.0, 0.1, rng)
        joint = joint_estimate(rx, frame, pattern)
        counts = count_joint_multiplications(rx.geometry)
        taps, blocks = joint.cir.g_hat.shape
        assert counts.cfo_correlation == ((geom.n_z - 2) * geom.l + 1) * geom.n_blocks
        assert counts.cir_solve == taps * taps * blocks
        assert counts.combine == taps * blocks * blocks
        assert sum(dataclasses.astuple(counts)) > 0


def test_uniform_comb_validation():
    np.testing.assert_array_equal(uniform_comb(8, 4), [0, 2, 4, 6])
    with pytest.raises(ParameterError):
        uniform_comb(8, 3)
    with pytest.raises(ParameterError):
        uniform_comb(8, 9)


@settings(max_examples=40, deadline=None)
@given(setup=link_setups(), data=st.data())
def test_baseline_full_matches_per_block_estimates(setup, data):
    """The all-blocks estimate equals per-block least squares unmixed by matmul."""
    geom = setup.geometry
    divisors = [p for p in range(geom.l, geom.n + 1) if geom.n % p == 0]
    n_p = data.draw(st.sampled_from(divisors), label="n_p")
    rng = np.random.default_rng(setup.seed)
    frame = build_baseline_pilots(geom, rng)
    channels = sample_cir(exponential_pdp(geom.l, 1 / 3), geom.m, geom.n, rng)
    pattern = dft_pattern(geom.m)
    rx = transmit_frame(frame, channels, pattern, setup.epsilon, 0.1, rng)
    # Unnormalized DFT columns of the first L taps: h = f_l @ g.
    f_l = np.exp(-2j * np.pi * np.outer(np.arange(geom.n), np.arange(geom.l)) / geom.n)
    for comb in (None, uniform_comb(geom.n, n_p)):
        used = np.arange(geom.n) if comb is None else comb
        taps, *_ = np.linalg.lstsq(f_l[used], rx.y[used] / frame.s[used], rcond=None)
        oracle = f_l @ taps @ pattern.phi.conj().T / geom.n_blocks
        full = baseline_cfr_full(rx, frame, pattern, pilot_idx=comb).h_hat
        assert np.abs(full - oracle).max() <= 1e-12 * np.abs(oracle).max()


@settings(max_examples=60, deadline=None)
@given(setup=link_setups())
def test_noiseless_joint_estimate_is_exact_for_every_geometry(setup):
    geom, eps = setup.geometry, setup.epsilon
    rng = np.random.default_rng(setup.seed)
    frame = build_periodic_pilots(geom, zadoff_chu(geom.l, setup.zc_root), rng)
    channels = sample_cir(exponential_pdp(geom.l, 1 / 3), geom.m, geom.n, rng)
    pattern = dft_pattern(geom.m)
    rx = transmit_frame(frame, channels, pattern, eps, 0.0, rng)
    joint = joint_estimate(rx, frame, pattern)
    assert abs(joint.cfo.epsilon_hat - eps) <= 1e-9
    assert nmse_freq(channels.g, joint.cir.g_hat) <= 1e-12
