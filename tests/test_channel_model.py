"""Tests for channel generation and CIR/CFR conversions."""

import numpy as np
import pytest

from risofdm.channel_model import (
    ChannelSet,
    PowerDelayProfile,
    cir_to_cfr,
    exponential_pdp,
    sample_cir,
)
from risofdm.errors import DimensionError, ParameterError


def dense_unnormalized_dft(n: int) -> np.ndarray:
    p, q = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return np.exp(-2j * np.pi * p * q / n)


class TestExponentialPdp:
    def test_single_tap(self):
        np.testing.assert_allclose(exponential_pdp(1, 2.0).p, [1.0])

    def test_vanishing_decay_limit(self):
        np.testing.assert_allclose(exponential_pdp(2, 1e-12).p, [0.5, 0.5], atol=1e-9)

    def test_tap_ratio(self):
        pdp = exponential_pdp(8, 1 / 3)
        assert pdp.p[0] / pdp.p[1] == pytest.approx(np.exp(1 / 3), abs=1e-5)

    def test_unit_sum(self):
        assert exponential_pdp(32, 1 / 3).p.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n_taps,decay", [(0, 1.0), (4, 0.0), (4, -1.0)])
    def test_invalid_parameters(self, n_taps, decay):
        with pytest.raises(ParameterError):
            exponential_pdp(n_taps, decay)

    def test_profile_must_normalize(self):
        with pytest.raises(ParameterError):
            PowerDelayProfile(np.array([0.5, 0.4]))


class TestSampleCir:
    def test_unit_tap_variance(self):
        # 1e5 independent single-tap draws via the path axis.
        rng = np.random.default_rng(11)
        cs = sample_cir(PowerDelayProfile(np.array([1.0])), 10**5 - 1, 4, rng)
        var = np.mean(np.abs(cs.g[0]) ** 2)
        assert var == pytest.approx(1.0, rel=0.02)

    def test_unit_path_energy(self):
        rng = np.random.default_rng(12)
        cs = sample_cir(exponential_pdp(8, 1 / 3), 10**5 - 1, 16, rng)
        energy = np.mean(np.sum(np.abs(cs.g) ** 2, axis=0))
        assert energy == pytest.approx(1.0, rel=0.02)

    def test_per_tap_variance_follows_profile(self):
        rng = np.random.default_rng(13)
        pdp = exponential_pdp(8, 1 / 3)
        cs = sample_cir(pdp, 10**4 - 1, 16, rng)
        sample_var = np.mean(np.abs(cs.g) ** 2, axis=1)
        np.testing.assert_allclose(sample_var, pdp.p, rtol=0.05)

    def test_cfr_energy_is_n_times_cir_energy(self):
        # Unnormalized per-subcarrier gains: ||h||^2 == N ||g||^2 exactly.
        rng = np.random.default_rng(14)
        cs = sample_cir(exponential_pdp(4, 1 / 3), 3, 32, rng)
        for m in range(cs.n_paths):
            assert np.sum(np.abs(cs.h[:, m]) ** 2) == pytest.approx(
                32 * np.sum(np.abs(cs.g[:, m]) ** 2), rel=1e-10
            )

    @pytest.mark.parametrize("block", [0, 3])
    def test_gains_are_derived_on_first_read_and_kept(self, block):
        # A drawn channel is its taps; the gains are transformed on first read.
        rngs = [np.random.default_rng([18, trial]) for trial in range(block)]
        cs = sample_cir(exponential_pdp(8, 1 / 3), 4, 64, rngs or np.random.default_rng(18))
        assert "h" not in vars(cs)
        h = cs.h
        np.testing.assert_array_equal(h, cir_to_cfr(cs.g, 64))
        assert h.shape == (*cs.g.shape[:-2], 64, 5)
        assert cs.h is h

    def test_channel_longer_than_symbol_rejected(self):
        rng = np.random.default_rng(16)
        with pytest.raises(ParameterError):
            sample_cir(exponential_pdp(8, 1.0), 1, 4, rng)


class TestCirToCfr:
    # Every response has its path axis: a vector is one (taps, 1) column.
    def test_impulse_gives_flat_gain(self):
        g = np.zeros((8, 1), dtype=complex)
        g[0] = 1.0
        np.testing.assert_allclose(cir_to_cfr(g, 64), np.ones((64, 1)), atol=1e-14)

    def test_zero_maps_to_zero(self):
        np.testing.assert_array_equal(cir_to_cfr(np.zeros((4, 1)), 16), np.zeros((16, 1)))

    def test_matches_dense_matrix_product(self):
        rng = np.random.default_rng(17)
        g = (rng.standard_normal(8) + 1j * rng.standard_normal(8))[:, None]
        padded = np.concatenate([g, np.zeros((56, 1))])
        np.testing.assert_allclose(
            cir_to_cfr(g, 64), dense_unnormalized_dft(64) @ padded, atol=1e-12
        )

    def test_too_many_taps(self):
        with pytest.raises(DimensionError):
            cir_to_cfr(np.ones((8, 1)), 4)

    def test_a_vector_is_rejected(self):
        with pytest.raises(DimensionError, match="taps, paths"):
            cir_to_cfr(np.ones(4), 16)


def test_channel_set_validates_finiteness():
    with pytest.raises(ParameterError):
        ChannelSet(g=np.array([[np.nan + 0j]]), n_subcarriers=4)
