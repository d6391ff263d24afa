"""Tests for the DFT reflection pattern and its FFT mixing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risofdm.errors import DimensionError
from risofdm.ris_pattern import dft_pattern


class TestDftPattern:
    def test_single_path(self):
        np.testing.assert_allclose(dft_pattern(0).phi, [[1.0]])

    def test_two_paths(self):
        np.testing.assert_allclose(
            dft_pattern(1).phi, [[1, 1], [1, -1]], atol=1e-15
        )

    def test_scaled_unitary(self):
        phi = dft_pattern(7).phi
        np.testing.assert_allclose(phi @ phi.conj().T, 8 * np.eye(8), atol=1e-12)

    def test_valid_for_all_sizes_up_to_128(self):
        # Unit modulus, a direct-path row of ones, and Phi Phi^H = (M+1) I.
        for m in range(129):
            phi = dft_pattern(m).phi
            assert np.abs(np.abs(phi) - 1.0).max() <= 1e-12
            assert np.abs(phi[0] - 1.0).max() <= 1e-12
            gram = phi @ phi.conj().T
            assert np.abs(gram - (m + 1) * np.eye(m + 1)).max() <= 1e-10 * (m + 1)

    def test_needs_a_block(self):
        with pytest.raises(DimensionError, match="n_reflectors >= 0"):
            dft_pattern(-1)


class TestInversePattern:
    def test_single_path(self):
        np.testing.assert_allclose(dft_pattern(0).unmix(np.array([[2.0 - 1j]])), [[2.0 - 1j]])

    @pytest.mark.parametrize("m", [0, 1, 7, 63])
    def test_inverse_times_pattern_is_identity(self, m):
        pattern = dft_pattern(m)
        np.testing.assert_allclose(pattern.unmix(pattern.phi), np.eye(m + 1), atol=1e-10)
        np.testing.assert_allclose(pattern.unmix(pattern.mix(np.eye(m + 1))), np.eye(m + 1), atol=1e-10)


class TestMixUnmix:
    @settings(max_examples=10, deadline=None)
    @given(rows=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
    def test_dft_patterns_match_matrix_products(self, rows, seed):
        rng = np.random.default_rng(seed)
        for m in range(129):
            pattern = dft_pattern(m)
            x = rng.standard_normal((rows, m + 1)) + 1j * rng.standard_normal((rows, m + 1))
            for got, want in (
                (pattern.mix(x), x @ pattern.phi),
                (pattern.unmix(x), x @ pattern.phi.conj().T / (m + 1)),
            ):
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
