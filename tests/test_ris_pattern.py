"""Tests for reflection-pattern construction and inversion."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risofdm.errors import DimensionError
from risofdm.ris_pattern import (
    PatternWarning,
    ReflectionPattern,
    dft_pattern,
    inverse_pattern,
    validate_pattern,
)


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
        for m in range(129):
            assert validate_pattern(dft_pattern(m)) == []


class TestValidatePattern:
    def test_flags_direct_path(self):
        phi = dft_pattern(1).phi.copy()
        phi[0, 1] = -1.0
        violations = validate_pattern(ReflectionPattern(phi))
        assert any("direct-path" in str(v) for v in violations)

    def test_flags_rank_deficiency(self):
        violations = validate_pattern(ReflectionPattern(np.ones((2, 2))))
        assert any("scaled-unitary" in str(v) for v in violations)

    def test_flags_modulus(self):
        phi = dft_pattern(2).phi.copy()
        phi[1, 1] *= 0.5
        violations = validate_pattern(ReflectionPattern(phi))
        assert any("unit modulus" in str(v) for v in violations)

    def test_requires_square(self):
        with pytest.raises(DimensionError):
            ReflectionPattern(np.ones((2, 3)))


class TestInversePattern:
    def test_single_path(self):
        np.testing.assert_allclose(inverse_pattern(dft_pattern(0)), [[1.0]])

    @pytest.mark.parametrize("m", [0, 1, 7, 63])
    def test_inverse_times_pattern_is_identity(self, m):
        pattern = dft_pattern(m)
        product = inverse_pattern(pattern) @ pattern.phi
        np.testing.assert_allclose(product, np.eye(m + 1), atol=1e-10)

    def test_permuted_dft_matches_dense_inverse(self):
        # Column permutations preserve all pattern invariants.
        rng = np.random.default_rng(31)
        base = dft_pattern(7).phi
        perm = rng.permutation(8)
        pattern = ReflectionPattern(base[:, perm])
        assert validate_pattern(pattern) == []
        np.testing.assert_allclose(
            inverse_pattern(pattern), np.linalg.inv(pattern.phi), atol=1e-9
        )

    def test_invalid_pattern_warns_and_solves(self):
        phi = dft_pattern(2).phi.copy()
        phi[1, 1] *= np.exp(0.25j)  # still invertible, no longer optimal
        pattern = ReflectionPattern(phi)
        with pytest.warns(PatternWarning):
            inverse = inverse_pattern(pattern)
        np.testing.assert_allclose(inverse @ phi, np.eye(3), atol=1e-10)


class TestMixUnmix:
    @settings(max_examples=10, deadline=None)
    @given(rows=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
    def test_dft_patterns_match_matrix_products(self, rows, seed):
        rng = np.random.default_rng(seed)
        for m in range(129):
            pattern = dft_pattern(m)
            assert pattern.is_dft
            x = rng.standard_normal((rows, m + 1)) + 1j * rng.standard_normal((rows, m + 1))
            for got, want in (
                (pattern.mix(x), x @ pattern.phi),
                (pattern.unmix(x), x @ inverse_pattern(pattern)),
            ):
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_valid_non_dft_pattern_uses_matrix_products(self):
        rng = np.random.default_rng(32)
        phi = dft_pattern(7).phi[:, rng.permutation(8)]
        pattern = ReflectionPattern(phi)
        assert not pattern.is_dft
        x = rng.standard_normal((5, 8)) + 1j * rng.standard_normal((5, 8))
        np.testing.assert_array_equal(pattern.mix(x), x @ phi)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            unmixed = pattern.unmix(x)
        np.testing.assert_array_equal(unmixed, x @ (phi.conj().T / 8))

    def test_invalid_pattern_unmix_warns_and_solves(self):
        phi = dft_pattern(2).phi.copy()
        phi[1, 1] *= np.exp(0.25j)
        pattern = ReflectionPattern(phi)
        assert not pattern.is_dft
        x = np.arange(6.0).reshape(2, 3) + 1j
        np.testing.assert_array_equal(pattern.mix(x), x @ phi)
        with pytest.warns(PatternWarning):
            unmixed = pattern.unmix(x)
        np.testing.assert_array_equal(unmixed, x @ np.linalg.inv(phi))
