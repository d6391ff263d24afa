"""Tests for the complex baseband primitives."""

import numpy as np
import pytest

from risofdm.errors import DimensionError, ParameterError, PilotError, SingularCirculantError
from risofdm.estimators import cir_estimate_full
from risofdm.frame import FrameGeometry, build_periodic_pilots
from risofdm.link import ReceivedFrame
from risofdm.numerics import (
    SPECTRUM_CACHE_SIZE,
    _cached_spectrum,
    build_lambda,
    circulant,
    circulant_spectrum,
    dft,
    dirichlet_fs,
    idft,
    zadoff_chu,
)
from risofdm.ris_pattern import dft_pattern


def dense_dft_matrix(n: int) -> np.ndarray:
    """Brute-force unitary DFT matrix, the oracle for fast transforms."""
    p, q = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return np.exp(-2j * np.pi * p * q / n) / np.sqrt(n)


def geometric_mean_phase(alpha: float, n: int) -> complex:
    """Defining identity of the leakage kernel: (1/N) sum exp(j2pi a u/N)."""
    return np.exp(2j * np.pi * alpha * np.arange(n) / n).sum() / n


class TestDft:
    def test_all_ones_dc_bin(self):
        out = dft(np.ones(4))
        np.testing.assert_allclose(out, [2, 0, 0, 0], atol=1e-14)

    def test_zero_vector(self):
        np.testing.assert_array_equal(dft(np.zeros(16)), np.zeros(16))

    def test_matches_dense_matrix(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        np.testing.assert_allclose(dft(x), dense_dft_matrix(64) @ x, atol=1e-12)

    def test_idft_matches_dense_adjoint(self):
        rng = np.random.default_rng(2)
        y = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        np.testing.assert_allclose(
            idft(y), dense_dft_matrix(64).conj().T @ y, atol=1e-12
        )

    def test_impulse_idft_is_constant(self):
        e0 = np.zeros(16, dtype=complex)
        e0[0] = 1.0
        np.testing.assert_allclose(idft(e0), np.full(16, 0.25), atol=1e-14)

    @pytest.mark.parametrize("n", [4, 8, 64, 256])
    def test_unitarity_and_round_trip(self, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        y = dft(x)
        assert abs(np.linalg.norm(y) - np.linalg.norm(x)) <= 1e-12 * np.linalg.norm(x)
        np.testing.assert_allclose(idft(y), x, rtol=1e-12, atol=1e-12)


class TestDirichlet:
    def test_zero(self):
        assert dirichlet_fs(0.0, 64) == 1.0

    @pytest.mark.parametrize("k", [1, -1, 5, 63, -63, 100])
    def test_nonzero_integers_vanish(self, k):
        assert abs(dirichlet_fs(k, 64)) < 1e-12

    @pytest.mark.parametrize("mult", [1, -1, 3])
    def test_multiples_of_n_equal_one(self, mult):
        assert dirichlet_fs(mult * 64.0, 64) == pytest.approx(1.0, abs=1e-12)

    def test_half_offset_matches_geometric_sum(self):
        assert abs(dirichlet_fs(0.5, 64) - geometric_mean_phase(0.5, 64)) < 1e-12

    def test_random_alphas_match_geometric_sum(self):
        rng = np.random.default_rng(3)
        for n in (7, 64):
            for alpha in rng.uniform(-n, n, size=100):
                assert abs(dirichlet_fs(alpha, n) - geometric_mean_phase(alpha, n)) < 1e-12

    def test_invalid_n(self):
        with pytest.raises(ParameterError):
            dirichlet_fs(0.1, 0)


class TestBuildLambda:
    def test_zero_offset_is_identity(self):
        np.testing.assert_allclose(build_lambda(0.0, 8), np.eye(8), atol=1e-12)

    def test_rows_are_cyclic_shifts(self):
        lam = build_lambda(0.37, 16)
        for p in range(1, 16):
            np.testing.assert_allclose(lam[p], np.roll(lam[p - 1], 1), atol=1e-15)

    def test_entries_match_kernel_evaluation(self):
        eps, n = 0.1, 16
        lam = build_lambda(eps, n)
        for p in range(n):
            for q in range(n):
                expected = dirichlet_fs(eps - (p - q) % n, n)
                assert abs(lam[p, q] - expected) < 1e-12

    def test_row_sums_constant(self):
        lam = build_lambda(0.1, 16)
        sums = lam.sum(axis=1)
        np.testing.assert_allclose(sums, sums[0], atol=1e-12)

    @pytest.mark.parametrize("eps", [0.005, -0.3, 0.5])
    def test_is_dft_image_of_phase_ramp(self, eps):
        n = 32
        f = dense_dft_matrix(n)
        ramp = np.exp(2j * np.pi * eps * np.arange(n) / n)
        np.testing.assert_allclose(
            build_lambda(eps, n), f @ np.diag(ramp) @ f.conj().T, atol=1e-10
        )

    def test_too_small(self):
        with pytest.raises(ParameterError):
            build_lambda(0.1, 1)


class TestZadoffChu:
    def test_length_one(self):
        np.testing.assert_allclose(zadoff_chu(1, 1), [1.0])

    @pytest.mark.parametrize("length,root", [(32, 1), (32, 3), (31, 1), (31, 7)])
    def test_unit_modulus(self, length, root):
        z = zadoff_chu(length, root)
        np.testing.assert_allclose(np.abs(z), 1.0, atol=1e-14)

    @pytest.mark.parametrize("length,root", [(32, 1), (31, 2), (64, 5)])
    def test_flat_dft_magnitude(self, length, root):
        z = zadoff_chu(length, root)
        spectrum = dense_dft_matrix(length) @ z
        np.testing.assert_allclose(np.abs(spectrum), 1.0, atol=1e-10)

    def test_shared_factor_rejected(self):
        with pytest.raises(ParameterError):
            zadoff_chu(32, 2)

    def test_circulant_perfectly_conditioned(self):
        for length, root in ((32, 1), (27, 4)):
            mags = np.abs(circulant_spectrum(zadoff_chu(length, root)))
            np.testing.assert_allclose(mags, np.sqrt(length), atol=1e-10)


class TestCirculantSpectrum:
    def test_matches_eigenvalues_and_flags_singular_columns(self):
        rng = np.random.default_rng(9)
        cols = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
        f = dense_dft_matrix(8)
        for k in range(2):
            # C = F^H diag(lam) F with the unitary DFT F.
            lam = circulant_spectrum(cols[:, k])
            np.testing.assert_allclose(
                f.conj().T @ np.diag(lam) @ f, circulant(cols[:, k]), atol=1e-12
            )
        dead = np.zeros(8, dtype=complex)
        dead[0], dead[1] = 1.0, -1.0  # eigenvalue 0 dies at bin 0
        with pytest.raises(SingularCirculantError, match="eigenvalue 0 ") as err:
            circulant_spectrum(dead)
        assert isinstance(err.value, PilotError)
        assert err.value.index == 0

    def test_cached_by_content_and_read_only(self):
        z = zadoff_chu(16, 3)
        lam = circulant_spectrum(z)
        again = circulant_spectrum(z.copy())
        assert again is lam
        assert not lam.flags.writeable
        with pytest.raises(ValueError):
            lam[0] = 0

    def test_cache_is_bounded(self):
        rng = np.random.default_rng(8)
        for _ in range(3 * SPECTRUM_CACHE_SIZE):
            circulant_spectrum(rng.standard_normal(4) + 0j)
        assert _cached_spectrum.cache_info().currsize <= SPECTRUM_CACHE_SIZE

    def test_needs_one_dimensional_sequence(self):
        with pytest.raises(DimensionError):
            circulant_spectrum(zadoff_chu(8)[:, None])
        with pytest.raises(DimensionError):
            circulant_spectrum(np.zeros(0, dtype=complex))


def solve_through_estimator(first_col, rhs):
    """g with circulant(first_col) g = rhs, solved by ``cir_estimate_full``.

    That estimator holds the package's only circulant solve.  A periodic
    frame with one block per column of ``rhs`` and n_z = 3 puts ``rhs`` in
    both training copies the estimator averages; mixing its estimate with
    the pattern undoes the unmixing.
    """
    l, blocks = rhs.shape
    geom = FrameGeometry(n=3 * l, l=l, l_cp=l, m=blocks - 1, n_z=3)
    frame = build_periodic_pilots(geom, first_col, np.random.default_rng(10))
    rx = ReceivedFrame(geometry=geom, r=np.tile(rhs, (3, 1)))
    pattern = dft_pattern(blocks - 1)
    return pattern.mix(cir_estimate_full(rx, frame, pattern).g_hat)


class TestCirculantSolve:
    def test_identity_system(self):
        rng = np.random.default_rng(4)
        rhs = rng.standard_normal((8, 1)) + 1j * rng.standard_normal((8, 1))
        first_col = np.zeros(8, dtype=complex)
        first_col[0] = 1.0
        np.testing.assert_allclose(solve_through_estimator(first_col, rhs), rhs, atol=1e-12)

    def test_zadoff_chu_round_trip(self):
        rng = np.random.default_rng(5)
        z = zadoff_chu(32)
        g = rng.standard_normal((32, 1)) + 1j * rng.standard_normal((32, 1))
        rhs = circulant(z) @ g
        np.testing.assert_allclose(solve_through_estimator(z, rhs), g, rtol=1e-10, atol=1e-10)

    def test_matches_dense_solve(self):
        rng = np.random.default_rng(6)
        first_col = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        first_col[0] += 4.0  # keep the circulant comfortably invertible
        rhs = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
        solved = solve_through_estimator(first_col, rhs)
        for k in range(3):
            dense = np.linalg.solve(circulant(first_col), rhs[:, k])
            np.testing.assert_allclose(solved[:, k], dense, atol=1e-9)

    def test_matrix_rhs(self):
        rng = np.random.default_rng(7)
        z = zadoff_chu(16)
        block = rng.standard_normal((16, 3)) + 1j * rng.standard_normal((16, 3))
        rhs = circulant(z) @ block
        solved = solve_through_estimator(z, rhs)
        np.testing.assert_allclose(solved, np.linalg.solve(circulant(z), rhs), atol=1e-10)
        np.testing.assert_allclose(solved, block, atol=1e-10)

    def test_singular_reports_eigenvalue_index(self):
        first_col = np.zeros(8, dtype=complex)
        first_col[0], first_col[1] = 1.0, -1.0  # eigenvalue 0 dies at bin 0
        with pytest.raises(SingularCirculantError) as err:
            circulant_spectrum(first_col)
        assert err.value.index == 0
        assert err.value.magnitude <= err.value.threshold

    def test_dimension_mismatch(self):
        # The right-hand side comes from the received frame, the circulant
        # from the pilot frame; their lengths must agree.
        rng = np.random.default_rng(11)
        pilot_geom = FrameGeometry(n=24, l=8, l_cp=8, m=0, n_z=3)
        frame = build_periodic_pilots(pilot_geom, zadoff_chu(8), rng)
        rx_geom = FrameGeometry(n=24, l=4, l_cp=4, m=0, n_z=3)
        rx = ReceivedFrame(geometry=rx_geom, r=np.ones((24, 1)))
        with pytest.raises(DimensionError):
            cir_estimate_full(rx, frame, dft_pattern(0))
