"""Tests for the complex baseband primitives."""

import math
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geometry_strategies import LinkSetup, link_setups

from risofdm.channel_model import cir_to_cfr, exponential_pdp, sample_cir
from risofdm.errors import DimensionError, ParameterError, PilotError, SingularCirculantError
from risofdm.estimators import baseline_cfr_full, cir_estimate_full, uniform_comb
from risofdm.frame import FrameGeometry, build_baseline_pilots, build_periodic_pilots, qpsk_symbols
from risofdm.link import ReceivedFrame, _training_window, awgn
from risofdm.numerics import (
    build_lambda,
    circulant,
    circulant_spectrum,
    complex_normals,
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
    # Every signal has its block axis: a vector is one (n, 1) column.
    def test_all_ones_dc_bin(self):
        out = dft(np.ones((4, 1)))
        np.testing.assert_allclose(out, [[2], [0], [0], [0]], atol=1e-14)

    def test_zero_vector(self):
        np.testing.assert_array_equal(dft(np.zeros((16, 1))), np.zeros((16, 1)))

    def test_matches_dense_matrix(self):
        rng = np.random.default_rng(1)
        x = (rng.standard_normal(64) + 1j * rng.standard_normal(64))[:, None]
        np.testing.assert_allclose(dft(x), dense_dft_matrix(64) @ x, atol=1e-12)

    def test_idft_matches_dense_adjoint(self):
        rng = np.random.default_rng(2)
        y = (rng.standard_normal(64) + 1j * rng.standard_normal(64))[:, None]
        np.testing.assert_allclose(
            idft(y), dense_dft_matrix(64).conj().T @ y, atol=1e-12
        )

    def test_impulse_idft_is_constant(self):
        e0 = np.zeros((16, 1), dtype=complex)
        e0[0] = 1.0
        np.testing.assert_allclose(idft(e0), np.full((16, 1), 0.25), atol=1e-14)

    def test_a_vector_is_rejected(self):
        for transform in (dft, idft):
            with pytest.raises(DimensionError, match="samples, blocks"):
                transform(np.ones(4))

    @pytest.mark.parametrize("n", [4, 8, 64, 256])
    def test_unitarity_and_round_trip(self, n):
        rng = np.random.default_rng(n)
        x = (rng.standard_normal(n) + 1j * rng.standard_normal(n))[:, None]
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
        assert err.value.magnitude <= err.value.threshold

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


def twin_generators(seed: int, block: int):
    """The generators a stage draws from (one, for ``block`` 0; else one per
    trial) and a twin of each, seeded alike, that replays the draws by formula."""
    rngs = [np.random.default_rng([seed, trial]) for trial in range(max(block, 1))]
    twins = [np.random.default_rng([seed, trial]) for trial in range(max(block, 1))]
    return (rngs[0] if block == 0 else rngs), rngs, twins


def assert_twin_draws(got, twin_draws, block, rngs, twins):
    """``got`` holds, byte for byte, the trials' draws from their twins
    (stacked for a block), and every generator has drawn exactly what its
    twin drew."""
    want = twin_draws[0] if block == 0 else np.stack(twin_draws)
    assert (got.shape, got.dtype) == (want.shape, want.dtype)
    assert got.tobytes() == want.tobytes()
    assert [rng.bit_generator.state for rng in rngs] == [twin.bit_generator.state for twin in twins]


def interleaved(twin, shape, scale=1.0) -> np.ndarray:
    """Complex normals of ``shape`` by formula: one draw of twice the last
    axis, even draws the real parts and odd draws the imaginary parts, each
    part scaled by ``scale``."""
    parts = twin.standard_normal((*shape[:-1], 2 * shape[-1]))
    z = np.empty(shape, np.complex128)
    z.real = scale * parts[..., 0::2]
    z.imag = scale * parts[..., 1::2]
    return z


shapes = st.lists(st.integers(1, 6), min_size=1, max_size=3).map(tuple)
blocks = st.integers(0, 4)  # 0: one generator, not a block
seeds = st.integers(0, 2**32 - 1)


class TestDrawLayer:
    """A block's draws fill one array, one generator call per trial and
    draw, and are mapped once; each trial gets the values of the draw's
    formula on a twin generator, from the same stretch of its stream."""

    @settings(max_examples=50, deadline=None)
    @given(shape=shapes, block=blocks, seed=seeds, sigma2=st.sampled_from([0.0, 1e-40, 0.37, 4.0]))
    @example(shape=(4, 2), block=0, seed=0, sigma2=0.0)
    @example(shape=(16, 3), block=0, seed=70, sigma2=0.37)
    def test_noise(self, shape, block, seed, sigma2):
        rng, rngs, twins = twin_generators(seed, block)

        def formula(twin):
            if not sigma2:  # nothing is drawn at sigma2 = 0
                return np.zeros(shape, dtype=np.complex128)
            return interleaved(twin, shape, np.sqrt(sigma2 / 2.0))

        lead = (block,) if block else ()
        got = awgn(rng, shape, sigma2, out=np.zeros((*lead, *shape), np.complex128))
        assert_twin_draws(got, [formula(twin) for twin in twins], block, rngs, twins)

    @settings(max_examples=50, deadline=None)
    @given(shape=shapes, block=blocks, seed=seeds, sigma2=st.sampled_from([1e-40, 0.37]))
    def test_noise_added_into_out(self, shape, block, seed, sigma2):
        # The noise is added into ``out`` with one complex add.
        rng, rngs, twins = twin_generators(seed, block)
        lead = (block,) if block else ()
        out = complex_normal(np.random.default_rng(seed), (*lead, *shape))
        want = out + np.stack([interleaved(twin, shape, np.sqrt(sigma2 / 2.0)) for twin in twins])
        got = awgn(rng, shape, sigma2, out=out)
        assert got is out
        assert got.tobytes() == want.reshape(got.shape).tobytes()
        assert [r.bit_generator.state for r in rngs] == [t.bit_generator.state for t in twins]

    @settings(max_examples=50, deadline=None)
    @given(shape=shapes, block=blocks, seed=seeds)
    def test_complex_normals(self, shape, block, seed):
        rng, rngs, twins = twin_generators(seed, block)
        got = complex_normals(rng, shape)
        assert_twin_draws(got, [interleaved(twin, shape) for twin in twins], block, rngs, twins)

    @pytest.mark.parametrize("block", [0, 2])
    def test_a_0d_shape_is_rejected(self, block):
        # A 0-d complex array has no float64 view to draw into; awgn applies
        # the same rule at sigma2 = 0, where it draws nothing.
        rng, rngs, _ = twin_generators(7, block)
        states = [r.bit_generator.state for r in rngs]
        out = np.zeros((block,) if block else (), np.complex128)
        with pytest.raises(DimensionError, match="at least one axis"):
            complex_normals(rng, ())
        for sigma2 in (0.37, 0.0):
            with pytest.raises(DimensionError, match="at least one axis"):
                awgn(rng, (), sigma2, out=out)
        assert [r.bit_generator.state for r in rngs] == states
        assert not out.any()

    @settings(max_examples=50, deadline=None)
    @given(l=st.integers(1, 6), m=st.integers(0, 5), block=blocks, seed=seeds)
    @example(l=4, m=2, block=0, seed=15)
    def test_channel_taps(self, l, m, block, seed):
        rng, rngs, twins = twin_generators(seed, block)
        pdp = exponential_pdp(l, 1 / 3)
        scale = np.sqrt(pdp.p / 2.0)[:, None]

        got = sample_cir(pdp, m, 2 * l, rng).g
        twin_draws = [interleaved(twin, (l, m + 1), scale) for twin in twins]
        assert_twin_draws(got, twin_draws, block, rngs, twins)

    @settings(max_examples=50, deadline=None)
    @given(shape=shapes, block=blocks, seed=seeds)
    @example(shape=(64, 3), block=0, seed=52)
    @example(shape=(1000,), block=0, seed=50)
    def test_qpsk_symbols(self, shape, block, seed):
        rng, rngs, twins = twin_generators(seed, block)

        def formula(twin):
            index = twin.integers(0, 4, size=shape, dtype=np.uint8)
            a, b = np.divmod(index.astype(np.int64), 2)  # the index is 2a + b
            return ((2 * a - 1) + 1j * (2 * b - 1)) / np.sqrt(2.0)

        got = qpsk_symbols(rng, shape)
        assert_twin_draws(got, [formula(twin) for twin in twins], block, rngs, twins)


# Distribution oracles: each bound follows from the sample count and the
# stated level alone.  Every check is two-sided at the 0.1% level.
LEVEL = 0.001
Z = NormalDist().inv_cdf(1 - LEVEL / 2)  # 3.29


def chi2_3_quantile(p: float) -> float:
    """The p-quantile of a chi-square law with 3 degrees of freedom, by
    bisection on its CDF erf(sqrt(x/2)) - sqrt(2x/pi) exp(-x/2)."""
    lo, hi = 0.0, 100.0
    for _ in range(100):
        mid = (lo + hi) / 2
        cdf = math.erf(math.sqrt(mid / 2)) - math.sqrt(2 * mid / math.pi) * math.exp(-mid / 2)
        lo, hi = (mid, hi) if cdf < p else (lo, mid)
    return hi


class TestDrawDistributions:
    """The draws, from a block of generators as the runner draws them, have
    the laws they claim."""

    def test_qpsk_symbols_are_uniform(self):
        # A 4-cell chi-square test of the symbol counts.
        rngs = [np.random.default_rng([53, trial]) for trial in range(16)]
        symbols = qpsk_symbols(rngs, (256, 17)).ravel()
        index = 2 * (symbols.real > 0) + (symbols.imag > 0)
        counts = np.bincount(index, minlength=4)
        expected = symbols.size / 4
        statistic = float(np.sum((counts - expected) ** 2 / expected))
        assert chi2_3_quantile(1 - LEVEL) == pytest.approx(16.266, abs=1e-3)
        assert statistic <= chi2_3_quantile(1 - LEVEL), counts

    @pytest.mark.parametrize("draw", ["normals", "noise", "taps"])
    def test_complex_normal_parts(self, draw):
        # Each part, brought to unit variance, has a mean within Z / sqrt(n)
        # of 0 and a variance within Z sqrt(2 / (n - 1)) of 1, and the real
        # and imaginary parts a correlation within Z / sqrt(n) of 0.
        rngs = [np.random.default_rng([54, trial]) for trial in range(16)]
        if draw == "normals":
            z = complex_normals(rngs, (256, 17))
        elif draw == "noise":
            z = awgn(rngs, (256, 17), 0.37, out=np.zeros((16, 256, 17), np.complex128))
            z /= np.sqrt(0.37 / 2.0)
        else:
            pdp = exponential_pdp(32, 1 / 3)
            z = sample_cir(pdp, 128, 256, rngs).g / np.sqrt(pdp.p / 2.0)[:, None]
        re, im = z.real.ravel(), z.imag.ravel()
        n = re.size
        for part in (re, im):
            assert abs(part.mean()) <= Z / math.sqrt(n)
            assert abs(part.var(ddof=1) - 1) <= Z * math.sqrt(2 / (n - 1))
        assert abs(np.corrcoef(re, im)[0, 1]) <= Z / math.sqrt(n)


def complex_normal(rng, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestInPlaceTransforms:
    """Each transform that zero-fills its output and runs in place (``out=``)
    gives, bit for bit, what its former one-line formula gave."""

    @settings(max_examples=50, deadline=None)
    @given(setup=link_setups(), block=blocks)
    def test_cir_to_cfr(self, setup, block):
        geom = setup.geometry
        rng = np.random.default_rng(setup.seed)
        lead = (block,) if block else ()
        for taps in (1, geom.l, geom.n):  # a single tap, the channel's, and no padding at all
            stacked = complex_normal(rng, (*lead, taps, geom.n_blocks))
            for g in (stacked, stacked[(0,) * len(lead)][:, :1]):  # and one trial's first column
                former = np.fft.fft(g, n=geom.n, axis=-2)
                np.testing.assert_array_equal(cir_to_cfr(g, geom.n), former)
        with pytest.raises(DimensionError):
            cir_to_cfr(complex_normal(rng, (*lead, geom.n + 1, geom.n_blocks)), geom.n)

    @settings(max_examples=50, deadline=None)
    @given(setup=link_setups(), block=blocks)
    @example(setup=LinkSetup(FrameGeometry(n=64, l=8, l_cp=8, m=3, n_z=4), 0.1, 3, 1), block=2)
    @example(setup=LinkSetup(FrameGeometry(n=64, l=8, l_cp=8, m=3, n_z=8), 0.1, 3, 2), block=3)
    @example(setup=LinkSetup(FrameGeometry(n=12, l=1, l_cp=1, m=2, n_z=5), 0.1, 1, 3), block=0)
    def test_training_window(self, setup, block):
        # With a tail, and with none: the training fills the block (N_z = N/L), or L = 1.
        geom, l = setup.geometry, setup.geometry.l
        rng, _, _ = twin_generators(setup.seed, block)
        lead = (block,) if block else ()
        frame = build_periodic_pilots(geom, zadoff_chu(l, setup.zc_root), rng)
        assert (frame.tail is None) == (l == 1 or geom.n_d == 0)
        taps = complex_normal(np.random.default_rng(setup.seed), (*lead, l, geom.n_blocks))

        copy = np.fft.ifft(np.fft.fft(taps, axis=-2) * frame.spectrum[:, None], axis=-2)
        former = np.tile(copy, (geom.n_z, 1))
        if frame.tail is not None:
            difference = frame.tail - frame.z[1:, None]
            spill = np.fft.ifft(
                np.fft.fft(taps, 2 * l, axis=-2) * np.fft.fft(difference, 2 * l, axis=-2), axis=-2
            )
            former[..., : l - 1, :] += spill[..., l - 1 : 2 * l - 2, :]
        np.testing.assert_array_equal(_training_window(frame, taps), former)

    @settings(max_examples=50, deadline=None)
    @given(setup=link_setups(), block=blocks)
    def test_circulant_solve(self, setup, block):
        geom, l = setup.geometry, setup.geometry.l
        rng, _, _ = twin_generators(setup.seed, block)
        lead = (block,) if block else ()
        frame = build_periodic_pilots(geom, zadoff_chu(l, setup.zc_root), rng)
        pattern = dft_pattern(geom.m)
        r = complex_normal(np.random.default_rng(setup.seed), (*lead, geom.n_z * l, geom.n_blocks))

        segments = r[..., l:, :].reshape(*lead, geom.n_z - 1, l, geom.n_blocks)
        averaged = segments.mean(axis=-3)
        former = pattern.unmix(
            np.fft.ifft(np.fft.fft(averaged, axis=-2) / frame.spectrum[:, None], axis=-2)
        )
        got = cir_estimate_full(ReceivedFrame(geometry=geom, r=r), frame, pattern).g_hat
        np.testing.assert_array_equal(got, former)

    @settings(max_examples=50, deadline=None)
    @given(setup=link_setups(), block=blocks, data=st.data())
    def test_comb_transform(self, setup, block, data):
        geom = setup.geometry
        divisors = [p for p in range(geom.l, geom.n + 1) if geom.n % p == 0]
        n_p = data.draw(st.sampled_from(divisors), label="n_p")
        rng, _, _ = twin_generators(setup.seed, block)
        lead = (block,) if block else ()
        frame = build_baseline_pilots(geom, rng)
        pattern = dft_pattern(geom.m)
        received = ReceivedFrame(
            geometry=geom,
            r=complex_normal(np.random.default_rng(setup.seed), (*lead, geom.n, geom.n_blocks)),
        )
        for comb in (None, uniform_comb(geom.n, n_p)):
            step = 1 if comb is None else geom.n // n_p
            quotients = received.y[..., ::step, :] / frame.s[..., ::step, :]
            former = pattern.unmix(np.fft.ifft(quotients, axis=-2)[..., : geom.l, :])
            got = baseline_cfr_full(received, frame, pattern, pilot_idx=comb).g_hat
            np.testing.assert_array_equal(got, former)
