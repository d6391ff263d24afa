"""Tests for frame geometry and pilot construction."""

import numpy as np
import pytest

from risofdm.errors import DimensionError, ParameterError, PilotError, SingularCirculantError
from risofdm.frame import (
    FrameGeometry,
    build_baseline_pilots,
    build_periodic_pilots,
    qpsk_symbols,
)
from risofdm.numerics import dft, idft, zadoff_chu


def geometry(**kwargs):
    defaults = dict(n=256, l=32, l_cp=34, m=3, n_z=4)
    defaults.update(kwargs)
    return FrameGeometry(**defaults)


class TestFrameGeometry:
    def test_derived_quantities(self):
        geom = geometry()
        assert geom.n_s == 8
        assert geom.n_d == 4
        assert geom.l_p == 290
        assert geom.n_blocks == 4

    def test_rejects_single_training_subsequence(self):
        with pytest.raises(ParameterError):
            FrameGeometry(n=64, l=8, l_cp=10, m=1, n_z=1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=60),  # not a multiple of l
            dict(l=256),  # n_s < 2
            dict(l_cp=16),  # shorter than channel
            dict(l_cp=300),  # longer than symbol
            dict(n_z=9),  # more than n_s
            dict(m=-1),
        ],
    )
    def test_invalid_geometry(self, kwargs):
        with pytest.raises(ParameterError):
            geometry(**kwargs)


class TestBaselinePilots:
    def test_unit_modulus_symbols(self):
        frame = build_baseline_pilots(geometry(), np.random.default_rng(41))
        np.testing.assert_allclose(np.abs(frame.s), 1.0, atol=1e-14)

    def test_time_frequency_round_trip(self):
        frame = build_baseline_pilots(geometry(), np.random.default_rng(42))
        np.testing.assert_allclose(dft(frame.x), frame.s, atol=1e-12)

    def test_time_samples_computed_on_first_read(self):
        frame = build_baseline_pilots(geometry(), np.random.default_rng(42))
        assert "x" not in frame.__dict__
        np.testing.assert_array_equal(frame.x, idft(frame.s))
        assert frame.x is frame.x

    def test_seed_reproducibility(self):
        a = build_baseline_pilots(geometry(), np.random.default_rng(42))
        b = build_baseline_pilots(geometry(), np.random.default_rng(42))
        np.testing.assert_array_equal(a.s, b.s)
        np.testing.assert_array_equal(a.x, b.x)


class TestPeriodicPilots:
    def test_training_head_periodicity(self):
        geom = geometry()
        z = zadoff_chu(32)
        frame = build_periodic_pilots(geom, z, np.random.default_rng(43))
        head = geom.n_z * geom.l
        for k in range(geom.n_blocks):
            x = frame.x[:, k]
            np.testing.assert_array_equal(x[: head - geom.l], x[geom.l : head])
            np.testing.assert_array_equal(x[: geom.l], z)

    def test_fully_periodic_when_nz_equals_ns(self):
        geom = geometry(n_z=8)
        z = zadoff_chu(32)
        frame = build_periodic_pilots(geom, z, np.random.default_rng(44))
        np.testing.assert_array_equal(frame.x[:32, 0], frame.x[-32:, 0])

    def test_unit_average_power(self):
        geom = geometry()
        frame = build_periodic_pilots(geom, zadoff_chu(32), np.random.default_rng(45))
        power = np.sum(np.abs(frame.x) ** 2, axis=0) / geom.n
        np.testing.assert_allclose(power, 1.0, atol=1e-12)

    def test_rejects_singular_training_sequence(self):
        with pytest.raises(PilotError):
            build_periodic_pilots(geometry(), np.zeros(32), np.random.default_rng(46))
        with pytest.raises(PilotError, match="singular circulant"):
            build_periodic_pilots(geometry(m=1), np.ones(32), np.random.default_rng(46))

    def test_singular_training_sequence_rejected_on_every_call(self):
        # The singularity check is cached per sequence; a cached verdict,
        # good or bad, must never let a singular sequence through.
        geom, good, bad = geometry(), zadoff_chu(32), np.ones(32)
        errors = []
        for z, singular in ((bad, True), (bad, True), (good, False), (bad, True)):
            rng = np.random.default_rng(46)
            if singular:
                with pytest.raises(SingularCirculantError, match="eigenvalue 1 ") as err:
                    build_periodic_pilots(geom, z, rng)
                errors.append(err.value)
            else:
                build_periodic_pilots(geom, z, rng)
        assert all(isinstance(e, PilotError) for e in errors)
        assert len({(e.index, str(e)) for e in errors}) == 1
        assert errors[0].index == 1

    def test_rejects_wrong_length(self):
        with pytest.raises(DimensionError):
            build_periodic_pilots(geometry(), zadoff_chu(16), np.random.default_rng(47))

    def test_per_block_training_sequences(self):
        # Every block carries the same sequence; a stack of them is refused.
        cols = np.stack([zadoff_chu(32, 1), zadoff_chu(32, 3)], axis=1)
        with pytest.raises(DimensionError, match=r"z must have shape \(32,\)"):
            build_periodic_pilots(geometry(m=1), cols, np.random.default_rng(48))


def test_qpsk_draws_match_the_bit_formula():
    # Same draws, same values, bit for bit: (2 re - 1 + 1j (2 im - 1)) / sqrt(2).
    draws = qpsk_symbols(np.random.default_rng(52), (64, 3))
    rng = np.random.default_rng(52)
    re = rng.integers(0, 2, size=(64, 3)) * 2 - 1
    im = rng.integers(0, 2, size=(64, 3)) * 2 - 1
    np.testing.assert_array_equal(draws, (re + 1j * im) / np.sqrt(2.0))


def test_qpsk_alphabet():
    draws = qpsk_symbols(np.random.default_rng(50), 1000)
    alphabet = {(1 + 1j), (1 - 1j), (-1 + 1j), (-1 - 1j)}
    assert set(np.round(draws * np.sqrt(2))) <= {complex(a) for a in alphabet}
