"""Tests for frame geometry and pilot construction."""

from dataclasses import replace

import numpy as np
import pytest

from risofdm.errors import DimensionError, ParameterError, PilotError, SingularCirculantError
from risofdm.frame import (
    FrameGeometry,
    PilotFrame,
    build_baseline_pilots,
    build_periodic_pilots,
    qpsk_symbols,
)
from risofdm.numerics import dft, idft, zadoff_chu


def geometry(**kwargs):
    defaults = dict(n=256, l=32, l_cp=34, m=3, n_z=4)
    defaults.update(kwargs)
    return FrameGeometry(**defaults)


def periodic_tail(geom, seed):
    """One trial's payload tail, drawn apart from the builder from a twin
    generator: the last l-1 QPSK samples of every block."""
    return qpsk_symbols(np.random.default_rng(seed), (geom.l - 1, geom.n_blocks))


class TestFrameGeometry:
    def test_derived_quantities(self):
        geom = geometry()
        assert geom.n_s == 8
        assert geom.n_d == 4
        assert geom.l_p == 290
        assert geom.n_blocks == 4

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
        np.testing.assert_allclose(dft(idft(frame.s)), frame.s, atol=1e-12)


class TestPeriodicPilots:
    def test_training_head_periodicity(self):
        # A periodic frame is its training z and the tail that wraps into
        # the first copy, exactly the QPSK draw of l-1 symbols per block.
        geom, z = geometry(), zadoff_chu(32)
        frame = build_periodic_pilots(geom, z, np.random.default_rng(43))
        assert frame.s is None
        np.testing.assert_array_equal(frame.z, z)
        np.testing.assert_array_equal(frame.tail, periodic_tail(geom, 43))

    def test_block_of_frames_stacks_each_trials_spectrum(self):
        geom, z, seeds = geometry(), zadoff_chu(32), [43, 44, 45]
        frame = build_periodic_pilots(geom, z, [np.random.default_rng(seed) for seed in seeds])
        assert frame.tail.shape == (len(seeds), geom.l - 1, geom.n_blocks)
        for tail, seed in zip(frame.tail, seeds):
            np.testing.assert_array_equal(tail, periodic_tail(geom, seed))

    def test_fully_periodic_when_nz_equals_ns(self):
        # With no payload nothing but z wraps: no tail is kept, and the
        # frame's one draw is empty, as it was when the frame kept samples.
        geom = geometry(n_z=8)
        rng = np.random.default_rng(44)
        frame = build_periodic_pilots(geom, zadoff_chu(32), rng)
        assert frame.tail is None and frame.s is None
        assert rng.bit_generator.state == np.random.default_rng(44).bit_generator.state

    def test_one_tap_frame_has_nothing_to_wrap(self):
        geom = geometry(l=1, l_cp=1, n_z=4)
        rng = np.random.default_rng(44)
        frame = build_periodic_pilots(geom, zadoff_chu(1), rng)
        assert frame.tail is None and frame.s is None
        assert rng.bit_generator.state == np.random.default_rng(44).bit_generator.state

    def test_unit_average_power(self):
        # Every sample of a block is z's or a QPSK symbol: unit modulus.
        geom = geometry()
        frame = build_periodic_pilots(geom, zadoff_chu(32), np.random.default_rng(45))
        np.testing.assert_allclose(np.abs(frame.z), 1.0, atol=1e-12)
        np.testing.assert_allclose(np.abs(frame.tail), 1.0, atol=1e-12)

    def test_frame_keeps_a_spectrum_or_a_training_sequence(self):
        geom = geometry()
        tail = periodic_tail(geom, 49)
        with pytest.raises(DimensionError, match="no s"):
            PilotFrame(geometry=geom, s=np.ones((geom.n, geom.n_blocks)), z=zadoff_chu(32))
        with pytest.raises(DimensionError, match=r"tail must have shape \(31, 4\)"):
            PilotFrame(geometry=geom, z=zadoff_chu(32), tail=tail[:-1])
        with pytest.raises(DimensionError, match="needs a spectrum"):
            PilotFrame(geometry=geom)

    def test_spectrum_is_the_dft_of_z_and_read_only(self):
        frame = build_periodic_pilots(geometry(), zadoff_chu(32, 3), np.random.default_rng(47))
        np.testing.assert_array_equal(frame.spectrum, np.fft.fft(zadoff_chu(32, 3)))
        assert frame.spectrum is frame.spectrum
        with pytest.raises(ValueError):
            frame.spectrum[0] = 0

    def test_replaced_z_brings_its_own_spectrum(self):
        frame = build_periodic_pilots(geometry(), zadoff_chu(32), np.random.default_rng(48))
        other = zadoff_chu(32, 5)
        np.testing.assert_array_equal(replace(frame, z=other).spectrum, np.fft.fft(other))
        np.testing.assert_array_equal(frame.spectrum, np.fft.fft(zadoff_chu(32)))

    def test_rejects_singular_training_sequence(self):
        with pytest.raises(PilotError):
            build_periodic_pilots(geometry(), np.zeros(32), np.random.default_rng(46))
        with pytest.raises(PilotError, match="singular circulant"):
            build_periodic_pilots(geometry(m=1), np.ones(32), np.random.default_rng(46))

    def test_singular_training_sequence_rejected_on_every_call(self):
        # Each frame checks its own sequence; no earlier verdict, good or
        # bad, may let a singular sequence through.
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
