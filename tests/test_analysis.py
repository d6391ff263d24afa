"""Tests for closed-form models, metrics, and operation counters."""

import math

import numpy as np
import pytest

from risofdm.analysis import (
    NmseParams,
    complexity_cfr,
    complexity_joint,
    count_joint_multiplications,
    mse_cfo,
    nmse_closed_form,
    nmse_closed_form_exact,
    nmse_freq,
    nmse_turning_point,
)
from risofdm.errors import DimensionError, ParameterError
from risofdm.frame import FrameGeometry


def eq_nmse_reference(epsilon, n, l, l_cp, m, sigma2):
    """Independent plain-math evaluation of the closed form (eps != 0)."""
    l_p = l_cp + n
    noise = sigma2 * l / (n * (m + 1))
    carrier = math.sin(math.pi * epsilon) / (n * math.sin(math.pi * epsilon / n))
    blocks = math.sin((m + 1) * math.pi * epsilon * l_p / n) / (
        (m + 1) * math.sin(math.pi * epsilon * l_p / n)
    )
    cosine = math.cos(math.pi * epsilon * (m * l_p + n - 1) / n)
    return noise + 2 - 2 * carrier * blocks * cosine


class TestClosedForm:
    def test_zero_offset_zero_noise(self):
        params = NmseParams(epsilon=0.0, n=64, l=8, l_cp=10, m=4, sigma2=0.0)
        assert nmse_closed_form(params) == 0.0

    def test_zero_offset_noise_only(self):
        params = NmseParams(epsilon=0.0, n=64, l=8, l_cp=10, m=4, sigma2=0.3)
        assert nmse_closed_form(params) == pytest.approx(0.3 * 8 / (64 * 5), abs=0)

    @pytest.mark.parametrize(
        "epsilon,m", [(0.005, 1), (0.01, 100), (0.05, 7), (-0.3, 16), (0.5, 3)]
    )
    def test_matches_independent_evaluation(self, epsilon, m):
        params = NmseParams(epsilon=epsilon, n=64, l=8, l_cp=10, m=m, sigma2=0.01)
        expected = eq_nmse_reference(epsilon, 64, 8, 10, m, 0.01)
        assert nmse_closed_form(params) == pytest.approx(expected, abs=1e-12)

    def test_known_value(self):
        params = NmseParams(epsilon=0.01, n=64, l=8, l_cp=10, m=100, sigma2=0.0)
        assert nmse_closed_form(params) == pytest.approx(1.7622181624, abs=1e-6)

    def test_large_m_saturates_at_two(self):
        params = NmseParams(epsilon=0.01, n=64, l=8, l_cp=10, m=10**6, sigma2=0.0)
        assert abs(nmse_closed_form(params) - 2.0) <= 1e-3

    def test_continuous_at_zero_offset(self):
        base = dict(n=64, l=8, l_cp=10, m=16, sigma2=0.01)
        at_zero = nmse_closed_form(NmseParams(epsilon=0.0, **base))
        near_zero = nmse_closed_form(NmseParams(epsilon=1e-8, **base))
        assert abs(near_zero - at_zero) <= 1e-6

    def test_bounded_on_parameter_grid(self):
        for eps in (0.005, 0.05, 0.3, 0.5):
            for m in (0, 1, 16, 256):
                params = NmseParams(epsilon=eps, n=64, l=8, l_cp=10, m=m, sigma2=0.1)
                value = nmse_closed_form(params)
                assert 0.0 <= value <= 4.0 + 0.1 * 8 / (64 * (m + 1))

    def test_edge_parameters_accepted(self):
        NmseParams(epsilon=0.5, n=64, l=64, l_cp=64, m=0, sigma2=0.0)
        # The closed form describes the baseline estimator, which sends no
        # training, so an l that does not divide n is a frame it can have.
        NmseParams(epsilon=0.01, n=64, l=7, l_cp=7, m=1, sigma2=0.1)


class TestExactClosedForm:
    @pytest.mark.parametrize("m", [0, 1, 16])
    def test_equals_paper_form_at_zero_offset(self, m):
        params = NmseParams(epsilon=0.0, n=64, l=8, l_cp=10, m=m, sigma2=0.1)
        assert nmse_closed_form_exact(params) == nmse_closed_form(params)

    @pytest.mark.parametrize("epsilon", [0.005, 0.05, -0.3])
    def test_equals_paper_form_without_truncation(self, epsilon):
        params = NmseParams(epsilon=epsilon, n=16, l=16, l_cp=16, m=4, sigma2=0.1)
        assert nmse_closed_form_exact(params) == nmse_closed_form(params)

    @pytest.mark.parametrize(
        "epsilon,n,l,m",
        [(0.05, 64, 8, 1), (0.01, 64, 8, 64), (-0.3, 256, 32, 16), (0.5, 16, 4, 3)],
    )
    def test_difference_is_truncated_leakage(self, epsilon, n, l, m):
        params = NmseParams(epsilon=epsilon, n=n, l=l, l_cp=l, m=m, sigma2=0.01)
        f_s = math.sin(math.pi * epsilon) / (n * math.sin(math.pi * epsilon / n))
        expected = (1 - l / n) * (1 - f_s**2)
        gap = nmse_closed_form(params) - nmse_closed_form_exact(params)
        assert gap == pytest.approx(expected, rel=1e-12)


class TestTurningPoint:
    def test_matches_exhaustive_scan(self):
        sigma2, m_max = 1.0, 200
        values = [
            nmse_closed_form(NmseParams(epsilon=0.01, n=64, l=8, l_cp=10, m=m, sigma2=sigma2))
            for m in range(m_max + 1)
        ]
        expected = next(m for m in range(m_max) if values[m + 1] > values[m])
        assert nmse_turning_point(0.01, 64, 8, 10, sigma2, m_max) == expected

    def test_larger_offset_turns_earlier(self):
        tp_large = nmse_turning_point(0.05, 64, 8, 10, 1.0, 10_000)
        tp_small = nmse_turning_point(0.005, 64, 8, 10, 1.0, 10_000)
        assert tp_large < tp_small

    def test_negligible_offset_has_no_turning_point(self):
        assert nmse_turning_point(1e-9, 64, 8, 10, 0.01, 10_000) is None

    def test_zero_offset_rejected(self):
        with pytest.raises(ParameterError):
            nmse_turning_point(0.0, 64, 8, 10, 0.1, 100)


class TestComplexity:
    def test_joint_hand_expansion(self):
        breakdown = complexity_joint(l=8, n_z=4, m=16)
        assert breakdown.terms == {
            "cfo": 8 * 4 * 16,
            "cir_solve": 64 * 16,
            "combine": 8 * 256,
            "pattern_inverse": 4096,
        }
        assert breakdown.total == 512 + 1024 + 2048 + 4096

    def test_cfr_hand_expansion(self):
        breakdown = complexity_cfr(n=64, l=8, n_p=64, m=4)
        assert breakdown.terms == {
            "pilot_ls": 8 * 64**2 * 4,
            "transform": 64**2 * 4,
            "combine": 64 * 16,
            "pattern_inverse": 64,
        }

    def test_ratio_reaches_three_orders(self):
        ratio = (
            complexity_cfr(n=1024, l=102, n_p=1024, m=100).total
            / complexity_joint(l=102, n_z=4, m=100).total
        )
        assert 500 <= ratio <= 10_000

    def test_cubic_dominance_for_large_m(self):
        for make in (
            lambda m: complexity_cfr(n=16, l=2, n_p=16, m=m),
            lambda m: complexity_joint(l=8, n_z=4, m=m),
        ):
            ratio = make(512).total / make(256).total
            assert 6 <= ratio <= 10

    def test_positive_parameters_required(self):
        with pytest.raises(ParameterError):
            complexity_joint(l=0, n_z=4, m=4)

    @pytest.mark.parametrize("n, l, n_p", [(64, 8, 128), (1024, 102, 64)])
    def test_comb_outside_l_to_n_rejected(self, n, l, n_p):
        with pytest.raises(ParameterError, match=f"n_p={n_p}"):
            complexity_cfr(n=n, l=l, n_p=n_p, m=4)


class TestCounters:
    def test_counts_follow_geometry(self):
        geom = FrameGeometry(n=128, l=8, l_cp=8, m=16, n_z=4)
        counts = count_joint_multiplications(geom)
        assert counts.cfo_correlation == ((4 - 2) * 8 + 1) * 17
        assert counts.cir_solve == 64 * 17
        assert counts.combine == 8 * 17**2
        assert counts.pattern_inverse == 17**3
        assert counts.compensation == (4 - 1) * 8 * 17
        assert counts.cir_average == 8 * 17

    def test_cfo_count_doubles_with_nz(self):
        # Correlation count approaches proportionality in N_z from above;
        # at N_z = 16 -> 32 the ratio sits inside [1.8, 2.2].
        base = count_joint_multiplications(
            FrameGeometry(n=512, l=32, l_cp=32, m=16, n_z=16)
        )
        doubled = count_joint_multiplications(
            FrameGeometry(n=1024, l=32, l_cp=32, m=16, n_z=32)
        )
        ratio = doubled.cfo_correlation / base.cfo_correlation
        assert 1.8 <= ratio <= 2.2


class TestMetrics:
    def test_perfect_estimate(self):
        h = np.ones((4, 2), dtype=complex)
        assert nmse_freq(h, h) == 0.0

    def test_zero_estimate(self):
        rng = np.random.default_rng(81)
        h = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
        assert nmse_freq(h, np.zeros_like(h)) == pytest.approx(1.0)

    def test_double_estimate(self):
        rng = np.random.default_rng(82)
        g = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        assert nmse_freq(g, 2 * g) == pytest.approx(1.0)

    def test_cfo_metric(self):
        assert mse_cfo(0.25, 0.2) == pytest.approx(0.0025)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            nmse_freq(np.ones((4, 1)), np.ones((5, 1)))

    def test_zero_reference_rejected(self):
        with pytest.raises(ParameterError):
            nmse_freq(np.zeros((4, 1)), np.ones((4, 1)))
