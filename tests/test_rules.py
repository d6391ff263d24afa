"""Each shared parameter rule rejects a bad value the same way at every caller.

A rule is stated once (``risofdm.frame.check_frame``, ``check_training``,
``check_comb``, ``risofdm.link.check_offset``, ``check_noise``), and every
caller that accepts the parameter must reject each value it rejects, with a
message that starts with the name of the parameter.
"""

import math
import re

import numpy as np
import pytest

from risofdm.analysis import NmseParams, complexity_cfr, complexity_joint
from risofdm.channel_model import exponential_pdp, sample_cir
from risofdm.errors import ConfigError, ParameterError
from risofdm.estimators import baseline_cfr_full
from risofdm.frame import FrameGeometry, build_baseline_pilots, build_periodic_pilots
from risofdm.harness import ExperimentConfig
from risofdm.link import awgn, transmit_frame
from risofdm.numerics import zadoff_chu
from risofdm.ris_pattern import dft_pattern

FRAME = dict(n=64, l=8, l_cp=10, m=4)


def rejection(error_type, call) -> str:
    """The message of ``call``'s rejection."""
    with pytest.raises(error_type) as err:
        call()
    return str(err.value)


def rejected_name(error_type, call) -> str:
    """The parameter that ``call``'s rejection names first."""
    return re.match(r"\w+", rejection(error_type, call)).group()


def baseline_link(style="baseline"):
    geom = FrameGeometry(n_z=2, **FRAME)
    rng = np.random.default_rng(5)
    if style == "periodic":
        frame = build_periodic_pilots(geom, zadoff_chu(geom.l), rng)
    else:
        frame = build_baseline_pilots(geom, rng)
    channels = sample_cir(exponential_pdp(geom.l, 1 / 3), geom.m, geom.n, rng)
    pattern = dft_pattern(geom.m)
    return frame, channels, pattern, rng


@pytest.mark.parametrize(
    "field, value",
    [("n", 0), ("n", -8), ("l", 0), ("l", 65), ("l_cp", 7), ("l_cp", 65), ("m", -1)],
)
def test_frame_rule_shared(field, value):
    bad = {**FRAME, field: value}
    callers = {
        "FrameGeometry": lambda: FrameGeometry(n_z=2, **bad),
        "NmseParams": lambda: NmseParams(epsilon=0.01, sigma2=0.1, **bad),
    }
    names = {caller: rejected_name(ParameterError, call) for caller, call in callers.items()}
    assert names == dict.fromkeys(callers, field)


@pytest.mark.parametrize("field, value", [("n_z", 1), ("n_z", 9), ("n", 60)])
def test_training_rule_shared(field, value):
    # l=8: n_z=1 leaves no lag-L pair, 9 exceeds n/l=8, and 60 is no multiple of l.
    bad = {**FRAME, "n_z": 2, field: value}
    callers = {
        "FrameGeometry": (ParameterError, lambda: FrameGeometry(**bad)),
        "validate": (ConfigError, lambda: ExperimentConfig(**bad).validate()),
    }
    if value < 2:  # without n, complexity checks n_z >= 2 only
        callers["complexity_joint"] = (
            ParameterError,
            lambda: complexity_joint(l=102, n_z=value, m=4),
        )
    heads = {caller: rejection(*entry).split()[0] for caller, entry in callers.items()}
    assert heads == dict.fromkeys(callers, f"{field}={value}")


@pytest.mark.parametrize("n_p", [24, 4, 0, 128, 7])
def test_comb_rule_shared(n_p):
    # n=64, l=8: 24 and 128 do not divide n, 4 is below l, 0 is empty and 7 is both.
    frame, channels, pattern, rng = baseline_link()
    received = transmit_frame(frame, channels, pattern, 0.0, 0.0, rng)
    pilot_idx = np.arange(n_p)  # not uniform either: the rule must reject n_p first
    callers = {
        "validate": (
            ConfigError,
            lambda: ExperimentConfig(n_z=2, n_p=n_p, estimator="both", **FRAME).validate(),
        ),
        "baseline_cfr_full": (
            ParameterError,
            lambda: baseline_cfr_full(received, frame, pattern, pilot_idx=pilot_idx),
        ),
        "complexity_cfr": (ParameterError, lambda: complexity_cfr(n=64, l=8, n_p=n_p, m=4)),
    }
    names = {caller: rejected_name(*entry) for caller, entry in callers.items()}
    assert names == dict.fromkeys(callers, "n_p")


@pytest.mark.parametrize("epsilon", [0.6, -0.5, 0.5000001, math.nan, math.inf, -math.inf])
def test_offset_rule_shared(epsilon):
    frame, channels, pattern, rng = baseline_link()
    window, *_ = baseline_link("periodic")  # sent as its training window
    fixed = {"policy": "fixed", "values": [epsilon]}
    callers = {
        "validate": (
            ConfigError,
            lambda: ExperimentConfig(n_z=2, epsilon=fixed, **FRAME).validate(),
        ),
        "transmit_frame": (
            ParameterError,
            lambda: transmit_frame(frame, channels, pattern, epsilon, 0.1, rng),
        ),
        "transmit_frame (periodic)": (
            ParameterError,
            lambda: transmit_frame(window, channels, pattern, epsilon, 0.1, rng),
        ),
        "NmseParams": (
            ParameterError,
            lambda: NmseParams(epsilon=epsilon, sigma2=0.1, **FRAME),
        ),
    }
    names = {caller: rejected_name(*entry) for caller, entry in callers.items()}
    assert names == dict.fromkeys(callers, "epsilon")


@pytest.mark.parametrize("sigma2", [-1.0, math.nan, math.inf])
def test_noise_rule_shared(sigma2):
    frame, channels, pattern, rng = baseline_link()
    window, *_ = baseline_link("periodic")
    callers = {
        "awgn": lambda: awgn(rng, (4,), sigma2, out=np.zeros(4, np.complex128)),
        "transmit_frame": lambda: transmit_frame(frame, channels, pattern, 0.0, sigma2, rng),
        "transmit_frame (periodic)": (
            lambda: transmit_frame(window, channels, pattern, 0.0, sigma2, rng)
        ),
        "NmseParams": lambda: NmseParams(epsilon=0.01, sigma2=sigma2, **FRAME),
    }
    names = {caller: rejected_name(ParameterError, call) for caller, call in callers.items()}
    assert names == dict.fromkeys(callers, "sigma2")
