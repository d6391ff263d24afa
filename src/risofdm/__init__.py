"""Link-level simulator for RIS-aided OFDM uplink channel estimation.

Builds pilot frames (frequency-domain QPSK or periodic time-domain
training), runs them through frequency-selective Rayleigh channels with a
reflecting surface, a carrier frequency offset, and AWGN, and implements
both the frequency-domain baseline channel estimator and the joint
correlation/least-squares offset-and-impulse-response estimator, together
with closed-form error and complexity models and a reproducible Monte
Carlo harness.

The package namespace holds the experiment API; the building blocks are
imported from their modules (``risofdm.estimators``, ``risofdm.link``, ...).
"""

from .errors import (
    ConfigError,
    DimensionError,
    EstimationError,
    LinkSimError,
    ParameterError,
    PilotError,
    SingularCirculantError,
    TrialError,
)
from .harness import (
    CurvePoint,
    ExperimentConfig,
    emit_csv,
    load_config,
    read_csv,
    recipe,
    run_monte_carlo,
)

__all__ = [
    "ConfigError",
    "DimensionError",
    "EstimationError",
    "LinkSimError",
    "ParameterError",
    "PilotError",
    "SingularCirculantError",
    "TrialError",
    "CurvePoint",
    "ExperimentConfig",
    "emit_csv",
    "load_config",
    "read_csv",
    "recipe",
    "run_monte_carlo",
]

__version__ = "0.1.0"
