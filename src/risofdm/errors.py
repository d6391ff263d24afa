"""Exception types shared across the simulator."""


class LinkSimError(Exception):
    """Base class for all simulator errors."""


class DimensionError(LinkSimError, ValueError):
    """Array arguments do not have the shapes an operation requires."""


class ParameterError(LinkSimError, ValueError):
    """A scalar parameter is outside its valid domain."""


class PilotError(LinkSimError, ValueError):
    """A pilot sequence is unusable (zero symbol, singular circulant, ...)."""


class SingularCirculantError(PilotError):
    """A pilot circulant is singular or numerically near-singular.

    Carries the block whose training sequence builds it, the index of the
    offending DFT eigenvalue and its magnitude, so that a misconfigured
    pilot can be traced to the dead bin.
    """

    def __init__(self, block: int, index: int, magnitude: float, threshold: float):
        self.block = block
        self.index = index
        self.magnitude = magnitude
        self.threshold = threshold
        super().__init__(
            f"training sequence for block {block} has a (near-)singular circulant: "
            f"eigenvalue {index} has magnitude {magnitude:.3e} below threshold {threshold:.3e}"
        )


class EstimationError(LinkSimError, RuntimeError):
    """An estimator cannot produce a value (e.g. exactly zero correlation)."""


class ConfigError(LinkSimError, ValueError):
    """An experiment configuration is invalid."""


class TrialError(LinkSimError, RuntimeError):
    """A Monte Carlo trial aborted; carries enough context to reproduce it."""

    def __init__(self, point_index: int, trial_index: int, base_seed: int, cause: Exception):
        self.point_index = point_index
        self.trial_index = trial_index
        self.base_seed = base_seed
        self.cause = cause
        super().__init__(
            f"trial {trial_index} of grid point {point_index} failed "
            f"(base_seed={base_seed}, spawn_key=({point_index}, {trial_index})): {cause!r}"
        )
