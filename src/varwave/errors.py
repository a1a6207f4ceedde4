"""Exception taxonomy shared by the solver modules.

Each class maps to one failure mode of the numerical contracts; the CLI
translates them into process exit codes (see cli._EXIT_BY_ERROR).
"""


class VarwaveError(Exception):
    """Base class for all package-specific failures."""


class ConfigError(VarwaveError):
    """Malformed or inconsistent run configuration."""


class DomainError(VarwaveError):
    """Query or characteristic left the truncated spatial domain."""


class DegeneracyError(VarwaveError):
    """Order parameter s reached zero; polar variables are singular there."""


class NonContractionError(VarwaveError):
    """Fixed-point iteration failed to contract within the allowed iterations."""

    def __init__(self, msg, diff_norms=None):
        super().__init__(msg)
        self.diff_norms = list(diff_norms or [])


class WavebreakingError(VarwaveError):
    """A marker Jacobian hit zero: derivative blow-up detected."""

    def __init__(self, msg, marker_index=None):
        super().__init__(msg)
        self.marker_index = marker_index


class StateEscapeError(VarwaveError):
    """|zeta| reached 1: outside the admissible range of the potential."""


class AprioriViolationError(VarwaveError):
    """A monitored run exceeded its certified a priori bound."""

    def __init__(self, msg, time=None, value=None, bound=None):
        super().__init__(msg)
        self.time = time
        self.value = value
        self.bound = bound
