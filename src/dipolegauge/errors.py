"""Exception types shared across the package."""

__all__ = [
    "BchOrderViolationError",
    "ConfigError",
    "DegenerateSeparationError",
    "OracleTooLargeError",
    "PathSingularityError",
]


class DegenerateSeparationError(ValueError):
    """Two points that must be distinct coincide, so a 1/r^3 kernel blows up."""


class BchOrderViolationError(ValueError):
    """The generator pair is not commutator-central.

    The closed-form conjugation identities used here assume the nested
    commutator [X, [X, Y]] vanishes identically; when it does not, the
    truncated series would silently drop real terms, so we refuse instead.
    """


class OracleTooLargeError(ValueError):
    """A truncated-Fock matrix would exceed operator_algebra.FOCK_DIM_CAP."""


class PathSingularityError(ValueError):
    """An integration path enters the exclusion zone around a field point."""

    def __init__(self, message: str, segment_index: int | None = None):
        super().__init__(message)
        self.segment_index = segment_index


class ConfigError(ValueError):
    """A run configuration failed validation before any computation started."""
