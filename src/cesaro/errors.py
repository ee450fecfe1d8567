"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "MeasureValidationError",
    "ParameterError",
    "NumericsError",
    "InconclusiveGrowthError",
]


class MeasureValidationError(ValueError):
    """A measure description violates its invariants."""


class ParameterError(ValueError):
    """An argument lies outside the domain an operation is defined on."""


class NumericsError(RuntimeError):
    """A numerical procedure failed to converge or met a divergent integral.

    ``estimates`` holds the last two values the procedure produced, so
    callers can see how far apart they ended up.
    """

    def __init__(self, message: str, estimates: tuple = ()):
        super().__init__(message)
        self.estimates = tuple(estimates)


class InconclusiveGrowthError(NumericsError):
    """Too few finite samples to classify a growth trace."""
