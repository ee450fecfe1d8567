"""One exception class per CLI exit code, and the one range check for real arguments.

``ParameterError`` is exit 2 (an argument or input outside its domain) and
``NumericsError`` is exit 3 (a numerical procedure that did not settle).
``check_real`` is how every real-valued argument is held to its interval.
"""

from __future__ import annotations

import math

__all__ = [
    "ParameterError",
    "NumericsError",
    "check_real",
]


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


def check_real(name: str, x, lo: float, hi: float = math.inf, *, closed: bool = False) -> float:
    """``float(x)`` if ``lo < x < hi`` (``lo <= x < hi`` when ``closed``), else
    ``ParameterError``; the comparison is written so that NaN never passes."""
    x = float(x)
    if not (lo <= x < hi if closed else lo < x < hi):
        bracket = "[" if closed else "("
        raise ParameterError(f"{name} must lie in {bracket}{lo!r}, {hi!r}), got {x!r}")
    return x
