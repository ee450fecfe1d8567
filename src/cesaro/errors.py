"""One exception class per CLI exit code, and the one range check each for real
and integer arguments.

``ParameterError`` is exit 2 (an argument or input outside its domain) and
``NumericsError`` is exit 3 (a numerical procedure that did not settle).
``check_real`` is how every real-valued argument is held to its interval, and
``check_int`` how every integer argument is.
"""

from __future__ import annotations

import math

__all__ = [
    "ParameterError",
    "NumericsError",
    "check_real",
    "check_int",
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
    """``float(x)`` if ``x`` is a real number with ``lo < x < hi`` (``lo <= x < hi``
    when ``closed``), else ``ParameterError``, which shows ``x`` as given if it is a
    bool, a string, bytes or anything ``float()`` rejects or overflows on (a list,
    ``10**400``); the comparison is written so that NaN never passes."""
    try:
        value = math.nan if isinstance(x, (bool, str, bytes)) else float(x)
    except (TypeError, ValueError, OverflowError):
        value = math.nan
    if not (lo <= value < hi if closed else lo < value < hi):
        bracket = "[" if closed else "("
        shown = x if math.isnan(value) else value
        raise ParameterError(f"{name} must lie in {bracket}{lo!r}, {hi!r}), got {shown!r}")
    return value


def check_int(name: str, n, lo: int, hi: float = math.inf) -> int:
    """``n.__index__()`` if ``n`` is an integer in ``[lo, hi]``: an int or a NumPy
    integer (anything with ``__index__``), not a bool; else ``ParameterError``."""
    k = n.__index__() if hasattr(n, "__index__") and not isinstance(n, bool) else None
    if k is None or not lo <= k <= hi:
        raise ParameterError(f"{name} must be an integer in [{lo}, {hi}], got {n!r}")
    return k
