"""Truncated power series and measure-weighted averaging transforms.

A ``PowerSeries`` is a finite coefficient vector ``a_0 .. a_N`` standing
for an analytic function on the unit disk.  The two transforms both
multiply by moments after an averaging step on the coefficients:

* ``cesaro_mu``:   ``b_n = mu_n * sum_{k<=n} a_k``
* ``cesaro_mu_s``: ``b_n = mu_n * sum_{k<=n} gamma_ratio(n-k, s) * a_k``

where ``gamma_ratio(m, s) = Gamma(m+s) / (Gamma(s) m!)`` are the Taylor
coefficients of ``(1-z)**-s``, so ``s = 1`` reduces the second form to
the first.  ``integral_rep_eval`` evaluates the same transform through
its integral form ``integral of f(tz) (1-tz)**-s d mu(t)`` and is the
cross-check the transform tests lean on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import gammaln

from .errors import ParameterError
from .measure import MeasureSpec, moments_array
from .numerics import quad_measure

__all__ = [
    "DEFAULT_ORDER",
    "PowerSeries",
    "gamma_ratio",
    "cesaro_mu",
    "cesaro_mu_s",
    "kernel_series",
    "integral_rep_eval",
    "compose_mobius",
    "read_coefficients",
    "coefficients_text",
    "write_coefficients",
]

DEFAULT_ORDER = 400


def _horner(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    result = np.zeros_like(z)
    for c in coeffs[::-1]:
        result *= z
        result += c
    return result


@dataclass(frozen=True, eq=False)
class PowerSeries:
    """Coefficients ``a_0 .. a_N`` of a polynomial on the unit disk."""

    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.atleast_1d(np.asarray(self.coeffs, dtype=np.complex128))
        if arr.ndim != 1 or arr.size == 0:
            raise ParameterError("coefficients must form a nonempty 1-d sequence")
        if not np.all(np.isfinite(arr)):
            raise ParameterError("coefficients must be finite")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @classmethod
    def constant(cls, value: complex = 1.0) -> "PowerSeries":
        return cls(np.asarray([value]))

    @classmethod
    def monomial(cls, degree: int, coefficient: complex = 1.0) -> "PowerSeries":
        if degree < 0:
            raise ParameterError(f"degree must be nonnegative, got {degree}")
        arr = np.zeros(degree + 1, dtype=np.complex128)
        arr[degree] = coefficient
        return cls(arr)

    @property
    def order(self) -> int:
        return self.coeffs.size - 1

    def padded(self, order: int) -> np.ndarray:
        """Coefficient vector cut or zero-extended to length ``order + 1``."""
        if order < 0:
            raise ParameterError(f"order must be nonnegative, got {order}")
        out = np.zeros(order + 1, dtype=np.complex128)
        keep = min(order, self.order) + 1
        out[:keep] = self.coeffs[:keep]
        return out

    def eval(self, z):
        """Value at points strictly inside the unit disk; scalar in, scalar out."""
        arr = np.asarray(z, dtype=np.complex128)
        if arr.size and float(np.max(np.abs(arr))) >= 1.0:
            raise ParameterError("evaluation points must satisfy |z| < 1")
        out = _horner(self.coeffs, arr)
        if arr.ndim == 0:
            return complex(out)
        return out

    __call__ = eval

    def derivative(self) -> "PowerSeries":
        if self.order == 0:
            return PowerSeries(np.zeros(1))
        n = np.arange(1, self.order + 1)
        return PowerSeries(self.coeffs[1:] * n)

    def tail_bound(self, r: float) -> float:
        """Geometric bound on the mass dropped past the truncation order.

        Worst-case sum of ``|a| * r**n`` over ``n > order`` assuming later
        coefficients do not exceed the largest retained one; a quick check
        that an evaluation radius ``r`` is safe for this truncation.
        """
        if not (0.0 <= r < 1.0):
            raise ParameterError(f"radius must lie in [0, 1), got {r!r}")
        top = float(np.max(np.abs(self.coeffs)))
        return top * r ** (self.order + 1) / (1.0 - r)


def gamma_ratio(n, s: float):
    """``Gamma(n+s) / (Gamma(s) n!)``, the coefficients of ``(1-z)**-s``.

    Vectorized over ``n``; grows like ``n**(s-1)`` up to the constant
    ``1/Gamma(s)``, and equals 1 identically at ``s = 1``.
    """
    s = float(s)
    if not s > 0.0:
        raise ParameterError(f"s must be positive, got {s!r}")
    arr = np.asarray(n, dtype=float)
    if arr.size and float(np.min(arr)) < 0:
        raise ParameterError("n must be nonnegative")
    out = np.exp(gammaln(arr + s) - gammaln(s) - gammaln(arr + 1.0))
    if arr.ndim == 0:
        return float(out)
    return out


def _check_transform_args(mu: MeasureSpec, order: int) -> int:
    if order < 0:
        raise ParameterError(f"order must be nonnegative, got {order}")
    return int(order)


def cesaro_mu(f: PowerSeries, mu: MeasureSpec, order: int = DEFAULT_ORDER) -> PowerSeries:
    """Averaging transform ``b_n = mu_n * (a_0 + ... + a_n)``."""
    order = _check_transform_args(mu, order)
    partial = np.cumsum(f.padded(order))
    return PowerSeries(moments_array(mu, order) * partial)


def cesaro_mu_s(
    f: PowerSeries, mu: MeasureSpec, s: float, order: int = DEFAULT_ORDER
) -> PowerSeries:
    """Weighted transform ``b_n = mu_n * sum_k gamma_ratio(n-k, s) a_k``."""
    order = _check_transform_args(mu, order)
    kern = gamma_ratio(np.arange(order + 1), s)
    mixed = np.convolve(f.padded(order), kern)[: order + 1]
    return PowerSeries(moments_array(mu, order) * mixed)


def kernel_series(mu: MeasureSpec, s: float, order: int = DEFAULT_ORDER) -> PowerSeries:
    """Series with coefficients ``gamma_ratio(n, s) * mu_n``.

    This is the transform of the constant 1 and also the Taylor expansion
    of ``integral of (1-tz)**-s d mu(t)``; its coefficient decay encodes
    whether ``mu`` satisfies the order-``s`` tail condition.
    """
    order = _check_transform_args(mu, order)
    kern = gamma_ratio(np.arange(order + 1), s)
    return PowerSeries(kern * moments_array(mu, order))


def integral_rep_eval(
    f: PowerSeries,
    mu: MeasureSpec,
    s: float,
    z: complex,
) -> complex:
    """Evaluate the transform via ``integral of f(tz) (1-tz)**-s d mu(t)``.

    Agrees with ``cesaro_mu_s(f, mu, s).eval(z)`` up to truncation once
    the transform order is large enough for the evaluation radius.
    """
    s = float(s)
    if not s > 0.0:
        raise ParameterError(f"s must be positive, got {s!r}")
    z = complex(z)
    if not abs(z) < 1.0:
        raise ParameterError("evaluation point must satisfy |z| < 1")

    def g(t: np.ndarray) -> np.ndarray:
        tz = t * z
        return _horner(f.coeffs, tz) * (1.0 - tz) ** (-s)

    return complex(quad_measure(g, mu))


def compose_mobius(
    f: PowerSeries, b: complex, order: int | None = None, samples: int = 4096
) -> PowerSeries:
    """Taylor coefficients of ``f((b - z) / (1 - conj(b) z))``.

    ``f`` is a polynomial, so the composition is analytic on a disk of
    radius ``1/|b| > 1`` and its coefficients come cleanly off a DFT of
    samples on the unit circle.
    """
    b = complex(b)
    if abs(b) >= 1.0:
        raise ParameterError("|b| must be below 1")
    if order is None:
        order = f.order
    if order < 0:
        raise ParameterError(f"order must be nonnegative, got {order}")
    if samples <= order:
        raise ParameterError(f"need more than {order} samples, got {samples}")
    w = np.exp(2j * np.pi * np.arange(samples) / samples)
    points = (b - w) / (1.0 - np.conj(b) * w)
    vals = _horner(f.coeffs, points)
    coeffs = np.fft.fft(vals) / samples
    return PowerSeries(coeffs[: order + 1])


def read_coefficients(path: str | Path) -> PowerSeries:
    """Load a series from a text file with one ``<re> <im>`` pair per line."""
    coeffs = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ParameterError(
                    f"{path}:{lineno}: expected '<re> <im>', got {line!r}"
                )
            try:
                re_part, im_part = float(parts[0]), float(parts[1])
            except ValueError as exc:
                raise ParameterError(f"{path}:{lineno}: {exc}") from exc
            coeffs.append(complex(re_part, im_part))
    if not coeffs:
        raise ParameterError(f"{path}: no coefficients found")
    return PowerSeries(np.asarray(coeffs))


def coefficients_text(f: PowerSeries) -> str:
    return "".join(f"{float(c.real)!r} {float(c.imag)!r}\n" for c in f.coeffs)


def write_coefficients(f: PowerSeries, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(coefficients_text(f))
