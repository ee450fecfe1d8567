"""Truncated power series and measure-weighted averaging transforms.

A ``PowerSeries`` is a finite coefficient vector ``a_0 .. a_N`` standing
for an analytic function on the unit disk.  The two transforms both
multiply by moments after an averaging step on the coefficients:

* ``cesaro_mu``:   ``b_n = mu_n * sum_{k<=n} a_k``
* ``cesaro_mu_s``: ``b_n = mu_n * sum_{k<=n} gamma_ratio(n-k, s) * a_k``

where ``gamma_ratio(m, s) = Gamma(m+s) / (Gamma(s) m!)`` are the Taylor
coefficients of ``(1-z)**-s``, so ``s = 1`` reduces the second form to
the first.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import NumericsError, ParameterError, check_real
from .measure import DEFAULT_ORDER, MeasureSpec, check_order, moments_array
# bench/tracer.py wraps quad_measure under every module that imports it
from .numerics import quad_measure  # noqa: F401

__all__ = [
    "DEFAULT_ORDER",
    "PowerSeries",
    "gamma_ratio",
    "cesaro_mu",
    "cesaro_mu_s",
    "kernel_series",
    "read_coefficients",
    "coefficients_text",
]


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
        degree = check_order(degree)
        arr = np.zeros(degree + 1, dtype=np.complex128)
        arr[degree] = coefficient
        return cls(arr)

    @property
    def order(self) -> int:
        return self.coeffs.size - 1

    def padded(self, order: int) -> np.ndarray:
        """Coefficient vector cut or zero-extended to length ``order + 1``."""
        order = check_order(order)
        out = np.zeros(order + 1, dtype=np.complex128)
        keep = min(order, self.order) + 1
        out[:keep] = self.coeffs[:keep]
        return out

    def eval(self, z):
        """Value at points strictly inside the unit disk; scalar in, scalar out."""
        arr = np.asarray(z, dtype=np.complex128)
        if arr.size:
            check_real("|z|", np.max(np.abs(arr)), 0, 1, closed=True)
        out = _horner(self.coeffs, arr)
        if arr.ndim == 0:
            return complex(out)
        return out

    __call__ = eval

    def derivative(self) -> "PowerSeries":
        if self.order == 0:
            return PowerSeries(np.zeros(1))
        with np.errstate(over="ignore", invalid="ignore"):
            coeffs = self.coeffs[1:] * np.arange(1, self.order + 1)
        if not np.all(np.isfinite(coeffs)):
            raise NumericsError("derivative coefficients overflow")
        return PowerSeries(coeffs)


def gamma_ratio(n, s: float):
    """``Gamma(n+s) / (Gamma(s) n!)``, the coefficients of ``(1-z)**-s``.

    Vectorized over nonnegative integers ``n``, read off the running
    product ``prod_{k<=n} (k-1+s)/k``; grows like ``n**(s-1)`` up to the
    constant ``1/Gamma(s)``, and equals 1 identically at ``s = 1``.
    """
    s = check_real("s", s, 0)
    arr = np.asarray(n)
    if not np.all(np.isfinite(arr) & (arr >= 0) & (arr == np.floor(arr))):
        raise ParameterError("n must be nonnegative integers")
    k = np.arange(1.0, np.max(arr, initial=0) + 1.0)
    out = np.concatenate(([1.0], np.cumprod((k - 1.0 + s) / k)))[arr.astype(np.int64)]
    return float(out) if arr.ndim == 0 else out


def _finite_series(coeffs: np.ndarray) -> PowerSeries:
    if not np.all(np.isfinite(coeffs)):
        raise NumericsError("transform coefficients overflow")
    return PowerSeries(coeffs)


def cesaro_mu(f: PowerSeries, mu: MeasureSpec, order: int = DEFAULT_ORDER) -> PowerSeries:
    """Averaging transform ``b_n = mu_n * (a_0 + ... + a_n)``."""
    order = check_order(order)
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite_series(moments_array(mu, order) * np.cumsum(f.padded(order)))


def cesaro_mu_s(
    f: PowerSeries, mu: MeasureSpec, s: float, order: int = DEFAULT_ORDER
) -> PowerSeries:
    """Weighted transform ``b_n = mu_n sum_k gamma_ratio(n-k, s) a_k``, in O(len f * order)."""
    order = check_order(order)
    with np.errstate(over="ignore", invalid="ignore"):
        # peak memory: the kernel dies as the convolution returns; the moments multiply in place
        mixed = np.convolve(f.coeffs[: order + 1], gamma_ratio(np.arange(order + 1), s))
        mixed = mixed[: order + 1]
        mixed *= moments_array(mu, order)
        return _finite_series(mixed)


def kernel_series(mu: MeasureSpec, s: float, order: int = DEFAULT_ORDER) -> PowerSeries:
    """Series with coefficients ``gamma_ratio(n, s) * mu_n``: the transform of 1.

    This is ``cesaro_mu_s`` of the constant 1 and also the Taylor expansion
    of ``integral of (1-tz)**-s d mu(t)``; its coefficient decay encodes
    whether ``mu`` satisfies the order-``s`` tail condition.
    """
    return cesaro_mu_s(PowerSeries.constant(1.0), mu, s, order)


def read_coefficients(path: str | Path) -> PowerSeries:
    """Load a series from a text file with one ``<re> <im>`` pair per line."""
    coeffs = []
    try:
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
    except UnicodeDecodeError as exc:
        raise ParameterError(f"{path}: not UTF-8 text: {exc}") from None
    if not coeffs:
        raise ParameterError(f"{path}: no coefficients found")
    return PowerSeries(np.asarray(coeffs))


def coefficients_text(f: PowerSeries):
    """The ``<re> <im>`` lines of ``f`` in pieces of 65,536: a few MB of text at any order."""
    step = 1 << 16
    for start in range(0, f.coeffs.size, step):
        yield "".join(f"{c.real!r} {c.imag!r}\n" for c in f.coeffs[start:start + step].tolist())
