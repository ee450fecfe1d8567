"""Checks of the paper's kernel estimates and transform identities that
only the tests run, so no command compiles them.

``circle_kernel_check`` and ``two_kernel_check`` compare Parseval sums with
certified tails against the paper's growth laws and two-kernel bound;
``integral_rep_eval`` evaluates the averaging transform through its
integral form ``integral of f(tz) (1-tz)**-s d mu(t)``, the cross-check
the transform tests lean on; ``compose_mobius`` composes a series with a
disk automorphism.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from cesaro.errors import NumericsError, ParameterError, check_real
from cesaro.measure import MeasureSpec, check_order
from cesaro.numerics import quad_measure
from cesaro.series import PowerSeries, _horner, gamma_ratio
from cesaro.spaces import _fft_energy

# kernel-check series stop once a certified tail is at most this share of the
# sum; the disk sum holds 2L-point complex spectra, so it gives up sooner
KERNEL_TAIL_RTOL, CIRCLE_MAX_TERMS, DISK_MAX_TERMS = 1e-14, 1 << 21, 1 << 19
# circle samples behind compose_mobius's DFT
MOBIUS_SAMPLES = 4096


class KernelComparison(NamedTuple):
    computed: float
    predicted: float
    ratio: float


def _certified_sum(step, gap: float, cap: int, what: str) -> float:
    """Sum of a series whose ``step(L)`` gives the first ``L`` terms' sum and a
    bound on the rest relative to it; terms like ``(1-gap)**n`` need ``~32/gap``."""
    length = min(cap, max(64, 1 << int(math.log2(32.0 / gap))))
    while True:
        total, tail = step(length)
        if not math.isfinite(total):
            raise NumericsError(f"{what} overflows")
        if tail <= KERNEL_TAIL_RTOL:
            return total
        if length >= cap:
            raise NumericsError(f"{what}: tail not certified within {cap} terms")
        length *= 2


def circle_kernel_check(z: complex, beta: float) -> KernelComparison:
    """Circle average of ``|1 - z e^{-i theta}|**-(1+beta)`` vs its growth law.

    By Parseval the average is ``sum gamma_ratio(n, c)**2 |z|**(2n)``,
    ``c = (1+beta)/2``; from ``n = L`` on its terms shrink by at most
    ``q = |z|^2 max(1, (L+c)/(L+1))**2`` per step.  It is O(1) for
    ``beta < 0``, ``log 1/(1-|z|^2)`` at 0 and ``(1-|z|^2)**-beta`` above,
    so the ratio to that growth law should sit in a modest band.
    """
    x = check_real("|z|", abs(complex(z)), 0, 1, closed=True) ** 2
    beta = check_real("beta", beta, -1)
    c = 0.5 * (1.0 + beta)
    gap = 1.0 - x

    def step(length: int) -> tuple[float, float]:
        k = np.arange(1.0, length + 1.0)
        q = x * max(1.0, (length + c) / (length + 1.0)) ** 2
        with np.errstate(over="ignore", invalid="ignore"):
            # terms n = 1 .. L as one running product, a third of gamma_ratio's cost
            terms = np.cumprod(x * ((k - 1.0 + c) / k) ** 2)
            total = 1.0 + float(np.sum(terms[:-1]))
            return total, terms[-1] / (1.0 - q) / total if q < 1.0 else math.inf

    est = _certified_sum(step, gap, CIRCLE_MAX_TERMS, "circle kernel average")
    if beta > 0.0:
        predicted = gap ** (-beta)
    elif beta == 0.0:
        predicted = math.log(2.0 / gap)
    else:
        predicted = 1.0
    return KernelComparison(computed=est, predicted=predicted, ratio=est / predicted)


class KernelBoundCheck(NamedTuple):
    computed: float
    bound: float
    ratio: float


def two_kernel_check(a: complex, b: complex, s: float, r: float, t: float) -> KernelBoundCheck:
    """Disk integral of ``(1-|z|^2)^s / (|1-conj(a)z|^r |1-conj(b)z|^t)``.

    Compared against the closed-form bound of the two-singularity
    estimate: with ``r + t - s - 2 > 0``, either both exponents sit
    below ``2+s`` and the bound is ``|1-conj(a)b|**-(r+t-s-2)``, or
    ``t < 2+s < r`` and it is ``(1-|a|^2)**(2+s-r) |1-conj(a)b|**-t``.
    The integral is ``sum |F_n|^2 B(n+1, s+1)`` for the analytic
    ``F = (1-conj(a)z)^(-r/2) (1-conj(b)z)^(-t/2)``, one FFT convolution of
    two ``gamma_ratio`` sequences; on ``|z| = R < 1/max(|a|,|b|)``,
    ``|F| <= M = (1-|a|R)^(-r/2) (1-|b|R)^(-t/2)``, so ``|F_n| <= M R**-n``
    and the falling Beta weights certify the tail from ``n = L`` on.
    """
    a, b = complex(a), complex(b)
    check_real("|a|", abs(a), 0, 1, closed=True)
    check_real("|b|", abs(b), 0, 1, closed=True)
    s = check_real("s", s, -1)
    # the bound takes t < 2+s, and r on either side of 2+s but not on it
    edge = 2.0 + s
    t = check_real("t", t, 0, edge)
    r = check_real("r", r, *((0, edge) if r <= edge else (edge, math.inf)))
    gap = check_real("r + t - s - 2", r + t - s - 2.0, 0)
    if r < edge:
        bound = abs(1.0 - np.conj(a) * b) ** (-gap)
    else:
        bound = (1.0 - abs(a) ** 2) ** (edge - r) * abs(1.0 - np.conj(a) * b) ** (-t)
    # turning z by arg(a) leaves every |F_n| alone and makes the a-factor real
    phase = float(np.angle(b.conjugate() * a))
    rho = max(abs(a), abs(b))

    def step(length: int) -> tuple[float, float]:
        k = np.arange(length, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            fa = gamma_ratio(k, 0.5 * r) * abs(a) ** k
            fb = gamma_ratio(k, 0.5 * t) * abs(b) ** k * np.exp(1j * phase * k)
            beta = 1.0 / ((k + s + 1.0) * gamma_ratio(k, s + 1.0))  # B(k+1, s+1)
            scale = float(np.linalg.norm(fa) * np.linalg.norm(fb))
            spectra = np.fft.fft(fa, 2 * length), np.fft.fft(fb, 2 * length)
        total = _fft_energy(*spectra, beta, scale, "two-kernel disk integral")
        # any R < 1/max(|a|,|b|) will do; near it the bound is sharpest
        radius = (1.0 - 0.5 * (r + t) / length) / max(rho, 0.5)
        if radius <= 1.0:
            return total, math.inf
        log_m = -0.5 * (r * math.log1p(-abs(a) * radius) + t * math.log1p(-abs(b) * radius))
        log_b = math.lgamma(length + 1.0) + math.lgamma(s + 1.0) - math.lgamma(length + s + 2.0)
        log_tail = log_b + 2.0 * log_m - 2.0 * length * math.log(radius) - math.log1p(-radius ** -2)
        return total, math.exp(min(log_tail - math.log(total), 0.0))

    est = _certified_sum(step, 1.0 - rho * rho, DISK_MAX_TERMS, "two-kernel disk integral")
    return KernelBoundCheck(computed=est, bound=float(bound), ratio=est / float(bound))


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
    s = check_real("s", s, 0)
    z = complex(z)
    check_real("|z|", abs(z), 0, 1, closed=True)

    def g(u) -> list[complex]:
        tz = (1.0 - np.asarray(u)) * z
        return (_horner(f.coeffs, tz) * (1.0 - tz) ** (-s)).tolist()

    return complex(quad_measure(g, mu))


def compose_mobius(f: PowerSeries, b: complex, order: int | None = None) -> PowerSeries:
    """Taylor coefficients of ``f((b - z) / (1 - conj(b) z))``.

    ``f`` is a polynomial, so the composition is analytic on a disk of
    radius ``1/|b| > 1`` and its coefficients come cleanly off a DFT of
    ``MOBIUS_SAMPLES`` samples on the unit circle.
    """
    b = complex(b)
    check_real("|b|", abs(b), 0, 1, closed=True)
    order = f.order if order is None else check_order(order)
    if order >= MOBIUS_SAMPLES:
        raise ParameterError(f"order must stay below {MOBIUS_SAMPLES}, got {order}")
    w = np.exp(2j * np.pi * np.arange(MOBIUS_SAMPLES) / MOBIUS_SAMPLES)
    points = (b - w) / (1.0 - np.conj(b) * w)
    vals = _horner(f.coeffs, points)
    coeffs = np.fft.fft(vals) / MOBIUS_SAMPLES
    return PowerSeries(coeffs[: order + 1])
