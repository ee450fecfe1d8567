"""Seminorm estimators for analytic-function spaces on the disk.

Everything here estimates a supremum over the disk by sweeping dyadic
radii ``1 - 2**-j`` and recording a per-level trace.  An estimate is
``converged`` when its running supremum moved less than 2% over the last
level; the invariant-metric estimator computes each probe exactly in
coefficient space and also needs every probe's truncation tail
certified.  ``coeff_decay_test`` classifies coefficient growth instead,
reusing the dyadic slope machinery from ``numerics``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NumericsError, ParameterError
from .numerics import (
    GrowthReport,
    classify_growth,
    disk_grid,
    dyadic_radii,
)
from .series import PowerSeries, _horner, gamma_ratio

__all__ = [
    "SeminormEstimate",
    "Mp",
    "bloch_seminorm",
    "qp_seminorm",
    "lambda_norm",
    "coeff_decay_test",
    "hinf_norm",
    "KernelComparison",
    "circle_kernel_check",
    "KernelBoundCheck",
    "two_kernel_check",
]

# relative movement of the running supremum below which a trace counts
# as settled; also the grid-agreement tolerance for two_kernel_check
SUP_CONVERGENCE_RTOL = 0.02

# qp_seminorm cuts each probe's series once a certified bound on its last
# quarter is at most this share of the energy, and gives up at QP_MAX_TERMS
QP_TAIL_RTOL = 1e-13
QP_MAX_TERMS = 1 << 20
# largest share of a probe energy that the bound on FFT round-off may reach
QP_ROUNDOFF_RTOL = 1e-3


@dataclass(frozen=True)
class SeminormEstimate:
    """A supremum estimate with its dyadic-level trace.

    ``value`` is the maximum of ``trace``; ``converged`` means the
    running supremum settled within 2% by the last level, so the sup was
    attained inside the probed region rather than still growing at its
    edge.
    """

    value: float
    levels: tuple[int, ...]
    trace: tuple[float, ...]
    converged: bool
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "levels": list(self.levels),
            "trace": list(self.trace),
            "converged": self.converged,
            "notes": list(self.notes),
        }


def _running_sup_settled(trace: np.ndarray, rel: float = SUP_CONVERGENCE_RTOL) -> bool:
    if trace.size < 2 or not np.all(np.isfinite(trace)):
        return False
    running = np.maximum.accumulate(trace)
    last, prev = float(running[-1]), float(running[-2])
    if last == 0.0:
        return True
    return (last - prev) <= rel * last


def Mp(
    f: PowerSeries,
    r: float,
    p: float,
    *,
    start_angles: int = 64,
    rtol: float = 1e-8,
    max_angles: int = 1 << 17,
) -> float:
    """Integral mean ``(average of |f|**p over the circle |z|=r)**(1/p)``.

    Uniform angular sampling is the trapezoid rule for periodic
    integrands, so the angle count doubles until two estimates agree to
    ``rtol``; running out of angles raises ``NumericsError``.
    """
    r = float(r)
    p = float(p)
    if not (0.0 <= r < 1.0):
        raise ParameterError(f"radius must lie in [0, 1), got {r!r}")
    if not p >= 1.0:
        raise ParameterError(f"integral-mean exponent must be >= 1, got {p!r}")
    prev = None
    est = None
    m = start_angles
    while m <= max_angles:
        z = r * np.exp(2j * np.pi * np.arange(m) / m)
        new = float(np.mean(np.abs(_horner(f.coeffs, z)) ** p) ** (1.0 / p))
        if est is not None and abs(new - est) <= rtol * max(new, est):
            return new
        prev, est = est, new
        m *= 2
    raise NumericsError(
        f"circle mean did not settle to rtol={rtol:g} by {max_angles} angles",
        estimates=tuple(v for v in (prev, est) if v is not None),
    )


def _dyadic_circle_levels(depth: int, angles: int):
    # level 0 is the single point z = 0; deeper levels are full circles
    yield 0, np.asarray([0j])
    theta = 2.0 * np.pi * np.arange(angles) / angles
    for j, radius in zip(range(1, depth + 1), dyadic_radii(depth)):
        yield j, radius * np.exp(1j * theta)


def bloch_seminorm(f: PowerSeries, depth: int = 10, angles: int = 64) -> SeminormEstimate:
    """Supremum of ``(1 - |z|**2) |f'(z)|`` over a dyadic disk grid."""
    fd = f.derivative()
    trace = []
    for _, z in _dyadic_circle_levels(depth, angles):
        vals = (1.0 - np.abs(z) ** 2) * np.abs(fd.eval(z))
        trace.append(float(np.max(vals)))
    arr = np.asarray(trace)
    return SeminormEstimate(
        value=float(np.max(arr)),
        levels=tuple(range(depth + 1)),
        trace=tuple(trace),
        converged=_running_sup_settled(arr),
    )


def _qp_probe(fd: np.ndarray, a: complex, p: float) -> tuple[float, int, float]:
    """Energy at probe ``a``, the series length used and its tail fraction.

    From ``n0 = 3L/4`` on, ``|h_n| <= ||f'||_1 v_{n-len(f')+1}`` where
    ``v_k = |a|^k gamma_ratio(k, p)`` shrinks by ``rho`` per step from
    ``m = n0 - len(f') + 1`` on, so those terms lie under a geometric
    series of ratio ``rho**2``: the certified tail.
    """
    r, theta = abs(a), math.atan2(a.imag, a.real)
    l1 = float(np.sum(np.abs(fd)))
    length = 1 << math.ceil(math.log2(fd.size + 40.0 / (1.0 - r)))
    while True:
        length = min(length, QP_MAX_TERMS)
        k = np.arange(length, dtype=float)
        kern = gamma_ratio(k, p) * r ** k * np.exp(-1j * theta * k)  # (1 - conj(a) z)**-p
        beta = 1.0 / ((k + p + 1.0) * gamma_ratio(k, p + 1.0))  # B(k+1, p+1)
        with np.errstate(over="ignore", invalid="ignore"):
            h = np.fft.ifft(np.fft.fft(fd, 2 * length) * np.fft.fft(kern, 2 * length))[:length]
            total = float(np.sum(np.abs(h) ** 2 * beta))
            # FFT round-off moves each h_n by at most eps log2(2L) ||f'||_2 ||kern||_2
            err = np.finfo(float).eps * math.log2(2 * length)
            err *= np.linalg.norm(fd) * np.linalg.norm(kern)
            noise = float(np.sum((2.0 * np.abs(h) + err) * err * beta))
        if not (math.isfinite(total) and noise <= QP_ROUNDOFF_RTOL * total):
            raise NumericsError(f"probe energy at a = {a:.6g} is lost to overflow or round-off")
        n0 = 3 * length // 4
        m = n0 - fd.size + 1
        rho = r * max(1.0, (m + p) / (m + 1.0))
        if r == 0.0 or l1 == 0.0:
            tail = 0.0
        elif m < 1 or rho >= 1.0 or total == 0.0:
            tail = math.inf
        else:
            log_v = m * math.log(r) + math.lgamma(m + p) - math.lgamma(p) - math.lgamma(m + 1.0)
            log_b = math.lgamma(n0 + 1.0) + math.lgamma(p + 1.0) - math.lgamma(n0 + p + 2.0)
            log_tail = 2.0 * math.log(l1) + 2.0 * log_v + log_b - math.log1p(-rho * rho)
            tail = math.exp(min(log_tail - math.log(total), 0.0))
        if tail <= QP_TAIL_RTOL or length == QP_MAX_TERMS:
            return (1.0 - r * r) ** p * total, length, tail
        length *= 2


def qp_seminorm(f: PowerSeries, p: float, depth: int = 8, angles: int = 8) -> SeminormEstimate:
    """Invariant-metric seminorm ``sup_a integral |f'|^2 (1-|sigma_a|^2)^p dA``.

    As ``1-|sigma_a(z)|^2 = (1-|a|^2)(1-|z|^2)/|1-conj(a)z|^2`` and the
    monomials are orthogonal for ``(1-|z|^2)^p dA``, the integral at a
    probe ``a`` is exactly ``(1-|a|^2)^p sum_n |h_n|^2 B(n+1, p+1)`` with
    ``h = f' (1-conj(a)z)^-p``, one FFT convolution of ``f'`` with
    ``gamma_ratio(k, p) conj(a)^k``.  The sum is cut at a length ``L``
    starting at ``2^ceil(log2(len f' + 40/(1-|a|)))`` and doubled until
    the certified tail from ``3L/4`` on is at most ``QP_TAIL_RTOL`` of it.
    Converged means the running supremum settled and every tail was
    certified within ``QP_MAX_TERMS`` terms.
    """
    p = float(p)
    if not p > 0.0:
        raise ParameterError(f"exponent p must be positive, got {p!r}")
    fd = f.derivative().coeffs
    trace, longest, worst, uncertified = [], 0, 0.0, []
    for j, probes in _dyadic_circle_levels(depth, angles):
        best = 0.0
        for a in probes:
            energy, length, tail = _qp_probe(fd, complex(a), p)
            best = max(best, energy)
            longest = max(longest, length)
            if tail <= QP_TAIL_RTOL:
                worst = max(worst, tail)
            elif j not in uncertified:
                uncertified.append(j)
        trace.append(best)
    arr = np.asarray(trace)
    notes = [f"longest probe series {longest} terms; largest certified tail fraction {worst:.1e}"]
    if uncertified:
        notes.append(f"tail not certified within {QP_MAX_TERMS} terms at levels {uncertified}")
    return SeminormEstimate(
        value=float(np.max(arr)),
        levels=tuple(range(depth + 1)),
        trace=tuple(trace),
        converged=_running_sup_settled(arr) and not uncertified,
        notes=tuple(notes),
    )


def lambda_norm(f: PowerSeries, p: float, depth: int = 12) -> SeminormEstimate:
    """Mean-Lipschitz seminorm ``sup_r (1-r)**(1-1/p) Mp(r, f', p)``, p > 1."""
    p = float(p)
    if not p > 1.0:
        raise ParameterError(f"mean-Lipschitz exponent must exceed 1, got {p!r}")
    fd = f.derivative()
    radii = np.concatenate([[0.0], dyadic_radii(depth)])
    trace = [float((1.0 - r) ** (1.0 - 1.0 / p) * Mp(fd, r, p)) for r in radii]
    arr = np.asarray(trace)
    return SeminormEstimate(
        value=float(np.max(arr)),
        levels=tuple(range(depth + 1)),
        trace=tuple(trace),
        converged=_running_sup_settled(arr),
    )


def coeff_decay_test(f: PowerSeries) -> GrowthReport:
    """Growth of ``n * a_n`` at dyadic ``n`` for a nonincreasing sequence.

    For nonnegative nonincreasing coefficients, boundedness of this
    trace is equivalent to membership in the whole band of spaces
    between the mean-Lipschitz and Bloch ends, so one trace answers the
    membership question for all of them at once.  Non-monotone input is
    rejected: without monotonicity dyadic sampling can miss spikes.
    """
    coeffs = f.coeffs
    scale = 1.0 + float(np.max(np.abs(coeffs)))
    if float(np.max(np.abs(coeffs.imag))) > 1e-12 * scale:
        raise ParameterError("coefficient decay test needs real coefficients")
    if float(np.min(coeffs.real)) < -1e-12 * scale:
        raise ParameterError("coefficient decay test needs nonnegative coefficients")
    a = np.maximum(coeffs.real, 0.0)
    # tiny relative slack so closed-form sequences that are constant or
    # equal up to rounding are not rejected
    rises = a[1:] > a[:-1] * (1.0 + 1e-9) + 1e-300
    if bool(np.any(rises)):
        n_bad = int(np.flatnonzero(rises)[0]) + 1
        raise ParameterError(
            f"coefficients must be nonincreasing; a[{n_bad}] > a[{n_bad - 1}]"
        )
    if f.order < 8:
        raise ParameterError("need at least 8 coefficients to classify decay")
    top = int(math.floor(math.log2(f.order)))
    levels = range(top + 1)
    values = [float((1 << j) * a[1 << j]) for j in levels]
    return classify_growth(values, levels)


def hinf_norm(f: PowerSeries, angles: int = 4096, radius: float = 1.0 - 2.0 ** -12) -> float:
    """Max modulus on the circle ``|z| = radius``, a sup-norm surrogate.

    The maximum principle makes this a lower bound that converges to the
    true sup norm as the radius approaches 1; the default radius keeps
    the truncation tail of order-400 bounded-coefficient inputs below
    1e-3.
    """
    if angles < 1:
        raise ParameterError(f"angles must be positive, got {angles}")
    if not (0.0 < radius < 1.0):
        raise ParameterError(f"radius must lie in (0, 1), got {radius!r}")
    z = radius * np.exp(2j * np.pi * np.arange(angles) / angles)
    with np.errstate(over="ignore", invalid="ignore"):
        value = float(np.max(np.abs(f.eval(z))))
    if not math.isfinite(value):
        raise NumericsError(f"max modulus on |z| = {radius!r} is not finite")
    return value


class KernelComparison(NamedTuple):
    computed: float
    predicted: float
    ratio: float


def circle_kernel_check(z: complex, beta: float) -> KernelComparison:
    """Circle average of ``|1 - z e^{-i theta}|**-(1+beta)`` vs its growth law.

    The average is O(1) for ``beta < 0``, logarithmic in ``1/(1-|z|^2)``
    at ``beta = 0``, and grows like ``(1-|z|^2)**-beta`` for positive
    ``beta``; the returned ratio of computed to predicted should sit in
    a modest constant band if both sides are right.
    """
    z = complex(z)
    beta = float(beta)
    if abs(z) >= 1.0:
        raise ParameterError("|z| must be below 1")
    power = 1.0 + beta

    prev = None
    est = None
    m = 1024
    while m <= 1 << 22:
        theta = 2.0 * np.pi * np.arange(m) / m
        vals = np.abs(1.0 - z * np.exp(-1j * theta)) ** (-power)
        new = float(np.mean(vals))
        if est is not None and abs(new - est) <= 1e-6 * max(abs(new), abs(est)):
            est = new
            break
        prev, est = est, new
        m *= 2
    else:
        raise NumericsError(
            f"circle average did not settle to rtol=1e-06 by {1 << 22} angles",
            estimates=tuple(v for v in (prev, est) if v is not None),
        )

    gap = 1.0 - abs(z) ** 2
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


def two_kernel_check(
    a: complex,
    b: complex,
    s: float,
    r: float,
    t: float,
) -> KernelBoundCheck:
    """Disk integral of ``(1-|z|^2)^s / (|1-conj(a)z|^r |1-conj(b)z|^t)``.

    Compared against the closed-form bound of the two-singularity
    estimate: with ``r + t - s - 2 > 0``, either both exponents sit
    below ``2+s`` and the bound is ``|1-conj(a)b|**-(r+t-s-2)``, or
    ``t < 2+s < r`` and it is ``(1-|a|^2)**(2+s-r) |1-conj(a)b|**-t``.
    The grid doubles until two estimates agree to 2%.
    """
    a, b = complex(a), complex(b)
    if abs(a) >= 1.0 or abs(b) >= 1.0:
        raise ParameterError("|a| and |b| must be below 1")
    s, r, t = float(s), float(r), float(t)
    if not s > -1.0:
        raise ParameterError(f"weight exponent s must exceed -1, got {s!r}")
    if not (r > 0.0 and t > 0.0):
        raise ParameterError("kernel exponents r and t must be positive")
    if not r + t - s - 2.0 > 0.0:
        raise ParameterError(
            f"need r + t - s - 2 > 0 for a nontrivial bound, got {r + t - s - 2.0!r}"
        )
    edge = 2.0 + s
    if r < edge and t < edge:
        bound = abs(1.0 - np.conj(a) * b) ** (-(r + t - s - 2.0))
    elif t < edge < r:
        bound = (1.0 - abs(a) ** 2) ** (edge - r) * abs(1.0 - np.conj(a) * b) ** (-t)
    else:
        raise ParameterError(
            "exponents must satisfy max(r,t) < 2+s or t < 2+s < r; "
            f"got r={r!r}, t={t!r}, s={s!r}"
        )

    def estimate(k: int) -> float:
        grid = disk_grid(96 << k, 256 << k)
        vals = (
            (1.0 - np.abs(grid.nodes) ** 2) ** s
            / (
                np.abs(1.0 - np.conj(a) * grid.nodes) ** r
                * np.abs(1.0 - np.conj(b) * grid.nodes) ** t
            )
        )
        return float(np.sum(grid.weights * vals))

    prev = estimate(0)
    for k in range(1, 4):
        est = estimate(k)
        if abs(est - prev) <= SUP_CONVERGENCE_RTOL * max(abs(est), abs(prev)):
            return KernelBoundCheck(computed=est, bound=float(bound), ratio=est / float(bound))
        prev = est
    raise NumericsError(
        f"disk integral did not settle to {SUP_CONVERGENCE_RTOL:g} after 3 grid doublings",
        estimates=(prev, est),
    )
