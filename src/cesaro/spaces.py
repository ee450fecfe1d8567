"""Seminorm estimators for analytic-function spaces on the disk.

Everything here estimates a supremum over the disk by sweeping dyadic
radii ``1 - 2**-j`` and recording a per-level trace.  An estimate is
``converged`` when its running supremum moved less than 2% over the last
level; the invariant-metric estimator computes each probe exactly in
coefficient space and also needs every probe's truncation tail
certified.  ``coeff_decay_test`` classifies coefficient growth instead,
reusing the dyadic slope machinery from ``numerics``.  The kernel checks
sum Parseval series with certified tails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NumericsError, ParameterError
from .numerics import GrowthReport, classify_growth, dyadic_radii
# bench/tracer.py wraps _horner under every module that imports it
from .series import PowerSeries, _horner, gamma_ratio  # noqa: F401

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

# Mp doubles its angle count from MP_START_ANGLES until two circle means
# agree to MP_RTOL, and gives up past MP_MAX_ANGLES
MP_START_ANGLES = 64
MP_RTOL = 1e-8
MP_MAX_ANGLES = 1 << 20

# dyadic depth and angles per circle of each sweep, and the hinf circle
BLOCH_DEPTH, BLOCH_ANGLES = 10, 64
QP_DEPTH, QP_ANGLES = 8, 8
LAMBDA_DEPTH = 12
HINF_RADIUS, HINF_ANGLES = 1.0 - 2.0 ** -12, 4096

# relative movement of the running supremum below which a trace has settled
SUP_CONVERGENCE_RTOL = 0.02

# qp_seminorm cuts each probe's series once a certified bound on its last
# quarter is at most this share of the energy, and gives up at QP_MAX_TERMS
QP_TAIL_RTOL = 1e-13
QP_MAX_TERMS = 1 << 20
# largest share of an FFT-convolved sum its round-off bound may reach
FFT_ROUNDOFF_RTOL = 1e-3
# kernel-check series stop once a certified tail is at most this share of the
# sum; the disk sum holds 2L-point complex spectra, so it gives up sooner
KERNEL_TAIL_RTOL, CIRCLE_MAX_TERMS, DISK_MAX_TERMS = 1e-14, 1 << 21, 1 << 19


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


def Mp(f: PowerSeries, r: float, p: float) -> float:
    """Integral mean ``(average of |f|**p over the circle |z|=r)**(1/p)``.

    Uniform angular sampling is the trapezoid rule for periodic
    integrands, so the angle count doubles from ``MP_START_ANGLES`` until
    two estimates agree to ``MP_RTOL``; running out of angles raises
    ``NumericsError``.  The ``m`` samples of a polynomial are exactly
    ``m * ifft`` of its coefficients ``c_n r**n`` folded modulo ``m``, so
    no angle count is too small for the degree.
    """
    r = float(r)
    p = float(p)
    if not (0.0 <= r < 1.0):
        raise ParameterError(f"radius must lie in [0, 1), got {r!r}")
    if not 1.0 <= p < math.inf:
        raise ParameterError(f"integral-mean exponent must be finite and >= 1, got {p!r}")
    scaled = f.coeffs * r ** np.arange(f.coeffs.size)
    prev = None
    est = None
    m = MP_START_ANGLES
    while m <= MP_MAX_ANGLES:
        with np.errstate(over="ignore", invalid="ignore"):
            folded = np.pad(scaled, (0, -scaled.size % m)).reshape(-1, m).sum(axis=0)
            # unscaled inverse FFT in place: no second m-point complex buffer
            modulus = np.abs(np.fft.ifft(folded, norm="forward", out=folded))
            # scaled by the largest sample (1 if all vanish), so the power cannot overflow
            top = float(np.max(modulus)) or 1.0
            modulus /= top
            modulus **= p
            new = top * float(np.mean(modulus) ** (1.0 / p))
        if not math.isfinite(new):
            raise NumericsError(f"circle mean at r = {r!r} is not finite")
        if est is not None and abs(new - est) <= MP_RTOL * max(new, est):
            return new
        prev, est = est, new
        m *= 2
    raise NumericsError(
        f"circle mean did not settle to rtol={MP_RTOL:g} by {MP_MAX_ANGLES} angles",
        estimates=tuple(v for v in (prev, est) if v is not None),
    )


def _dyadic_circle_levels(depth: int, angles: int):
    # level 0 is the single point z = 0; deeper levels are full circles
    yield 0, np.asarray([0j])
    theta = 2.0 * np.pi * np.arange(angles) / angles
    for j, radius in zip(range(1, depth + 1), dyadic_radii(depth)):
        yield j, radius * np.exp(1j * theta)


def bloch_seminorm(f: PowerSeries) -> SeminormEstimate:
    """Supremum of ``(1 - |z|**2) |f'(z)|`` over a dyadic disk grid."""
    fd = f.derivative()
    trace = []
    with np.errstate(over="ignore", invalid="ignore"):
        for _, z in _dyadic_circle_levels(BLOCH_DEPTH, BLOCH_ANGLES):
            trace.append(float(np.max((1.0 - np.abs(z) ** 2) * np.abs(fd.eval(z)))))
    arr = np.asarray(trace)
    if not np.all(np.isfinite(arr)):
        raise NumericsError("Bloch trace is not finite")
    return SeminormEstimate(
        value=float(np.max(arr)),
        levels=tuple(range(BLOCH_DEPTH + 1)),
        trace=tuple(trace),
        converged=_running_sup_settled(arr),
    )


def _fft_energy(x: np.ndarray, y: np.ndarray, weights: np.ndarray, what: str) -> float:
    """``sum |h_n|^2 w_n`` over the first ``len(weights)`` terms of ``h = x * y``; refuses
    a sum that overflows, or that FFT round-off (at most ``eps log2(2L) ||x|| ||y||``
    per ``h_n``) could move by ``FFT_ROUNDOFF_RTOL``."""
    n = 2 * weights.size
    with np.errstate(over="ignore", invalid="ignore"):
        spectrum = np.fft.fft(x, n)
        spectrum *= np.fft.fft(y, n)  # in place: at most two n-point spectra at once
        mod = np.abs(np.fft.ifft(spectrum, out=spectrum)[: weights.size])
        total = float(np.sum(mod ** 2 * weights))
        err = np.finfo(float).eps * math.log2(n) * np.linalg.norm(x) * np.linalg.norm(y)
        noise = float(np.sum((2.0 * mod + err) * err * weights))
    if not (math.isfinite(total) and noise <= FFT_ROUNDOFF_RTOL * total):
        raise NumericsError(f"{what} is lost to overflow or round-off")
    return total


def _qp_probe(fd: np.ndarray, a: complex, p: float) -> tuple[float, int, float]:
    """Energy at probe ``a``, the series length used and its tail fraction.

    From ``n0 = 3L/4`` on, ``|h_n| <= ||f'||_1 v_{n-len(f')+1}`` where
    ``v_k = |a|^k gamma_ratio(k, p)`` shrinks by ``rho`` per step from
    ``m = n0 - len(f') + 1`` on, so those terms lie under a geometric
    series of ratio ``rho**2``: the certified tail.
    """
    r, theta = abs(a), math.atan2(a.imag, a.real)
    with np.errstate(over="ignore"):
        l1 = float(np.sum(np.abs(fd)))
    length = 1 << math.ceil(math.log2(fd.size + 40.0 / (1.0 - r)))
    while True:
        length = min(length, QP_MAX_TERMS)
        k = np.arange(length, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            kern = gamma_ratio(k, p) * r ** k * np.exp(-1j * theta * k)  # (1 - conj(a) z)**-p
            beta = 1.0 / ((k + p + 1.0) * gamma_ratio(k, p + 1.0))  # B(k+1, p+1)
        total = _fft_energy(fd, kern, beta, f"probe energy at a = {a:.6g}")
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


def qp_seminorm(f: PowerSeries, p: float) -> SeminormEstimate:
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
    if not 0.0 < p < math.inf:
        raise ParameterError(f"exponent p must be positive and finite, got {p!r}")
    fd = f.derivative().coeffs
    trace, longest, worst, uncertified = [], 0, 0.0, []
    for j, probes in _dyadic_circle_levels(QP_DEPTH, QP_ANGLES):
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
        levels=tuple(range(QP_DEPTH + 1)),
        trace=tuple(trace),
        converged=_running_sup_settled(arr) and not uncertified,
        notes=tuple(notes),
    )


def lambda_norm(f: PowerSeries, p: float) -> SeminormEstimate:
    """Mean-Lipschitz seminorm ``sup_r (1-r)**(1-1/p) Mp(r, f', p)``, p > 1."""
    p = float(p)
    if not 1.0 < p < math.inf:
        raise ParameterError(f"mean-Lipschitz exponent must be finite and exceed 1, got {p!r}")
    fd = f.derivative()
    radii = np.concatenate([[0.0], dyadic_radii(LAMBDA_DEPTH)])
    trace = [float((1.0 - r) ** (1.0 - 1.0 / p) * Mp(fd, r, p)) for r in radii]
    arr = np.asarray(trace)
    return SeminormEstimate(
        value=float(np.max(arr)),
        levels=tuple(range(LAMBDA_DEPTH + 1)),
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


def hinf_norm(f: PowerSeries) -> float:
    """Max modulus on the circle ``|z| = HINF_RADIUS``, a sup-norm surrogate.

    The maximum principle makes this a lower bound that converges to the
    true sup norm as the radius approaches 1; ``1 - 2**-12`` keeps the
    truncation tail of order-400 bounded-coefficient inputs below 1e-3.
    """
    z = HINF_RADIUS * np.exp(2j * np.pi * np.arange(HINF_ANGLES) / HINF_ANGLES)
    with np.errstate(over="ignore", invalid="ignore"):
        value = float(np.max(np.abs(f.eval(z))))
    if not math.isfinite(value):
        raise NumericsError(f"max modulus on |z| = {HINF_RADIUS!r} is not finite")
    return value


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
    z = complex(z)
    beta = float(beta)
    if not (abs(z) < 1.0 and -1.0 < beta < math.inf):
        raise ParameterError(f"need |z| < 1 and finite beta > -1, got z={z!r}, beta={beta!r}")
    c, x = 0.5 * (1.0 + beta), abs(z) ** 2
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
    s, r, t = float(s), float(r), float(t)
    if not (abs(a) < 1.0 and abs(b) < 1.0):
        raise ParameterError("|a| and |b| must be below 1")
    if not (-1.0 < s < math.inf and 0.0 < r < math.inf and 0.0 < t < math.inf):
        raise ParameterError(f"need finite s > -1 and r, t > 0, got s={s!r}, r={r!r}, t={t!r}")
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
    # turning z by arg(a) leaves every |F_n| alone and makes the a-factor real
    phase = float(np.angle(b.conjugate() * a))
    rho = max(abs(a), abs(b))

    def step(length: int) -> tuple[float, float]:
        k = np.arange(length, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            fa = gamma_ratio(k, 0.5 * r) * abs(a) ** k
            fb = gamma_ratio(k, 0.5 * t) * abs(b) ** k * np.exp(1j * phase * k)
            beta = 1.0 / ((k + s + 1.0) * gamma_ratio(k, s + 1.0))  # B(k+1, s+1)
        total = _fft_energy(fa, fb, beta, "two-kernel disk integral")
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
