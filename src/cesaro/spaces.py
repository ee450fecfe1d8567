"""Seminorm estimators for analytic-function spaces on the disk.

Everything here estimates a supremum over the disk by sweeping dyadic
radii ``1 - 2**-j`` and recording a per-level trace.  Whether an estimate
has settled is decided in one place, ``SeminormEstimate``, by the settle
rule ``numerics.sup_rise``: ``converged`` when the running supremum rose by
at most ``SUP_CONVERGENCE_RTOL`` over the last level and the estimator
``certified`` its own evidence.  The invariant-metric estimator computes
each probe exactly in coefficient space and certifies every probe's
truncation tail.  ``hinf_norm`` samples the unit circle alone, where a
polynomial's supremum over the disk lies, and certifies its angle count.
``coeff_decay_test`` classifies coefficient growth instead, reusing the
dyadic slope machinery from ``numerics``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericsError, ParameterError, check_real
from .numerics import SUP_CONVERGENCE_RTOL, GrowthReport, classify_growth, dyadic_radii, sup_rise
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
]

# Mp doubles its angle count from the first power of two above the degree
# until two circle means agree to MP_RTOL, and gives up past MP_MAX_ANGLES
MP_RTOL = 1e-8
MP_MAX_ANGLES = 1 << 20

# dyadic depth and angles per circle of each sweep, and the fewest hinf angles
BLOCH_DEPTH, BLOCH_ANGLES = 10, 64
QP_DEPTH, QP_ANGLES = 8, 8
LAMBDA_DEPTH = 12
HINF_ANGLES = 4096

# qp_seminorm cuts each probe's series once a certified bound on its last
# quarter is at most this share of the energy, and gives up at QP_MAX_TERMS
QP_TAIL_RTOL = 1e-13
QP_MAX_TERMS = 1 << 20
# largest share of an FFT-convolved sum its round-off bound may reach
FFT_ROUNDOFF_RTOL = 1e-3


@dataclass(frozen=True)
class SeminormEstimate:
    """A supremum estimate with its dyadic-level trace.

    ``levels`` numbers the trace from 0 and ``value`` is its maximum.
    ``rise`` and ``rise_level`` are ``numerics.sup_rise`` over the last
    level: how far the running supremum still moved at the edge of the
    probed region.  ``certified`` is the estimator's own evidence (for
    ``qp_seminorm``: every tail certified; for ``hinf_norm``: that its
    samples bound the supremum within 1%).  ``converged`` means both: a
    rise of at most ``SUP_CONVERGENCE_RTOL`` and ``certified``.  A
    one-level trace has no rise, so ``certified`` alone decides it.
    """

    trace: tuple[float, ...]
    certified: bool = True
    notes: tuple[str, ...] = ()
    levels: tuple[int, ...] = field(init=False)
    value: float = field(init=False)
    rise: float = field(init=False)
    rise_level: int = field(init=False)
    converged: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(range(len(self.trace))))
        object.__setattr__(self, "value", max(self.trace))
        rise, k = sup_rise(self.trace, 1)
        object.__setattr__(self, "rise", rise)
        object.__setattr__(self, "rise_level", k)
        object.__setattr__(self, "converged", rise <= SUP_CONVERGENCE_RTOL and self.certified)


def _circle_samples(coeffs: np.ndarray, r: float, m: int) -> np.ndarray:
    """Values of ``sum c_n z^n`` at ``z = r e^{2 pi i k/m}``, ``k = 0 .. m-1``.

    They are exactly the unscaled ``m``-point inverse FFT of ``c_n r**n``
    folded modulo ``m``, so no angle count is too small for the degree;
    an overflow comes back as non-finite samples.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = coeffs * r ** np.arange(coeffs.size)
        folded = np.pad(scaled, (0, -scaled.size % m)).reshape(-1, m).sum(axis=0)
        # unscaled inverse FFT in place: no second m-point complex buffer
        return np.fft.ifft(folded, norm="forward", out=folded)


def Mp(f: PowerSeries, r: float, p: float) -> float:
    """Integral mean ``(average of |f|**p over the circle |z|=r)**(1/p)``.

    Uniform angular sampling is the trapezoid rule for periodic
    integrands, so the angle count doubles from the smallest power of two
    above ``deg f`` (at most ``MP_MAX_ANGLES // 2``, leaving one doubling)
    until two estimates agree to ``MP_RTOL``; running out of angles raises
    ``NumericsError``.  Each circle is sampled by ``_circle_samples``.
    """
    r = check_real("r", r, 0, 1, closed=True)
    p = check_real("p", p, 1, closed=True)
    prev = None
    est = None
    m = min(1 << f.order.bit_length(), MP_MAX_ANGLES // 2)
    while m <= MP_MAX_ANGLES:
        modulus = np.abs(_circle_samples(f.coeffs, r, m))
        with np.errstate(over="ignore", invalid="ignore"):
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


def bloch_seminorm(f: PowerSeries) -> SeminormEstimate:
    """Supremum of ``(1 - |z|**2) |f'(z)|`` over ``z = 0`` and ``BLOCH_ANGLES``
    angles on each dyadic radius, every circle sampled by ``_circle_samples``."""
    fd = f.derivative().coeffs
    radii = np.concatenate([[0.0], dyadic_radii(BLOCH_DEPTH)])
    arr = np.asarray([(1.0 - r * r) * np.max(np.abs(_circle_samples(fd, r, BLOCH_ANGLES)))
                      for r in radii])
    if not np.all(np.isfinite(arr)):
        raise NumericsError("Bloch trace is not finite")
    return SeminormEstimate(trace=tuple(float(v) for v in arr))


def _fft_energy(x_spec, y_spec, weights: np.ndarray, scale: float, what: str) -> float:
    """``sum |h_n|^2 w_n`` over the first ``len(weights)`` terms of ``h = x * y``, from
    the spectra of ``x`` and ``y`` (``x_spec`` is overwritten); refuses a sum that
    overflows, or that FFT round-off (at most ``eps log2(2L) scale`` per ``h_n``, with
    ``scale = ||x|| ||y||``) could move by ``FFT_ROUNDOFF_RTOL``."""
    with np.errstate(over="ignore", invalid="ignore"):
        x_spec *= y_spec  # in place, like the inverse FFT: no further 2L-point buffer
        mod = np.abs(np.fft.ifft(x_spec, out=x_spec)[: weights.size])
        total = float(np.sum(mod ** 2 * weights))
        err = np.finfo(float).eps * math.log2(x_spec.size) * scale
        noise = float(np.sum((2.0 * mod + err) * err * weights))
    if not (math.isfinite(total) and noise <= FFT_ROUNDOFF_RTOL * total):
        raise NumericsError(f"{what} is lost to overflow or round-off")
    return total


def _qp_level(fd: np.ndarray, r: float, p: float, angles: int) -> list[tuple[float, int, float]]:
    """Energy, series length and tail fraction at each probe ``a = r e^{2 pi i j/angles}``.

    Turning ``f'`` by ``e^{i theta m}`` leaves ``|h_n|`` alone and makes the
    kernel the real ``K_k = gamma_ratio(k, p) r^k``; at ``theta = 2 pi j/angles``
    it rolls the ``2L``-point spectrum of ``f'`` by ``2Lj/angles`` bins (whole,
    as ``angles`` is a power of two and ``2L >= 128``).  So a series length
    costs the spectra of ``f'`` and ``K`` plus one inverse FFT per probe, and
    only probes with an uncertified tail are redone at ``2L``.
    From ``n0 = 3L/4`` on, ``|h_n| <= ||f'||_1 v_{n-len(f')+1}`` where
    ``v_k = r^k gamma_ratio(k, p)`` shrinks by ``rho`` per step from
    ``m = n0 - len(f') + 1`` on, so those terms lie under a geometric
    series of ratio ``rho**2``: the certified tail.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        l1, fd_norm = float(np.sum(np.abs(fd))), float(np.linalg.norm(fd))
    found, pending = [None] * angles, range(angles)
    length = 1 << math.ceil(math.log2(fd.size + 40.0 / (1.0 - r)))
    while pending:
        length = min(length, QP_MAX_TERMS)
        k = np.arange(length, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            kern = gamma_ratio(k, p) * r ** k  # (1 - r z)**-p
            beta = 1.0 / ((k + p + 1.0) * gamma_ratio(k, p + 1.0))  # B(k+1, p+1)
            scale = fd_norm * float(np.linalg.norm(kern))
            fd_spec, kern_spec = np.fft.fft(fd, 2 * length), np.fft.fft(kern, 2 * length)
        n0 = 3 * length // 4
        m = n0 - fd.size + 1
        rho = r * max(1.0, (m + p) / (m + 1.0))
        if r == 0.0 or l1 == 0.0:
            log_tail = -math.inf
        elif m < 1 or rho >= 1.0:
            log_tail = math.inf
        else:
            log_v = m * math.log(r) + math.lgamma(m + p) - math.lgamma(p) - math.lgamma(m + 1.0)
            log_b = math.lgamma(n0 + 1.0) + math.lgamma(p + 1.0) - math.lgamma(n0 + p + 2.0)
            log_tail = 2.0 * math.log(l1) + 2.0 * log_v + log_b - math.log1p(-rho * rho)
        for j in pending:
            a = r * np.exp(2j * np.pi * j / angles)
            total = _fft_energy(np.roll(fd_spec, 2 * length * j // angles), kern_spec, beta,
                                scale, f"probe energy at a = {a:.6g}")
            if log_tail == -math.inf:
                tail = 0.0
            else:
                tail = math.exp(min(log_tail - math.log(total), 0.0)) if total else math.inf
            if tail <= QP_TAIL_RTOL or length == QP_MAX_TERMS:
                found[j] = ((1.0 - r * r) ** p * total, length, tail)
        pending = [j for j in pending if found[j] is None]
        length *= 2
    return found


def qp_seminorm(f: PowerSeries, p: float) -> SeminormEstimate:
    """Invariant-metric seminorm ``sup_a integral |f'|^2 (1-|sigma_a|^2)^p dA``.

    As ``1-|sigma_a(z)|^2 = (1-|a|^2)(1-|z|^2)/|1-conj(a)z|^2`` and the
    monomials are orthogonal for ``(1-|z|^2)^p dA``, the integral at a
    probe ``a`` is exactly ``(1-|a|^2)^p sum_n |h_n|^2 B(n+1, p+1)`` with
    ``h = f' (1-conj(a)z)^-p``, an FFT convolution of ``f'`` with
    ``gamma_ratio(k, p) conj(a)^k``.  The probes are ``a = 0`` and
    ``QP_ANGLES`` angles on each dyadic radius, one ``_qp_level`` call per
    radius.  Each sum is cut at a length ``L`` starting at
    ``2^ceil(log2(len f' + 40/(1-|a|)))`` and doubled until the certified
    tail from ``3L/4`` on is at most ``QP_TAIL_RTOL`` of it.  The estimate
    is ``certified`` when every tail was certified within ``QP_MAX_TERMS``
    terms.
    """
    p = check_real("p", p, 0)
    fd = f.derivative().coeffs
    trace, longest, worst, uncertified = [], 0, 0.0, []
    # level 0 is the single probe a = 0
    for j, r in enumerate(np.concatenate([[0.0], dyadic_radii(QP_DEPTH)])):
        energies, lengths, tails = zip(*_qp_level(fd, float(r), p, QP_ANGLES if j else 1))
        trace.append(max(energies))
        longest = max(longest, *lengths)
        worst = max([worst] + [tail for tail in tails if tail <= QP_TAIL_RTOL])
        if max(tails) > QP_TAIL_RTOL:
            uncertified.append(j)
    notes = [f"longest probe series {longest} terms; largest certified tail fraction {worst:.1e}"]
    if uncertified:
        notes.append(f"tail not certified within {QP_MAX_TERMS} terms at levels {uncertified}")
    return SeminormEstimate(trace=tuple(trace), certified=not uncertified, notes=tuple(notes))


def lambda_norm(f: PowerSeries, p: float) -> SeminormEstimate:
    """Mean-Lipschitz seminorm ``sup_r (1-r)**(1-1/p) Mp(r, f', p)``, p > 1."""
    p = check_real("p", p, 1)
    fd = f.derivative()
    radii = np.concatenate([[0.0], dyadic_radii(LAMBDA_DEPTH)])
    trace = [float((1.0 - r) ** (1.0 - 1.0 / p) * Mp(fd, r, p)) for r in radii]
    return SeminormEstimate(trace=tuple(trace))


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


def hinf_norm(f: PowerSeries) -> SeminormEstimate:
    """Largest sampled modulus on ``|z| = 1``, where a polynomial's supremum
    over the disk is attained.

    The ``m`` samples, ``m`` the smallest power of two at least
    ``max(HINF_ANGLES, 16 deg f)`` up to ``MP_MAX_ANGLES``, come from
    ``_circle_samples``.  ``|f|**2`` is a real trigonometric polynomial of
    degree ``deg f``, so by Ehlich and Zeller the supremum is at most
    ``sqrt(sec(pi deg f / m))`` times the largest sample: at most 1.0098 when
    ``16 deg f <= m``, which is when the estimate is certified.  The notes give
    ``m`` and that factor; the trace is the one circle.
    """
    deg = f.order
    m = min(1 << (max(HINF_ANGLES, 16 * deg) - 1).bit_length(), MP_MAX_ANGLES)
    value = float(np.max(np.abs(_circle_samples(f.coeffs, 1.0, m))))
    if not math.isfinite(value):
        raise NumericsError("max modulus on |z| = 1 is not finite")
    cos = math.cos(math.pi * deg / m)
    factor = 1.0 / math.sqrt(cos) if cos > 0.0 else math.inf
    notes = [f"{m} angles on |z| = 1; supremum at most {factor:.6f} times the largest sample"]
    if 16 * deg > m:
        notes.append(f"degree {deg} needs {16 * deg} angles, past the cap {MP_MAX_ANGLES}")
    return SeminormEstimate(trace=(value,), certified=16 * deg <= m, notes=tuple(notes))
