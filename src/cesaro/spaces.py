"""Seminorm estimators for analytic-function spaces on the disk.

Everything here estimates a supremum over the disk by sweeping dyadic
radii ``1 - 2**-j`` and recording a per-level trace.  An estimate is
``converged`` when its running supremum moved less than 2% over the last
level (for the invariant-metric estimator, the two grid resolutions must
also agree to 2%).  The coefficient-side tests (``coeff_decay_test``,
``qp_coeff_criterion``) classify growth instead, reusing the dyadic
slope machinery from ``numerics``.
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
from .series import PowerSeries, _horner

__all__ = [
    "SeminormEstimate",
    "Mp",
    "bloch_seminorm",
    "qp_seminorm",
    "lambda_norm",
    "qp_coeff_criterion",
    "coeff_decay_test",
    "hinf_norm",
    "KernelComparison",
    "circle_kernel_check",
    "KernelBoundCheck",
    "two_kernel_check",
]

# relative movement of the running supremum below which a trace counts
# as settled; also the grid-agreement tolerance for qp_seminorm
SUP_CONVERGENCE_RTOL = 0.02


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
    levels, trace = [], []
    for j, z in _dyadic_circle_levels(depth, angles):
        vals = (1.0 - np.abs(z) ** 2) * np.abs(fd.eval(z))
        levels.append(j)
        trace.append(float(np.max(vals)))
    arr = np.asarray(trace)
    return SeminormEstimate(
        value=float(np.max(arr)),
        levels=tuple(levels),
        trace=tuple(trace),
        converged=_running_sup_settled(arr),
    )


def qp_seminorm(
    f: PowerSeries,
    p: float,
    depth: int = 8,
    angles: int = 8,
    radial_order: int = 96,
    angular: int = 256,
) -> SeminormEstimate:
    """Invariant-metric seminorm ``sup_a integral |f'|^2 (1-|sigma_a|^2)^p dA``.

    The integral is evaluated after substituting ``z = sigma_a(w)``,
    which pins the weight's boundary behavior to the grid's own boundary
    (where the radial Gauss nodes cluster) instead of letting the
    integrand concentrate at a moving interior point.  Each supremum
    candidate ``a`` then costs one fixed-grid quadrature of
    ``|f'(sigma_a(w))|^2 |sigma_a'(w)|^2 (1-|w|^2)^p``.

    Every level is computed on the default grid and on one with both
    resolutions doubled; the doubled trace is reported and the estimate
    only counts as converged when the two grids agree within 2%.
    """
    p = float(p)
    if not p > 0.0:
        raise ParameterError(f"exponent p must be positive, got {p!r}")
    fd = f.derivative()

    def trace_on(grid) -> np.ndarray:
        wfac = grid.weights * (1.0 - np.abs(grid.nodes) ** 2) ** p
        out = []
        for _, probes in _dyadic_circle_levels(depth, angles):
            best = 0.0
            for a in probes:
                denom = 1.0 - np.conj(a) * grid.nodes
                zz = (a - grid.nodes) / denom
                jac = ((1.0 - abs(a) ** 2) / np.abs(denom) ** 2) ** 2
                val = float(np.sum(wfac * np.abs(_horner(fd.coeffs, zz)) ** 2 * jac))
                best = max(best, val)
            out.append(best)
        return np.asarray(out)

    coarse = trace_on(disk_grid(radial_order, angular))
    fine = trace_on(disk_grid(2 * radial_order, 2 * angular))
    top_c, top_f = float(np.max(coarse)), float(np.max(fine))
    scale = max(top_c, top_f)
    grid_gap = 0.0 if scale == 0.0 else abs(top_f - top_c) / scale
    grids_agree = grid_gap <= SUP_CONVERGENCE_RTOL
    notes = [f"grid doubling moved the supremum by {grid_gap:.2e} relative"]
    return SeminormEstimate(
        value=top_f,
        levels=tuple(range(depth + 1)),
        trace=tuple(float(v) for v in fine),
        converged=_running_sup_settled(fine) and grids_agree,
        notes=tuple(notes),
    )


def lambda_norm(f: PowerSeries, p: float, depth: int = 12) -> SeminormEstimate:
    """Mean-Lipschitz seminorm ``sup_r (1-r)**(1-1/p) Mp(r, f', p)``, p > 1."""
    p = float(p)
    if not p > 1.0:
        raise ParameterError(f"mean-Lipschitz exponent must exceed 1, got {p!r}")
    fd = f.derivative()
    radii = np.concatenate([[0.0], dyadic_radii(depth)])
    levels, trace = [], []
    for j, r in enumerate(radii):
        levels.append(j)
        trace.append(float((1.0 - r) ** (1.0 - 1.0 / p) * Mp(fd, r, p)))
    arr = np.asarray(trace)
    return SeminormEstimate(
        value=float(np.max(arr)),
        levels=tuple(levels),
        trace=tuple(trace),
        converged=_running_sup_settled(arr),
    )


def _real_nonneg_coeffs(f: PowerSeries, op: str) -> np.ndarray:
    coeffs = f.coeffs
    scale = 1.0 + float(np.max(np.abs(coeffs)))
    if float(np.max(np.abs(coeffs.imag))) > 1e-12 * scale:
        raise ParameterError(f"{op} needs real coefficients")
    a = coeffs.real.copy()
    if float(np.min(a)) < -1e-12 * scale:
        raise ParameterError(f"{op} needs nonnegative coefficients")
    return np.maximum(a, 0.0)


def coeff_decay_test(f: PowerSeries) -> GrowthReport:
    """Growth of ``n * a_n`` at dyadic ``n`` for a nonincreasing sequence.

    For nonnegative nonincreasing coefficients, boundedness of this
    trace is equivalent to membership in the whole band of spaces
    between the mean-Lipschitz and Bloch ends, so one trace answers the
    membership question for all of them at once.  Non-monotone input is
    rejected: without monotonicity dyadic sampling can miss spikes.
    """
    a = _real_nonneg_coeffs(f, "coefficient decay test")
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


def qp_coeff_criterion(f: PowerSeries, p: float, depth: int = 8) -> GrowthReport:
    """Coefficient-side membership functional for the invariant metric.

    Evaluates, at dyadic ``r``,

        F(r) = sum_n (1-r)**p (n+1)**-(p+1)
                     * (sum_{k<=n} (k+1) a_{k+1} (n-k+1)**(p-1) r**(n-k))**2

    whose boundedness over ``r`` is equivalent to a nonneg-coefficient
    series lying in the space the exponent ``p`` names.  Each evaluation
    certifies its own truncation by checking that the outer summands are
    decaying at the cut; a level whose tail is not certified is recorded
    as infinite.
    """
    p = float(p)
    if not p > 0.0:
        raise ParameterError(f"exponent p must be positive, got {p!r}")
    a = _real_nonneg_coeffs(f, "coefficient-side membership functional")
    n_terms = a.size - 1
    radii = np.concatenate([[0.0], dyadic_radii(depth)])
    levels = range(depth + 1)
    notes = []
    if n_terms == 0:
        return classify_growth([0.0] * (depth + 1), levels, notes=["constant input"])
    k = np.arange(n_terms, dtype=float)
    u = (k + 1.0) * a[1:]
    values = []
    for j, r in zip(levels, radii):
        v = (k + 1.0) ** (p - 1.0) * r ** k
        c = np.convolve(u, v)[:n_terms]
        n = np.arange(n_terms, dtype=float)
        terms = (1.0 - r) ** p * (n + 1.0) ** (-(p + 1.0)) * c ** 2
        if n_terms >= 32:
            head, tail = np.sum(terms[-16:-8]), np.sum(terms[-8:])
            if tail > head * (1.0 + 1e-9) + 1e-300:
                notes.append(f"tail not certified at level {j}; recorded as infinite")
                values.append(math.inf)
                continue
        values.append(float(np.sum(terms)))
    return classify_growth(values, levels, notes=notes)


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
    return float(np.max(np.abs(f.eval(z))))


class KernelComparison(NamedTuple):
    computed: float
    predicted: float
    ratio: float


def circle_kernel_check(
    z: complex,
    beta: float,
    *,
    start_angles: int = 1024,
    rtol: float = 1e-6,
    max_angles: int = 1 << 22,
) -> KernelComparison:
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
    m = start_angles
    while m <= max_angles:
        theta = 2.0 * np.pi * np.arange(m) / m
        vals = np.abs(1.0 - z * np.exp(-1j * theta)) ** (-power)
        new = float(np.mean(vals))
        if est is not None and abs(new - est) <= rtol * max(abs(new), abs(est)):
            est = new
            break
        prev, est = est, new
        m *= 2
    else:
        raise NumericsError(
            f"circle average did not settle to rtol={rtol:g} by {max_angles} angles",
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
    *,
    radial_order: int = 96,
    angular: int = 256,
    max_doublings: int = 3,
    agreement: float = SUP_CONVERGENCE_RTOL,
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
        grid = disk_grid(radial_order << k, angular << k)
        vals = (
            (1.0 - np.abs(grid.nodes) ** 2) ** s
            / (
                np.abs(1.0 - np.conj(a) * grid.nodes) ** r
                * np.abs(1.0 - np.conj(b) * grid.nodes) ** t
            )
        )
        return float(np.sum(grid.weights * vals))

    prev = estimate(0)
    for k in range(1, max_doublings + 1):
        est = estimate(k)
        if abs(est - prev) <= agreement * max(abs(est), abs(prev)):
            return KernelBoundCheck(computed=est, bound=float(bound), ratio=est / float(bound))
        prev = est
    raise NumericsError(
        f"disk integral did not settle to {agreement:g} after {max_doublings} grid doublings",
        estimates=(prev, est),
    )
