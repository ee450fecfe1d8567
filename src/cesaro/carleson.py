"""Four equivalent tail-decay criteria for measures on [0, 1).

A finite positive measure is *s-Carleson* when ``mu([t, 1)) <= C (1-t)**s``.
Each test below probes that property along dyadic levels and classifies
the resulting trace:

* ``box_test``        -- tail mass scaled by ``2**(j*s)`` directly
* ``moment_test``     -- ``(1+n)**s * mu_n`` along ``n = 2**j``
* ``integral_test_real`` / ``integral_test_complex``
                      -- ``(1-|a|)**t * integral (1-x)**-r |1-a x|**-(s+t-r)``
                         for probe points ``a`` approaching the boundary,
                         legal for ``0 <= r < s`` and ``t > 0``
* ``disk_kernel_test``-- ``integral (1-|a|**2)**t / |1-conj(a) x|**(s+t)``

For an s-Carleson measure all four stay bounded; otherwise all four grow.
``is_s_carleson`` runs the battery and reports the consensus.  Inner
integrals with a non-integrable endpoint exponent are recorded as
``+inf`` samples, which is exactly how a divergent criterion integral
shows up in the trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericsError, ParameterError
from .measure import MeasureSpec, tail_mass, total_mass, moments_array
from .numerics import (
    GrowthReport,
    classify_growth,
    dyadic_radii,
    quad_measure,
    sup_on_dyadic_boundary,
)

__all__ = [
    "CARLESON",
    "NOT_CARLESON",
    "DISAGREEMENT",
    "DEPTH_RANGE",
    "CarlesonVerdict",
    "box_test",
    "moment_test",
    "integral_test_real",
    "integral_test_complex",
    "disk_kernel_test",
    "is_s_carleson",
]

CARLESON = "carleson"
NOT_CARLESON = "not_carleson"
DISAGREEMENT = "disagreement"

# below 4 levels there is nothing to classify; past 52 the probes
# 1 - 2**-j reach the last float64 steps below 1, and 52 keeps every
# probe at least 8 quadrature panels inside the graded grid
DEPTH_RANGE = (4, 52)


def _check_s(s: float) -> float:
    s = float(s)
    if s <= 0.0 or not math.isfinite(s):
        raise ParameterError(f"Carleson order s must be positive, got {s!r}")
    return s


def _check_t(t: float) -> float:
    t = float(t)
    if t <= 0.0 or not math.isfinite(t):
        raise ParameterError(f"exponent t must be positive, got {t!r}")
    return t


def _check_r(r: float, s: float) -> float:
    r = float(r)
    if not (0.0 <= r < s):
        raise ParameterError(f"singularity exponent r must satisfy 0 <= r < s, got {r!r}")
    return r


def _quad_or_inf(g, mu: MeasureSpec, singular_exponent: float) -> float:
    try:
        return float(quad_measure(g, mu, singular_exponent=singular_exponent))
    except NumericsError:
        return math.inf


# the integrands h(a) of the kernel criteria; at a real probe a in [0, 1)
# the boundary kernel's |1 - a x| is just 1 - a x
def _boundary_kernel(mu: MeasureSpec, s: float, t: float, r: float):
    power = s + t - r

    def h(a: complex) -> float:
        def g(x: np.ndarray) -> np.ndarray:
            return np.abs(1.0 - a * x) ** (-power)

        return (1.0 - abs(a)) ** t * _quad_or_inf(g, mu, r)

    return h


def _disk_kernel(mu: MeasureSpec, s: float, t: float):
    power = s + t

    def h(a: complex) -> float:
        numer = (1.0 - abs(a) ** 2) ** t

        def g(x: np.ndarray) -> np.ndarray:
            return np.abs(1.0 - np.conj(a) * x) ** (-power)

        return numer * _quad_or_inf(g, mu, 0.0)

    return h


def box_test(mu: MeasureSpec, s: float, depth: int = 18) -> GrowthReport:
    """Trace ``mu([1-2**-j, 1)) * 2**(j*s)``; bounded iff s-Carleson."""
    s = _check_s(s)
    radii = dyadic_radii(depth)
    values = [tail_mass(mu, r) * 2.0 ** (j * s) for j, r in enumerate(radii, start=1)]
    return classify_growth(values, range(1, depth + 1))


def moment_test(mu: MeasureSpec, s: float, limit: int = 1 << 14) -> GrowthReport:
    """Trace ``(1+n)**s * mu_n`` along ``n = 2**j``.

    The moments of an s-Carleson measure decay like ``(1+n)**-s``, so the
    trace stays bounded exactly on the Carleson side.
    """
    s = _check_s(s)
    if limit < 8:
        raise ParameterError(f"moment limit too small to classify: {limit}")
    top = int(math.floor(math.log2(limit)))
    mus = moments_array(mu, 1 << top)
    levels = range(top + 1)
    values = [(1.0 + (1 << j)) ** s * mus[1 << j] for j in levels]
    return classify_growth(values, levels)


def integral_test_real(
    mu: MeasureSpec,
    s: float,
    t: float = 1.0,
    r: float | None = None,
    depth: int = 18,
) -> GrowthReport:
    """Boundary-kernel trace with real probe points ``a = 1 - 2**-j``.

    ``h(a) = (1-a)**t * integral (1-x)**-r (1-a x)**-(s+t-r) d mu(x)``,
    legal for ``0 <= r < s``; a sample whose inner integral diverges is
    recorded as ``+inf``.
    """
    s = _check_s(s)
    t = _check_t(t)
    r = s / 2.0 if r is None else _check_r(r, s)
    return sup_on_dyadic_boundary(_boundary_kernel(mu, s, t, r), depth=depth)


def integral_test_complex(
    mu: MeasureSpec,
    s: float,
    t: float = 1.0,
    r: float = 0.0,
    depth: int = 18,
) -> GrowthReport:
    """Same kernel trace in its complex form.

    ``h(a) = (1-|a|)**t * integral (1-x)**-r |1 - conj(a) x|**-(s+t-r)``.
    On [0, 1) ``|1 - conj(a) x| >= 1 - |a| x``, so the supremum over each
    dyadic circle sits at the real probe ``a = 1 - 2**-j``, which is the
    only one taken.
    """
    s = _check_s(s)
    t = _check_t(t)
    r = _check_r(r, s)
    return sup_on_dyadic_boundary(_boundary_kernel(mu, s, t, r), depth=depth)


def disk_kernel_test(
    mu: MeasureSpec,
    s: float,
    t: float = 1.0,
    depth: int = 18,
) -> GrowthReport:
    """Trace of ``integral (1-|a|**2)**t / |1-conj(a) x|**(s+t) d mu(x)``.

    Probed at real ``a = 1 - 2**-j``, where each dyadic circle attains
    its supremum.
    """
    s = _check_s(s)
    t = _check_t(t)
    return sup_on_dyadic_boundary(_disk_kernel(mu, s, t), depth=depth)


@dataclass(frozen=True)
class CarlesonVerdict:
    """Joint outcome of the criterion battery for one measure and order."""

    order: float
    consensus: str
    reports: dict
    diagnostics: dict

    def to_dict(self) -> dict:
        return {
            "order": self.order,
            "consensus": self.consensus,
            "reports": {name: rep.to_dict() for name, rep in self.reports.items()},
            "diagnostics": dict(self.diagnostics),
        }


def is_s_carleson(
    mu: MeasureSpec,
    s: float,
    *,
    depth: int = 18,
    t: float = 1.0,
    r: float | None = None,
    moment_limit: int = 1 << 14,
) -> CarlesonVerdict:
    """Run all criteria and report their consensus.

    The real-kernel test runs at ``r`` (default ``s/2``, interior of its
    legal range) and the complex-kernel test at ``r = 0``.  Agreement
    across every trace yields ``carleson`` or ``not_carleson``; anything
    mixed is a ``disagreement``, which callers should treat as an
    unresolved numerical question rather than an answer.  ``depth`` must
    lie in ``DEPTH_RANGE``.
    """
    s = _check_s(s)
    lo, hi = DEPTH_RANGE
    if not lo <= depth <= hi:
        raise ParameterError(f"probe depth must lie in [{lo}, {hi}], got {depth!r}")
    reports = {
        "box": box_test(mu, s, depth=depth),
        "moment": moment_test(mu, s, limit=moment_limit),
        "integral_real": integral_test_real(
            mu, s, t=t, r=s / 2.0 if r is None else r, depth=depth
        ),
        "integral_complex": integral_test_complex(mu, s, t=t, r=0.0, depth=depth),
        "disk_kernel": disk_kernel_test(mu, s, t=t, depth=depth),
    }
    flags = {rep.bounded for rep in reports.values()}
    if flags == {True}:
        consensus = CARLESON
    elif flags == {False}:
        consensus = NOT_CARLESON
    else:
        consensus = DISAGREEMENT
    diagnostics = {
        "total_mass": total_mass(mu),
        "tail_mass_at_depth": tail_mass(mu, 1.0 - 0.5 ** depth),
        "probe_depth": float(depth),
    }
    return CarlesonVerdict(order=s, consensus=consensus, reports=reports, diagnostics=diagnostics)
