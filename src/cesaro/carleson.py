"""Five equivalent tail-decay criteria for measures on [0, 1).

A finite positive measure is *s-Carleson* when ``mu([t, 1)) <= C (1-t)**s``.
Each test below probes that property along dyadic levels and classifies
the resulting trace:

* ``box_test``        -- tail mass scaled by ``2**(j*s)`` directly
* ``moment_test``     -- ``(1+n)**s * mu_n`` along ``n = 2**j``
* ``integral_test_real`` / ``integral_test_complex``
                      -- ``(1-|a|)**t * integral (1-x)**-r |1-conj(a) x|**-(s+t-r)``
                         for probe points ``a`` approaching the boundary,
                         legal for ``0 <= r < s`` and ``t > 0``
* ``disk_kernel_test``-- ``integral (1-|a|**2)**t / |1-conj(a) x|**(s+t)``

Since ``|1 - conj(a) x| >= 1 - |a| x`` on [0, 1), each kernel sample is one
real ``kernel_integral`` at ``a = 1 - 2**-j`` with the factor ``(1-a)**t``
inside its integrand; the disk-kernel trace is the complex-boundary trace
times ``(1+a)**t`` in ``[1, 2**t]``.

For an s-Carleson measure all five stay bounded; otherwise all five grow.
``is_s_carleson`` runs the battery and reports the consensus.  Inner
integrals with a non-integrable endpoint exponent are recorded as
``+inf`` samples, which is exactly how a divergent criterion integral
shows up in the trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import NumericsError, ParameterError, check_int, check_real
from .measure import MeasureSpec, moment, tail_mass, total_mass
# bench/tracer.py wraps moments_array under every module that imports it
from .measure import moments_array  # noqa: F401
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
    "EXPONENT_BUDGET",
    "CarlesonVerdict",
    "box_test",
    "moment_test",
    "integral_test_real",
    "integral_test_complex",
    "disk_kernel_test",
    "is_s_carleson",
    "kernel_integral",
]

CARLESON = "carleson"
NOT_CARLESON = "not_carleson"
DISAGREEMENT = "disagreement"

# below 4 levels there is nothing to classify; past 52 the probes
# 1 - 2**-j reach the last float64 steps below 1, and the quadrature
# grid reaches 2**-100, far past the deepest probe
DEPTH_RANGE = (4, 52)

# moment_test samples n = 2**j for j = 0 .. MOMENT_TOP
MOMENT_TOP = 14

# traces to level J stay below mass * 2**((J+1)(s+t)).  A kernel integrand
# carries its (1-a)**t per node, so it stays below 2**(J s); the mass and the
# endpoint factor (1-x)**-r meet it only inside the sum, so a sample
# overflows only where its own value leaves float range
EXPONENT_BUDGET = 900


def _check_args(s: float, depth: int, t: float | None = None) -> tuple[float, float | None]:
    """``(s, t)`` as floats, if positive, with ``depth`` an integer in ``DEPTH_RANGE``
    and the exponent ``s`` (``s + t``) within ``EXPONENT_BUDGET`` to that level."""
    s = check_real("s", s, 0)
    check_int("probe depth", depth, *DEPTH_RANGE)
    exponent = s
    if t is not None:
        t = check_real("t", t, 0)
        exponent = s + t
    if not (depth + 1) * exponent <= EXPONENT_BUDGET:
        raise ParameterError(f"exponent {exponent:g} to level {depth} leaves float range "
                             f"(need (level + 1) * exponent <= {EXPONENT_BUDGET})")
    return s, t


def kernel_integral(mu: MeasureSpec, a: float, power: float, r: float, t: float = 0.0) -> float:
    """``integral (1-a)**t (1-x)**-r (1-a x)**-power d mu(x)`` at a real probe ``0 <= a < 1``.

    The kernel is formed as ``(1-a) + a u`` in ``u = 1 - x``: ``1 - a`` is
    exact at the dyadic probes, so deep probes lose nothing to cancellation.
    The factor ``(1-a)**t`` multiplies each node before the sum meets the
    measure's mass, so however large the mass, the sum overflows only
    where the sample itself leaves float range.
    A sample whose integral ``quad_measure`` refuses (a non-integrable
    endpoint exponent, or overflow) is ``+inf``, which is how a divergent
    criterion integral shows up in a trace.
    """
    gap, q = 1.0 - a, -power
    factor = gap ** t
    try:
        return float(quad_measure(lambda us: [factor * (gap + a * u) ** q for u in us], mu,
                                  singular_exponent=r))
    except NumericsError:
        return math.inf


def _kernel_trace(mu: MeasureSpec, s: float, t: float, r: float | None, depth: int):
    # h(a) = kernel_integral(mu, a, s + t - r, r, t), r = s/2 unless given
    s, t = _check_args(s, depth, t)
    r = s / 2.0 if r is None else check_real("r", r, 0, s, closed=True)
    power = s + t - r
    return sup_on_dyadic_boundary(lambda a: kernel_integral(mu, a, power, r, t), depth=depth)


def box_test(mu: MeasureSpec, s: float, depth: int = 18) -> GrowthReport:
    """Trace ``mu([1-2**-j, 1)) * 2**(j*s)``; bounded iff s-Carleson."""
    s, _ = _check_args(s, depth)
    radii = dyadic_radii(depth)
    values = [tail_mass(mu, r) * 2.0 ** (j * s) for j, r in enumerate(radii, start=1)]
    return classify_growth(values, range(1, depth + 1))


def moment_test(mu: MeasureSpec, s: float) -> GrowthReport:
    """Trace ``(1+n)**s * mu_n`` at the 15 levels ``n = 2**0 .. 2**14``, at any depth.

    The moments of an s-Carleson measure decay like ``(1+n)**-s``, so the
    trace stays bounded exactly on the Carleson side.
    """
    s, _ = _check_args(s, MOMENT_TOP)
    levels = range(MOMENT_TOP + 1)
    values = [(1.0 + (1 << j)) ** s * moment(mu, 1 << j) for j in levels]
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
    legal for ``0 <= r < s`` (default ``s/2``); a sample whose inner
    integral diverges is recorded as ``+inf``.
    """
    return _kernel_trace(mu, s, t, r, depth)


def integral_test_complex(
    mu: MeasureSpec,
    s: float,
    t: float = 1.0,
    depth: int = 18,
) -> GrowthReport:
    """Boundary-kernel trace over the disk, at ``r = 0``.

    ``h(a) = (1-|a|)**t * integral |1 - conj(a) x|**-(s+t) d mu(x)``.
    On [0, 1) ``|1 - conj(a) x| >= 1 - |a| x``, so the supremum over each
    dyadic circle sits at the real probe ``a = 1 - 2**-j``, the only one
    taken: this is ``integral_test_real`` at ``r = 0``.
    """
    return _kernel_trace(mu, s, t, 0.0, depth)


def disk_kernel_test(boundary: GrowthReport, t: float) -> GrowthReport:
    """Trace of ``integral (1-|a|**2)**t / |1-conj(a) x|**(s+t) d mu(x)``.

    ``boundary`` is the ``integral_test_complex`` report of the measure, and
    ``t`` must be the ``t`` it was taken at: ``1 - a**2 = (1+a)(1-a)``, so each
    sample is the boundary sample at level ``j`` times ``(2 - 2**-j)**t``, on
    the same levels.  An infinite sample stays infinite.
    """
    t, levels = check_real("t", t, 0), boundary.levels
    samples = zip(levels, boundary.values)
    return classify_growth([(2.0 - 0.5 ** j) ** t * v for j, v in samples], levels)


@dataclass(frozen=True)
class CarlesonVerdict:
    """Joint outcome of the criterion battery for one measure and order.

    ``consensus`` is ``carleson`` when every report is bounded,
    ``not_carleson`` when none is, and ``disagreement`` otherwise.
    """

    order: float
    reports: dict
    diagnostics: dict
    consensus: str = field(init=False)

    def __post_init__(self):
        flags = {rep.bounded for rep in self.reports.values()}
        if flags == {True}:
            consensus = CARLESON
        elif flags == {False}:
            consensus = NOT_CARLESON
        else:
            consensus = DISAGREEMENT
        object.__setattr__(self, "consensus", consensus)


def is_s_carleson(
    mu: MeasureSpec,
    s: float,
    *,
    depth: int = 18,
    t: float = 1.0,
    r: float | None = None,
) -> CarlesonVerdict:
    """Run all criteria and report their consensus.

    The real-kernel test runs at ``r`` (default ``s/2``, interior of its
    legal range) and the complex-kernel test at ``r = 0``.  Agreement
    across every trace yields ``carleson`` or ``not_carleson``; anything
    mixed is a ``disagreement``, which callers should treat as an
    unresolved numerical question rather than an answer.  ``depth`` must
    lie in ``DEPTH_RANGE``.
    """
    reports = {
        "box": box_test(mu, s, depth=depth),
        "moment": moment_test(mu, s),
        "integral_real": integral_test_real(mu, s, t=t, r=r, depth=depth),
        "integral_complex": integral_test_complex(mu, s, t=t, depth=depth),
    }
    reports["disk_kernel"] = disk_kernel_test(reports["integral_complex"], t=t)
    diagnostics = {
        "total_mass": total_mass(mu),
        "tail_mass_at_depth": tail_mass(mu, 1.0 - 0.5 ** depth),
        "probe_depth": float(depth),
    }
    return CarlesonVerdict(order=float(s), reports=reports, diagnostics=diagnostics)
