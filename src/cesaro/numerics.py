"""Quadrature against measures and dyadic growth classification.

The two workhorses are ``quad_measure`` (integrate a function against a
measure on [0, 1), with an optional endpoint singularity at 1) and
``classify_growth`` (decide whether a trace sampled at dyadic levels
``j`` stays bounded or grows like ``2**(j*epsilon)``).

Density parts are integrated by one fixed rule graded toward the only
singular point: ``PANELS`` dyadic panels ``u in [2**-(k+1), 2**-k]`` in
``u = 1 - t``, each with a ``PANEL_NODES``-point Gauss-Legendre rule that
evaluates the endpoint factor ``u**(alpha - r)`` exactly.  On the end
panel ``u < edge = 2**-PANELS`` every ``t = 1 - u`` rounds to 1.0, so it
is ``g(1) edge**(beta+1) / (beta+1)`` in closed form (``beta = alpha - r``,
per unit scale).  The divergence signal is a non-integrable end weight
(``alpha - r <= -1``): the panel masses then stop decaying, and
``NumericsError`` carries the partial sums after half and after all of
the panels out to the caller.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import NumericsError, ParameterError
from .measure import Atomic, Lebesgue, MeasureSpec, Mixture, PowerDensity

__all__ = [
    "PANELS",
    "PANEL_NODES",
    "GROWTH_THRESHOLD",
    "BOUNDED",
    "DIVERGENT",
    "quad_measure",
    "dyadic_radii",
    "GrowthReport",
    "classify_growth",
    "sup_on_dyadic_boundary",
]

PANELS = 60
PANEL_NODES = 24
# slope threshold in log-space per dyadic level: growth below 2**(0.1*j) is noise
GROWTH_THRESHOLD = 0.1 * math.log(2.0)

BOUNDED = "bounded"
DIVERGENT = "divergent"

_LOG_FLOOR = 1e-300


@functools.cache
def _panel_rule() -> tuple[np.ndarray, np.ndarray]:
    # panel k covers u = 1 - t in [2**-(k+1), 2**-k]; nodes run panel by
    # panel.  numpy's leggauss keeps scipy out of every import; built on
    # first use, so calls that never integrate never load numpy.polynomial.
    x, w = np.polynomial.legendre.leggauss(PANEL_NODES)
    half = 0.5 ** np.arange(1, PANELS + 1)[:, None]
    u, weights = (half * (1.5 + 0.5 * x)).ravel(), (half * 0.5 * w).ravel()
    u.flags.writeable = weights.flags.writeable = False  # every call shares this copy
    return u, weights


# bench/tracer.py still looks these names up; no rule or disk grid is built
roots_jacobi = _jacobi_rule = None


class DiskGrid:
    build = classmethod(lambda cls: None)


def _as_scalar(value):
    if np.iscomplexobj(value):
        return complex(value)
    return float(value)


def _finite(value):
    if not np.isfinite(value):
        raise NumericsError("integral against the measure overflows")
    return _as_scalar(value)


def quad_measure(
    g: Callable[[np.ndarray], np.ndarray],
    mu: MeasureSpec,
    *,
    singular_exponent: float = 0.0,
):
    """Integrate ``g(t) * (1-t)**(-singular_exponent)`` against ``mu``.

    ``g`` must be vectorized over a node array.  Atomic parts are summed
    exactly.  Density parts use the fixed graded panel rule; an endpoint
    exponent ``alpha - singular_exponent <= -1`` is not integrable and
    raises ``NumericsError``, which is how a divergent integral
    announces itself; so does an integral that overflows.
    """
    r = float(singular_exponent)
    if isinstance(mu, Atomic):
        t, w = np.asarray(mu.points), np.asarray(mu.weights)
        with np.errstate(over="ignore", invalid="ignore"):
            return _finite(np.sum(w * (np.asarray(g(t)) * (1.0 - t) ** (-r))))
    if isinstance(mu, Mixture):
        parts = [quad_measure(g, part, singular_exponent=r) for part in mu.components]
        with np.errstate(over="ignore", invalid="ignore"):
            return _finite(np.sum(np.asarray(parts)))
    if isinstance(mu, Lebesgue):
        alpha, scale = 0.0, 1.0
    elif isinstance(mu, PowerDensity):
        alpha, scale = mu.alpha, mu.scale
    else:
        raise ParameterError(f"not a measure: {mu!r}")
    beta = alpha - r
    panel_u, panel_w = _panel_rule()
    with np.errstate(over="ignore", invalid="ignore"):
        vals = panel_w * panel_u ** beta * np.asarray(g(1.0 - panel_u))
        panel_mass = scale * np.sum(vals.reshape(PANELS, PANEL_NODES), axis=1)
        if beta <= -1.0:
            raise NumericsError(
                f"endpoint exponent {beta:g} is not integrable",
                estimates=tuple(_as_scalar(np.sum(panel_mass[:k])) for k in (PANELS // 2, PANELS)),
            )
        # end panel u < edge: 1 - u rounds to 1.0, leaving the integral of u**beta
        edge = 0.5 ** PANELS
        end = scale * edge ** (beta + 1.0) / (beta + 1.0) * np.sum(g(np.ones(1)))
        return _finite(end + np.sum(panel_mass))


def dyadic_radii(depth: int, start_level: int = 1) -> np.ndarray:
    """Radii ``1 - 2**-j`` for ``j = start_level .. depth``."""
    if depth < start_level:
        raise ParameterError(f"depth {depth} below start level {start_level}")
    j = np.arange(start_level, depth + 1)
    return 1.0 - 0.5 ** j


@dataclass(frozen=True)
class GrowthReport:
    """Outcome of fitting ``log S_j`` against the dyadic level ``j``.

    ``exponent`` is the fitted growth ``epsilon`` in ``S_j ~ 2**(j*epsilon)``
    (``slope / log 2``); the verdict is ``bounded`` when the slope over the
    trailing half of the trace stays under ``threshold``.  Both follow
    from ``slope``.
    """

    levels: tuple[int, ...]
    values: tuple[float, ...]
    slope: float
    notes: tuple[str, ...] = ()
    exponent: float = field(init=False)
    verdict: str = field(init=False)
    threshold: float = field(init=False, default=GROWTH_THRESHOLD)

    def __post_init__(self):
        object.__setattr__(self, "exponent", self.slope / math.log(2.0))
        object.__setattr__(self, "verdict", BOUNDED if self.slope < self.threshold else DIVERGENT)

    @property
    def bounded(self) -> bool:
        return self.verdict == BOUNDED


def classify_growth(
    values: Sequence[float],
    levels: Iterable[int] | None = None,
) -> GrowthReport:
    """Classify a dyadic trace as bounded or divergent.

    Any ``+inf`` sample short-circuits to divergent.  Otherwise a least
    squares line through ``(j, log S_j)`` over the trailing half of the
    finite samples decides: slope below ``GROWTH_THRESHOLD`` per level is
    bounded.  Fewer than 4 finite samples raise ``NumericsError``.
    """
    vals = np.asarray(list(values), dtype=float)
    if levels is None:
        lev = np.arange(1, vals.size + 1)
    else:
        lev = np.asarray(list(levels), dtype=int)
    if vals.shape != lev.shape:
        raise ParameterError(f"{vals.size} values but {lev.size} levels")
    trace_levels = tuple(int(j) for j in lev)
    trace_values = tuple(float(v) for v in vals)
    if vals.size and np.isposinf(vals).any():
        return GrowthReport(
            levels=trace_levels, values=trace_values, slope=math.inf,
            notes=("trace contains an infinite sample",),
        )
    finite = np.isfinite(vals)
    if int(finite.sum()) < 4:
        raise NumericsError(f"only {int(finite.sum())} finite samples; need at least 4 to classify")
    if float(np.max(vals[finite])) <= 0.0:
        return GrowthReport(
            levels=trace_levels, values=trace_values, slope=0.0, notes=("trace is nonpositive",)
        )
    idx = np.flatnonzero(finite)
    take = idx[-math.ceil(idx.size / 2):]
    y = np.log(np.maximum(vals[take], _LOG_FLOOR))
    slope = float(np.polyfit(lev[take].astype(float), y, 1)[0])
    return GrowthReport(levels=trace_levels, values=trace_values, slope=slope)


def sup_on_dyadic_boundary(
    h: Callable[[complex], float],
    depth: int = 18,
    angles: int = 1,
    *,
    start_level: int = 1,
) -> GrowthReport:
    """Trace ``S_j = max over angles of h(a)`` at ``|a| = 1 - 2**-j``.

    With ``angles=1`` the probe points are real floats, otherwise complex.
    ``h`` returns a float and may return ``inf`` to mark a divergent sample.
    """
    if angles < 1:
        raise ParameterError(f"angles must be positive, got {angles}")
    radii = dyadic_radii(depth, start_level)
    theta = 2.0 * np.pi * np.arange(angles) / angles
    values = []
    for radius in radii:
        probes = radius * np.exp(1j * theta) if angles > 1 else [float(radius)]
        values.append(max(float(h(a)) for a in probes))
    return classify_growth(values, range(start_level, depth + 1))
