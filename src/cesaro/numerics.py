"""Quadrature against measures, disk grids, and dyadic growth classification.

The two workhorses are ``quad_measure`` (integrate a function against a
measure on [0, 1), with an optional endpoint singularity at 1) and
``classify_growth`` (decide whether a trace sampled at dyadic levels
``j`` stays bounded or grows like ``2**(j*epsilon)``).

Density parts are integrated by one fixed rule graded toward the only
singular point: ``PANELS`` dyadic panels ``u in [2**-(k+1), 2**-k]`` in
``u = 1 - t``, each with a ``PANEL_NODES``-point Gauss-Legendre rule that
evaluates the endpoint factor ``u**(alpha - r)`` exactly, then one
Gauss-Jacobi end panel on ``u < 2**-PANELS`` that carries that factor as
its weight.  The divergence signal is a non-integrable end weight
(``alpha - r <= -1``): the panel masses then stop decaying, and
``NumericsError`` carries the partial sums after half and after all of
the panels out to the caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

from .errors import InconclusiveGrowthError, NumericsError, ParameterError
from .measure import Atomic, Lebesgue, MeasureSpec, Mixture, PowerDensity

__all__ = [
    "PANELS",
    "PANEL_NODES",
    "GROWTH_THRESHOLD",
    "BOUNDED",
    "DIVERGENT",
    "quad_measure",
    "DiskGrid",
    "disk_grid",
    "disk_integral",
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


def _panel_rule() -> tuple[np.ndarray, np.ndarray]:
    # panel k covers u = 1 - t in [2**-(k+1), 2**-k]; nodes run panel by
    # panel.  numpy's leggauss keeps scipy.linalg out of every import.
    x, w = np.polynomial.legendre.leggauss(PANEL_NODES)
    half = 0.5 ** np.arange(1, PANELS + 1)[:, None]
    return (half * (1.5 + 0.5 * x)).ravel(), (half * 0.5 * w).ravel()


_PANEL_U, _PANEL_W = _panel_rule()


def _jacobi_rule(order: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    # nodes/weights for integral over [0,1] with weight (1-t)**alpha,
    # from the [-1,1] Jacobi rule via t = (x+1)/2
    x, w = roots_jacobi(order, alpha, 0.0)
    t = 0.5 * (x + 1.0)
    scaled = w * 0.5 ** (alpha + 1.0)
    return t, scaled


def _as_scalar(value):
    if np.iscomplexobj(value):
        return complex(value)
    return float(value)


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
    announces itself.
    """
    r = float(singular_exponent)
    if isinstance(mu, Atomic):
        t = np.asarray(mu.points)
        w = np.asarray(mu.weights)
        vals = np.asarray(g(t))
        if r != 0.0:
            vals = vals * (1.0 - t) ** (-r)
        return _as_scalar(np.sum(w * vals))
    if isinstance(mu, Mixture):
        return _as_scalar(
            np.sum(
                np.asarray(
                    [quad_measure(g, part, singular_exponent=r) for part in mu.components]
                )
            )
        )
    if isinstance(mu, Lebesgue):
        alpha, scale = 0.0, 1.0
    elif isinstance(mu, PowerDensity):
        alpha, scale = mu.alpha, mu.scale
    else:
        raise ParameterError(f"not a measure: {mu!r}")
    beta = alpha - r
    vals = _PANEL_W * _PANEL_U ** beta * np.asarray(g(1.0 - _PANEL_U))
    panel_mass = scale * np.sum(vals.reshape(PANELS, PANEL_NODES), axis=1)
    if beta <= -1.0:
        raise NumericsError(
            f"endpoint exponent {beta:g} is not integrable",
            estimates=tuple(_as_scalar(np.sum(panel_mass[:k])) for k in (PANELS // 2, PANELS)),
        )
    # end panel u = edge * (1 - tau), weight (1-tau)**beta on tau in [0, 1]
    edge = 0.5 ** PANELS
    tau, w = _jacobi_rule(PANEL_NODES, beta)
    end = scale * edge ** (beta + 1.0) * np.sum(w * np.asarray(g(1.0 - edge * (1.0 - tau))))
    return _as_scalar(end + np.sum(panel_mass))


@dataclass(frozen=True, eq=False)
class DiskGrid:
    """Product quadrature on the unit disk for the normalized area measure.

    Gauss-Legendre in the radius, uniform in the angle; ``weights`` sum
    to 1 so that ``disk_integral(lambda z: 1, grid) == 1``.
    """

    radial_order: int
    angular: int
    nodes: np.ndarray
    weights: np.ndarray

    @classmethod
    def build(cls, radial_order: int = 96, angular: int = 256) -> "DiskGrid":
        if radial_order < 1 or angular < 1:
            raise ParameterError("grid orders must be positive")
        x, v = roots_legendre(radial_order)
        radii = 0.5 * (x + 1.0)
        wr = 0.5 * v
        theta = 2.0 * np.pi * np.arange(angular) / angular
        nodes = (radii[:, None] * np.exp(1j * theta)[None, :]).ravel()
        weights = ((2.0 * radii * wr)[:, None] / angular * np.ones(angular)[None, :]).ravel()
        nodes.setflags(write=False)
        weights.setflags(write=False)
        return cls(radial_order=radial_order, angular=angular, nodes=nodes, weights=weights)


@lru_cache(maxsize=None)
def disk_grid(radial_order: int = 96, angular: int = 256) -> DiskGrid:
    return DiskGrid.build(radial_order=radial_order, angular=angular)


def disk_integral(g: Callable[[np.ndarray], np.ndarray], grid: DiskGrid | None = None):
    """Integral of ``g`` over the unit disk against normalized area measure."""
    if grid is None:
        grid = disk_grid()
    vals = np.asarray(g(grid.nodes))
    return _as_scalar(np.sum(grid.weights * vals))


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
    trailing half of the trace stays under ``threshold``.
    """

    levels: tuple[int, ...]
    values: tuple[float, ...]
    slope: float
    exponent: float
    verdict: str
    threshold: float
    notes: tuple[str, ...] = ()

    @property
    def bounded(self) -> bool:
        return self.verdict == BOUNDED

    def to_dict(self) -> dict:
        return {
            "levels": list(self.levels),
            "values": list(self.values),
            "slope": self.slope,
            "exponent": self.exponent,
            "verdict": self.verdict,
            "threshold": self.threshold,
            "notes": list(self.notes),
        }


def classify_growth(
    values: Sequence[float],
    levels: Iterable[int] | None = None,
    *,
    threshold: float = GROWTH_THRESHOLD,
    notes: Sequence[str] = (),
) -> GrowthReport:
    """Classify a dyadic trace as bounded or divergent.

    Any ``+inf`` sample short-circuits to divergent.  Otherwise a least
    squares line through ``(j, log S_j)`` over the trailing half of the
    finite samples decides: slope below ``threshold`` per level is
    bounded.  Fewer than 4 finite samples raise
    ``InconclusiveGrowthError``.
    """
    vals = np.asarray(list(values), dtype=float)
    if levels is None:
        lev = np.arange(1, vals.size + 1)
    else:
        lev = np.asarray(list(levels), dtype=int)
    if vals.shape != lev.shape:
        raise ParameterError(f"{vals.size} values but {lev.size} levels")
    note_list = list(notes)

    def report(slope: float, exponent: float, verdict: str) -> GrowthReport:
        return GrowthReport(
            levels=tuple(int(j) for j in lev),
            values=tuple(float(v) for v in vals),
            slope=slope,
            exponent=exponent,
            verdict=verdict,
            threshold=threshold,
            notes=tuple(note_list),
        )

    if vals.size and np.isposinf(vals).any():
        note_list.append("trace contains an infinite sample")
        return report(math.inf, math.inf, DIVERGENT)
    finite = np.isfinite(vals)
    if int(finite.sum()) < 4:
        raise InconclusiveGrowthError(
            f"only {int(finite.sum())} finite samples; need at least 4 to classify"
        )
    if float(np.max(vals[finite])) <= 0.0:
        note_list.append("trace is nonpositive")
        return report(0.0, 0.0, BOUNDED)
    idx = np.flatnonzero(finite)
    take = idx[-math.ceil(idx.size / 2):]
    y = np.log(np.maximum(vals[take], _LOG_FLOOR))
    slope = float(np.polyfit(lev[take].astype(float), y, 1)[0])
    exponent = slope / math.log(2.0)
    verdict = BOUNDED if slope < threshold else DIVERGENT
    return report(slope, exponent, verdict)


def sup_on_dyadic_boundary(
    h: Callable[[complex], float],
    depth: int = 18,
    angles: int = 1,
    *,
    start_level: int = 1,
    threshold: float = GROWTH_THRESHOLD,
    notes: Sequence[str] = (),
) -> GrowthReport:
    """Trace ``S_j = max over angles of h(a)`` at ``|a| = 1 - 2**-j``.

    With ``angles=1`` the probe points are real.  ``h`` returns a float
    and may return ``inf`` to mark a divergent sample.
    """
    if angles < 1:
        raise ParameterError(f"angles must be positive, got {angles}")
    radii = dyadic_radii(depth, start_level)
    theta = 2.0 * np.pi * np.arange(angles) / angles
    values = []
    for radius in radii:
        probes = radius * np.exp(1j * theta) if angles > 1 else np.asarray([radius + 0j])
        values.append(max(float(h(complex(a))) for a in probes))
    return classify_growth(
        values,
        range(start_level, depth + 1),
        threshold=threshold,
        notes=notes,
    )
