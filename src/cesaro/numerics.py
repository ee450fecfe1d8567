"""Quadrature against measures and dyadic growth classification, in pure Python.

The two workhorses are ``quad_measure`` (integrate a function against a
measure on [0, 1), with an optional endpoint singularity at 1) and
``classify_growth`` (decide whether a trace sampled at dyadic levels
``j`` stays bounded or grows like ``2**(j*epsilon)``).

``sup_rise`` is the one settle rule for every trace: the largest relative
rise of the running supremum over the last few levels.  A seminorm
estimate is ``converged`` when that rise over one level is at most
``SUP_CONVERGENCE_RTOL``; a growth report records the rise over
``RISE_WINDOW`` levels next to its slope verdict.

Integrands see ``u = 1 - t``, so a kernel can form ``1 - a t = (1 - a) +
a u`` without cancellation.  Density parts use one fixed rule:
``PANEL_NODES``-point Gauss-Legendre in ``s = -ln u`` on each of
``PANELS`` panels ``PANEL_OCTAVES`` octaves wide, down to ``u = EDGE``,
with the endpoint factor ``u**beta`` (``beta = alpha - r``) in the
weights.  The end piece ``u < EDGE`` is ``g(0) EDGE**(beta+1) / (beta+1)``
per unit scale.  A non-integrable end weight (``beta <= -1``) raises
``NumericsError`` with the partial sums after half and after all of the
panels.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from operator import mul
from typing import Callable, Iterable, Sequence

from .errors import NumericsError, ParameterError, check_int, check_real
from .measure import Atomic, Lebesgue, MeasureSpec, Mixture, PowerDensity

__all__ = [
    "PANELS",
    "PANEL_OCTAVES",
    "PANEL_NODES",
    "EDGE",
    "GROWTH_THRESHOLD",
    "SUP_CONVERGENCE_RTOL",
    "RISE_WINDOW",
    "BOUNDED",
    "DIVERGENT",
    "quad_measure",
    "dyadic_radii",
    "sup_rise",
    "GrowthReport",
    "classify_growth",
    "sup_on_dyadic_boundary",
]

PANELS, PANEL_OCTAVES, PANEL_NODES = 50, 2, 12
EDGE = 0.5 ** (PANELS * PANEL_OCTAVES)
# slope threshold in log-space per dyadic level, the battery's growth resolution:
# growth below 2**(0.1*j) over the trailing half of a trace reads as bounded
GROWTH_THRESHOLD = 0.1 * math.log(2.0)
# a seminorm trace has settled when its running supremum rose by at most this
# share over the last level; a growth report records its rise over RISE_WINDOW levels
SUP_CONVERGENCE_RTOL = 0.02
RISE_WINDOW = 3

BOUNDED = "bounded"
DIVERGENT = "divergent"

_LOG_FLOOR = 1e-300


# the PANEL_NODES-point Gauss-Legendre rule on [-1, 1], correctly rounded: its
# positive nodes and their weights (the rule is symmetric about 0)
_GL_NODES = (0.1252334085114689, 0.3678314989981802, 0.5873179542866175,
             0.7699026741943047, 0.9041172563704749, 0.9815606342467192)
_GL_WEIGHTS = (0.24914704581340277, 0.2334925365383548, 0.20316742672306592,
               0.16007832854334622, 0.10693932599531843, 0.04717533638651183)


@functools.cache
def _panel_rule() -> tuple[tuple[float, ...], tuple[float, ...]]:
    # nodes u = 2**-e run panel by panel, e in [k, k+1] * PANEL_OCTAVES; each weight
    # carries du/ds = u, so it integrates a function of u against du.  Built on first use.
    x = [-v for v in reversed(_GL_NODES)] + list(_GL_NODES)
    w = [*reversed(_GL_WEIGHTS), *_GL_WEIGHTS]
    half = 0.5 * PANEL_OCTAVES
    nodes = [0.5 ** (half * (2 * k + 1 + xi)) for k in range(PANELS) for xi in x]
    weights = [half * math.log(2.0) * wi * u for u, wi in zip(nodes, w * PANELS)]  # w per panel
    return tuple(nodes), tuple(weights)


@functools.lru_cache(maxsize=16)
def _endpoint_weights(beta: float) -> tuple[float, ...]:
    # w * u**beta, shared by every probe of a trace; raises OverflowError when
    # u**beta leaves float range, which needs beta below about -10
    nodes, weights = _panel_rule()
    return tuple(w * u ** beta for u, w in zip(nodes, weights))


# bench/tracer.py still looks these names up; no rule or disk grid is built
roots_jacobi = _jacobi_rule = None


class DiskGrid:
    build = classmethod(lambda cls: None)


def _integrate(g, mu: MeasureSpec, r: float):
    if isinstance(mu, Atomic):
        u = [1.0 - t for t in mu.points]  # exact for t >= 1/2
        return sum(map(mul, [w * x ** -r for x, w in zip(u, mu.weights)], g(u)))
    if isinstance(mu, Mixture):
        return sum(_integrate(g, part, r) for part in mu.components)
    if isinstance(mu, Lebesgue):
        alpha, scale = 0.0, 1.0
    elif isinstance(mu, PowerDensity):
        alpha, scale = mu.alpha, mu.scale
    else:
        raise ParameterError(f"not a measure: {mu!r}")
    beta = alpha - r
    nodes = _panel_rule()[0]
    if beta <= -1.0:
        try:
            terms = list(map(mul, _endpoint_weights(beta), g(nodes)))
        except OverflowError:  # u**beta past float range
            terms = [math.inf] * 2
        raise NumericsError(f"endpoint exponent {beta:g} is not integrable", estimates=(
            scale * sum(terms[:len(terms) // 2]), scale * sum(terms)))
    panels = sum(map(mul, _endpoint_weights(beta), g(nodes)))
    # end piece u < EDGE: g varies too little there to need more than its value at 0
    (end,) = g((0.0,))
    return scale * (panels + EDGE ** (beta + 1.0) / (beta + 1.0) * end)


def quad_measure(g: Callable[[Sequence[float]], Iterable], mu: MeasureSpec, *,
                 singular_exponent: float = 0.0):
    """Integrate ``g(u) * u**(-singular_exponent)``, ``u = 1 - t``, against ``mu(dt)``.

    ``g`` takes a sequence of nodes in ``u`` and returns its values there,
    real or complex.  Atomic parts are summed exactly.  Density parts use
    the fixed panel rule; an endpoint exponent ``alpha -
    singular_exponent <= -1`` is not integrable and raises
    ``NumericsError``, which is how a divergent integral announces
    itself; so does an integral that overflows.  A non-finite exponent
    raises ``ParameterError``.
    """
    r = check_real("singular_exponent", singular_exponent, -math.inf)
    try:
        value = _integrate(g, mu, r)
    except OverflowError:
        value = math.inf
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise NumericsError("integral against the measure overflows")
    return value


def dyadic_radii(depth: int, start_level: int = 1) -> list[float]:
    """Radii ``1 - 2**-j`` for ``j = start_level .. depth``."""
    if depth < start_level:
        raise ParameterError(f"depth {depth} below start level {start_level}")
    return [1.0 - 0.5 ** j for j in range(start_level, depth + 1)]


def sup_rise(values: Sequence[float], window: int) -> tuple[float, int]:
    """Largest relative rise of the running supremum over the last ``window`` steps.

    Returns ``(rise, k)`` with ``k`` the index into ``values`` where that
    rise happened; ties go to the later index.  The step into index ``k``
    rises by ``(run[k] - run[k-1]) / |run[k]|`` for the running supremum
    ``run``, and by 0 where ``run[k]`` is 0.  Any non-finite sample makes
    the rise ``inf``, at the first such index.  A one-sample trace has
    nothing to rise over: its rise is 0 at index 0.  An empty trace raises
    ``ParameterError``.
    """
    if not values:
        raise ParameterError("an empty trace has no running supremum")
    for k, v in enumerate(values):
        if not math.isfinite(v):
            return math.inf, k
    run = list(itertools.accumulate(values, max))
    rise, at = 0.0, len(run) - 1
    for k in range(max(1, len(run) - window), len(run)):
        step = (run[k] - run[k - 1]) / abs(run[k]) if run[k] else 0.0
        if step >= rise:
            rise, at = step, k
    return rise, at


@dataclass(frozen=True)
class GrowthReport:
    """Outcome of fitting ``log S_j`` against the dyadic level ``j``.

    ``exponent`` is the fitted growth ``epsilon`` in ``S_j ~ 2**(j*epsilon)``
    (``slope / log 2``); the verdict is ``bounded`` when the slope over the
    trailing half of the trace stays under ``threshold``.  Both follow
    from ``slope``.  ``rise`` and ``rise_level`` are ``sup_rise`` over the
    last ``rise_window`` levels of ``values``; they do not enter the verdict.
    """

    levels: tuple[int, ...]
    values: tuple[float, ...]
    slope: float
    notes: tuple[str, ...] = ()
    exponent: float = field(init=False)
    verdict: str = field(init=False)
    threshold: float = field(init=False, default=GROWTH_THRESHOLD)
    rise: float = field(init=False)
    rise_level: int = field(init=False)
    rise_window: int = field(init=False, default=RISE_WINDOW)

    def __post_init__(self):
        object.__setattr__(self, "exponent", self.slope / math.log(2.0))
        object.__setattr__(self, "verdict", BOUNDED if self.slope < self.threshold else DIVERGENT)
        rise, k = sup_rise(self.values, self.rise_window)
        object.__setattr__(self, "rise", rise)
        object.__setattr__(self, "rise_level", self.levels[k])

    @property
    def bounded(self) -> bool:
        return self.verdict == BOUNDED


def classify_growth(values: Sequence[float], levels: Iterable[int] | None = None) -> GrowthReport:
    """Classify a dyadic trace as bounded or divergent.

    Any ``+inf`` sample short-circuits to divergent.  Otherwise a least
    squares line through ``(j, log S_j)`` over the trailing half of the
    finite samples decides: slope below ``GROWTH_THRESHOLD`` per level is
    bounded.  Fewer than 4 finite samples raise ``NumericsError``.
    """
    vals = [float(v) for v in values]
    lev = list(range(1, len(vals) + 1)) if levels is None else [int(j) for j in levels]
    if not len(vals) == len(set(lev)) == len(lev):
        raise ParameterError(f"{len(vals)} values need as many distinct levels, got {lev}")
    trace = {"levels": tuple(lev), "values": tuple(vals)}
    if math.inf in vals:
        return GrowthReport(**trace, slope=math.inf, notes=("trace contains an infinite sample",))
    finite = [(j, v) for j, v in zip(lev, vals) if math.isfinite(v)]
    if len(finite) < 4:
        raise NumericsError(f"only {len(finite)} finite samples; need at least 4 to classify")
    if max(v for _, v in finite) <= 0.0:
        return GrowthReport(**trace, slope=0.0, notes=("trace is nonpositive",))
    take = finite[-math.ceil(len(finite) / 2):]
    # least squares: the slope is sum(dx * y) / sum(dx**2) with dx centred on the mean level
    x_mean = sum(j for j, _ in take) / len(take)
    dx = [j - x_mean for j, _ in take]
    y = [math.log(max(v, _LOG_FLOOR)) for _, v in take]
    slope = math.fsum(d * yi for d, yi in zip(dx, y)) / math.fsum(d * d for d in dx)
    return GrowthReport(**trace, slope=slope)


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
    angles = check_int("angles", angles, 1)
    theta = [2.0 * math.pi * k / angles for k in range(angles)]
    turns = [complex(math.cos(t), math.sin(t)) for t in theta] if angles > 1 else [1.0]
    radii = dyadic_radii(depth, start_level)
    values = [max(float(h(radius * w)) for w in turns) for radius in radii]
    return classify_growth(values, range(start_level, depth + 1))
