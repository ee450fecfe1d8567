"""Finite positive Borel measures on [0, 1).

Four shapes are supported: finite sums of point masses, power densities
``scale * (1 - t)**alpha dt``, Lebesgue measure ``dt``, and finite
mixtures of the above.  All of them admit closed forms for the moments
``mu_n = integral of t**n`` and for the tail mass ``mu([t, 1))``, which
is what the Carleson criteria consume.  Instances are frozen and safe to
share between threads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Union

from .errors import ParameterError, check_int, check_real

__all__ = [
    "Atomic",
    "PowerDensity",
    "Lebesgue",
    "Mixture",
    "MeasureSpec",
    "MAX_ORDER",
    "check_order",
    "moments_array",
    "tail_mass",
    "total_mass",
    "measure_from_dict",
    "measure_to_dict",
    "load_measure",
]


@dataclass(frozen=True)
class Atomic:
    """Point masses ``weights[i]`` at locations ``points[i]``, all in [0, 1)."""

    points: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        points = tuple(check_real("points", t, 0, 1, closed=True) for t in self.points)
        weights = tuple(check_real("weights", w, 0) for w in self.weights)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", weights)
        if len(self.points) != len(self.weights):
            raise ParameterError(f"{len(self.points)} points but {len(self.weights)} weights")
        if not self.points:
            raise ParameterError("atomic measure needs at least one atom")
        if len(set(self.points)) != len(self.points):
            raise ParameterError("atom locations must be distinct")


@dataclass(frozen=True)
class PowerDensity:
    """Absolutely continuous measure ``scale * (1 - t)**alpha dt`` on [0, 1).

    Integrable exactly when ``alpha > -1``; ``alpha = 0`` with ``scale = 1``
    is Lebesgue measure.
    """

    alpha: float
    scale: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "alpha", check_real("alpha", self.alpha, -1))
        object.__setattr__(self, "scale", check_real("scale", self.scale, 0))


@dataclass(frozen=True)
class Lebesgue:
    """Lebesgue measure ``dt`` restricted to [0, 1)."""


@dataclass(frozen=True)
class Mixture:
    """Finite sum of component measures."""

    components: tuple["MeasureSpec", ...]

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        if not self.components:
            raise ParameterError("mixture needs at least one component")
        for part in self.components:
            if not isinstance(part, (Atomic, PowerDensity, Lebesgue, Mixture)):
                raise ParameterError(f"mixture component {part!r} is not a measure")


MeasureSpec = Union[Atomic, PowerDensity, Lebesgue, Mixture]

# deepest mixture nesting a measure file may use
MAX_NESTING = 32


# deepest truncation order a moment table or transform may ask for
MAX_ORDER = 1 << 20


def check_order(n: int) -> int:
    """``n`` as an int, if it is an integer in ``[0, MAX_ORDER]``."""
    return check_int("order", n, 0, MAX_ORDER)


def moments_array(mu: MeasureSpec, order: int):
    """Moments ``mu_0 .. mu_order`` as a NumPy float array, by closed form."""
    import numpy as np  # only the moment tables need it; the battery runs without
    order = check_order(order)
    n = np.arange(order + 1, dtype=float)
    if isinstance(mu, Atomic):
        # one atom at a time keeps memory at a few order-length arrays;
        # 0**0 = 1 by numpy convention, which is the right mu_0 here
        total = np.zeros(order + 1)
        for p, w in zip(mu.points, mu.weights):
            total += w * p ** n
        return total
    if isinstance(mu, Lebesgue):
        return 1.0 / (n + 1.0)
    if isinstance(mu, PowerDensity):
        # mu_n = mu_{n-1} * n / (n + alpha + 1) from mu_0 = scale / (alpha + 1)
        return np.cumprod(np.where(n > 0, n / (n + (mu.alpha + 1.0)), mu.scale / (mu.alpha + 1.0)))
    if isinstance(mu, Mixture):
        total = np.zeros(order + 1)
        for part in mu.components:
            total += moments_array(part, order)
        return total
    raise ParameterError(f"not a measure: {mu!r}")


def tail_mass(mu: MeasureSpec, t: float) -> float:
    """Mass of the interval ``[t, 1)``."""
    t = check_real("t", t, 0, 1, closed=True)
    if isinstance(mu, Atomic):
        return float(sum(w for p, w in zip(mu.points, mu.weights) if p >= t))
    if isinstance(mu, Lebesgue):
        return 1.0 - t
    if isinstance(mu, PowerDensity):
        return mu.scale * (1.0 - t) ** (mu.alpha + 1.0) / (mu.alpha + 1.0)
    if isinstance(mu, Mixture):
        return float(sum(tail_mass(part, t) for part in mu.components))
    raise ParameterError(f"not a measure: {mu!r}")


def total_mass(mu: MeasureSpec) -> float:
    return tail_mass(mu, 0.0)


def measure_to_dict(mu: MeasureSpec) -> dict:
    if isinstance(mu, Atomic):
        return {"type": "atomic", "points": list(mu.points), "weights": list(mu.weights)}
    if isinstance(mu, PowerDensity):
        return {"type": "power_density", "alpha": mu.alpha, "scale": mu.scale}
    if isinstance(mu, Lebesgue):
        return {"type": "lebesgue"}
    if isinstance(mu, Mixture):
        return {"type": "mixture", "components": [measure_to_dict(p) for p in mu.components]}
    raise ParameterError(f"not a measure: {mu!r}")


def _from_dict(data, depth: int) -> MeasureSpec:
    if not isinstance(data, dict) or "type" not in data:
        raise ParameterError(f"measure config must be an object with a 'type': {data!r}")
    kind = data["type"]
    extra = set(data) - {"type", "points", "weights", "alpha", "scale", "components"}
    if extra:
        raise ParameterError(f"unknown measure fields: {sorted(extra)}")
    if kind == "atomic":
        points, weights = data.get("points", []), data.get("weights", [])
        if not (isinstance(points, list) and isinstance(weights, list)):
            raise ParameterError("atomic points and weights must be lists")
        return Atomic(points, weights)
    if kind == "power_density":
        if "alpha" not in data:
            raise ParameterError("power_density needs an 'alpha' field")
        return PowerDensity(alpha=data["alpha"], scale=data.get("scale", 1.0))
    if kind == "lebesgue":
        return Lebesgue()
    if kind == "mixture":
        if depth >= MAX_NESTING:
            raise ParameterError(f"mixtures nest deeper than {MAX_NESTING} levels")
        parts = data.get("components", [])
        if not isinstance(parts, list):
            raise ParameterError("mixture components must be a list")
        return Mixture(components=tuple(_from_dict(p, depth + 1) for p in parts))
    raise ParameterError(f"unknown measure type {kind!r}")


def measure_from_dict(data: dict) -> MeasureSpec:
    """Rebuild a measure from its JSON form; raises on unknown or bad fields."""
    mu = _from_dict(data, 0)
    # every moment is at most the total mass, so this keeps them finite
    if not math.isfinite(total_mass(mu)):
        raise ParameterError("total mass overflows")
    return mu


def load_measure(path: str | Path) -> MeasureSpec:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise ParameterError(f"{path}: not valid JSON: {exc}") from None
    return measure_from_dict(data)
