"""Closed forms that the benchmark checks program output against.

Nothing here imports ``cesaro``.  Every value is computed from the
definition of the measure or series with mpmath at 30 digits, so a check
compares the program with an independent computation, not with a stored
copy of an earlier run.

Measures are the plain dicts of the measure JSON format.  Atomic
measures built by ``dyadic_atoms`` carry an extra ``"tail_order"`` key
(stripped before the file is written): a finite list of atoms at
``1 - 2**-k`` stands for the infinite dyadic sequence it truncates, whose
tail ``mu([1-2**-j, 1))`` is a geometric sum of order ``2**(-j*w)``.  The
truncation is invisible at the probe depths used here, because at least
eight atoms lie past the deepest probe radius.
"""

from __future__ import annotations

import math

import mpmath as mp

mp.mp.dps = 30

# battery parameters the CLI uses by default
DEPTH = 18
MOMENT_LIMIT = 1 << 14
T_EXPONENT = 1.0


def lebesgue() -> dict:
    return {"type": "lebesgue"}


def power_density(alpha: float, scale: float = 1.0) -> dict:
    return {"type": "power_density", "alpha": alpha, "scale": scale}


def dyadic_atoms(weight_exponent: float, count: int = 26) -> dict:
    """Atoms at ``1 - 2**-k`` with weights ``2**(-k*w)``, ``k = 1..count``."""
    return {
        "type": "atomic",
        "points": [1.0 - 0.5**k for k in range(1, count + 1)],
        "weights": [2.0 ** (-weight_exponent * k) for k in range(1, count + 1)],
        "tail_order": weight_exponent,
    }


def mixture(*components: dict) -> dict:
    return {"type": "mixture", "components": list(components)}


def to_json(mu: dict) -> dict:
    """The measure as the program reads it (without oracle-only keys)."""
    out = {k: v for k, v in mu.items() if k != "tail_order"}
    if mu["type"] == "mixture":
        out["components"] = [to_json(c) for c in mu["components"]]
    return out


def tail_order(mu: dict) -> float:
    """Largest ``s`` with ``mu([t, 1)) = O((1-t)**s)``."""
    kind = mu["type"]
    if kind == "lebesgue":
        return 1.0
    if kind == "power_density":
        return mu["alpha"] + 1.0
    if kind == "atomic":
        return mu.get("tail_order", math.inf)
    return min(tail_order(c) for c in mu["components"])


def is_carleson(mu: dict, s: float) -> bool:
    return s <= tail_order(mu)


def _density(mu: dict) -> tuple[mp.mpf, mp.mpf]:
    if mu["type"] == "lebesgue":
        return mp.mpf(0), mp.mpf(1)
    return mp.mpf(mu["alpha"]), mp.mpf(mu["scale"])


def tail(mu: dict, t) -> mp.mpf:
    """``mu([t, 1))``."""
    t = mp.mpf(t)
    kind = mu["type"]
    if kind == "atomic":
        return mp.fsum(mp.mpf(w) for p, w in zip(mu["points"], mu["weights"]) if p >= t)
    if kind == "mixture":
        return mp.fsum(tail(c, t) for c in mu["components"])
    alpha, scale = _density(mu)
    return scale * (1 - t) ** (alpha + 1) / (alpha + 1)


def moment(mu: dict, n: int) -> mp.mpf:
    """``integral of x**n d mu(x)``."""
    kind = mu["type"]
    if kind == "atomic":
        return mp.fsum(mp.mpf(w) * mp.mpf(p) ** n for p, w in zip(mu["points"], mu["weights"]))
    if kind == "mixture":
        return mp.fsum(moment(c, n) for c in mu["components"])
    alpha, scale = _density(mu)
    return scale * mp.beta(n + 1, alpha + 1)


def kernel_integral(mu: dict, a, r, q) -> mp.mpf:
    """``integral of (1-x)**-r (1-a x)**-q d mu(x)`` for real ``0 <= a < 1``.

    For a density ``scale (1-x)**alpha`` this is the Euler integral
    ``scale * B(1, alpha-r+1) * 2F1(q, 1; alpha-r+2; a)``, infinite once
    ``alpha - r <= -1``.
    """
    a, r, q = mp.mpf(a), mp.mpf(r), mp.mpf(q)
    kind = mu["type"]
    if kind == "atomic":
        return mp.fsum(
            mp.mpf(w) * (1 - mp.mpf(p)) ** (-r) * (1 - a * mp.mpf(p)) ** (-q)
            for p, w in zip(mu["points"], mu["weights"])
        )
    if kind == "mixture":
        return mp.fsum(kernel_integral(c, a, r, q) for c in mu["components"])
    alpha, scale = _density(mu)
    if alpha - r <= -1:
        return mp.inf
    return scale * mp.beta(1, alpha - r + 1) * mp.hyp2f1(q, 1, alpha - r + 2, a)


def battery_traces(mu: dict, s: float, depth: int = DEPTH) -> dict[str, list[float]]:
    """Closed-form value of every sample of the five criterion traces.

    The complex-probe and disk-kernel traces take the supremum over a
    dyadic circle; since ``|1 - conj(a) x| >= 1 - |a| x`` on ``[0, 1)``,
    it is attained at the real probe ``a = |a|``.
    """
    s = mp.mpf(s)
    t = mp.mpf(T_EXPONENT)
    radii = [1 - mp.mpf(2) ** -j for j in range(1, depth + 1)]
    top = int(math.floor(math.log2(MOMENT_LIMIT)))
    r_real = s / 2
    out = {
        "box": [tail(mu, a) * mp.mpf(2) ** (j * s) for j, a in enumerate(radii, start=1)],
        "moment": [(1 + mp.mpf(2) ** j) ** s * moment(mu, 1 << j) for j in range(top + 1)],
        "integral_real": [
            (1 - a) ** t * kernel_integral(mu, a, r_real, s + t - r_real) for a in radii
        ],
        "integral_complex": [(1 - a) ** t * kernel_integral(mu, a, 0, s + t) for a in radii],
        "disk_kernel": [(1 - a * a) ** t * kernel_integral(mu, a, 0, s + t) for a in radii],
    }
    return {name: [float(v) for v in values] for name, values in out.items()}


# ---------------------------------------------------------------- series


def blaschke_factor(a: complex, order: int) -> list[complex]:
    """Coefficients of ``(a - z) / (1 - conj(a) z)`` up to ``z**order``."""
    a = complex(a)
    return [a] + [(abs(a) ** 2 - 1.0) * a.conjugate() ** (n - 1) for n in range(1, order + 1)]


def bounded_functions(order: int) -> dict[str, list[complex]]:
    """The four sup-norm-1 test functions: 1, z**3, one and two Blaschke factors."""
    half = blaschke_factor(0.5, order)
    other = blaschke_factor(complex(-0.3, 0.4), order)
    pair = [sum(half[k] * other[n - k] for k in range(n + 1)) for n in range(order + 1)]
    return {
        "constant_one": [1.0 + 0j],
        "cube": [0j, 0j, 0j, 1.0 + 0j],
        "blaschke_half": half,
        "blaschke_pair": pair,
    }


def transform_coefficients(mu: dict, coeffs: list[complex], order: int) -> list[mp.mpc]:
    """Order-1 averaging transform ``b_n = mu_n * (a_0 + ... + a_n)``."""
    out, partial = [], mp.mpc(0)
    for n in range(order + 1):
        if n < len(coeffs):
            partial += mp.mpc(coeffs[n])
        out.append(moment(mu, n) * partial)
    return out


def qp_level0(coeffs: list[complex], p: float) -> mp.mpf:
    """``integral |f'|**2 (1-|z|**2)**p dA`` by Parseval.

    Against normalized area measure the monomials are orthogonal and
    ``integral |z|**(2n-2) (1-|z|**2)**p dA = B(n, p+1)``, so the
    integral is ``sum n**2 |b_n|**2 B(n, p+1)``.
    """
    p = mp.mpf(p)
    return mp.fsum(n * n * abs(mp.mpc(b)) ** 2 * mp.beta(n, p + 1) for n, b in enumerate(coeffs) if n)


# ---------------------------------------------------------------- scenarios

# tail order and probed order of each labeled corpus measure of the
# ``equivalence`` scenario, from the closed-form tails: a power density
# (1-t)**alpha has order alpha+1, Lebesgue order 1, dyadic atoms of
# weight exponent w order w, and a single atom at 1/2 has no mass near 1
CORPUS_ORDERS = {
    "lebesgue_at_1": (1.0, 1.0),
    "power_half_at_half": (0.5, 0.5),
    "power_linear_at_2": (2.0, 2.0),
    "power_steep_at_2": (2.5, 2.0),
    "dyadic_unit_at_1": (1.0, 1.0),
    "point_mass_at_1": (math.inf, 1.0),
    "mixture_at_1": (1.0, 1.0),
    "lebesgue_at_2": (1.0, 2.0),
    "dyadic_half_at_1": (0.5, 1.0),
    "power_half_at_1": (0.5, 1.0),
    "power_mid_at_2": (1.5, 2.0),
    "dyadic_quarter_at_half": (0.25, 0.5),
}


def corpus_label(name: str) -> str:
    order, s = CORPUS_ORDERS[name]
    return "carleson" if s <= order else "not_carleson"


def two_log_two() -> float:
    """``log(1/(1-z))/z`` at ``z = 1/2``."""
    return float(2 * mp.log(2))
