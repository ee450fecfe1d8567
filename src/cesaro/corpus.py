"""Labeled test measures and bounded test functions for the scenarios.

The measures carry a ground-truth tail-decay label at a stated order,
settled by closed forms: geometric sums for the dyadic atoms and
``(1-t)**(alpha+1)/(alpha+1)`` for the power densities.  Atomic entries
appear only at orders <= 1, where the kernel-series coefficients are
products of two nonincreasing sequences; at higher orders the atomic
staircase makes those coefficients wiggle, which would break the
monotone-coefficient tests for reasons that have nothing to do with the
property under test.

The bounded functions are the usual suspects: constants, a monomial,
and Blaschke material with sup norm 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import check_real
from .measure import DEFAULT_ORDER, Atomic, Lebesgue, MeasureSpec, Mixture, PowerDensity

__all__ = [
    "LabeledMeasure",
    "dyadic_atoms",
    "labeled_corpus",
    "corpus_entry",
    "blaschke_factor",
    "bounded_test_functions",
]

# atoms 1-2**-k for k = 1..26: every dyadic probe depth j <= 18 still
# sees at least 8 atoms past the probe radius, so box/moment traces at
# default depths are free of truncation tails
DYADIC_ATOM_COUNT = 26


@dataclass(frozen=True)
class LabeledMeasure:
    """A measure with its ground-truth tail verdict at order ``order``."""

    name: str
    measure: MeasureSpec
    order: float
    is_carleson: bool


def dyadic_atoms(weight_exponent: float) -> Atomic:
    """Atoms at ``1 - 2**-k`` with weights ``2**(-k*weight_exponent)``.

    The tail at ``1 - 2**-j`` is a geometric sum comparable to
    ``2**(-j*weight_exponent)``, so the measure has tail order exactly
    ``weight_exponent``.
    """
    k = range(1, DYADIC_ATOM_COUNT + 1)
    return Atomic(
        points=tuple(1.0 - 0.5 ** kk for kk in k),
        weights=tuple(2.0 ** (-weight_exponent * kk) for kk in k),
    )


def labeled_corpus() -> tuple[LabeledMeasure, ...]:
    return (
        LabeledMeasure("lebesgue_at_1", Lebesgue(), 1.0, True),
        LabeledMeasure("power_half_at_half", PowerDensity(-0.5), 0.5, True),
        LabeledMeasure("power_linear_at_2", PowerDensity(1.0, scale=2.0), 2.0, True),
        LabeledMeasure("power_steep_at_2", PowerDensity(1.5), 2.0, True),
        LabeledMeasure("dyadic_unit_at_1", dyadic_atoms(1.0), 1.0, True),
        LabeledMeasure("point_mass_at_1", Atomic((0.5,), (1.0,)), 1.0, True),
        LabeledMeasure(
            "mixture_at_1",
            Mixture((Lebesgue(), Atomic((0.5,), (0.5,)))),
            1.0,
            True,
        ),
        LabeledMeasure("lebesgue_at_2", Lebesgue(), 2.0, False),
        LabeledMeasure("dyadic_half_at_1", dyadic_atoms(0.5), 1.0, False),
        LabeledMeasure("power_half_at_1", PowerDensity(-0.5), 1.0, False),
        LabeledMeasure("power_mid_at_2", PowerDensity(0.5), 2.0, False),
        LabeledMeasure("dyadic_quarter_at_half", dyadic_atoms(0.25), 0.5, False),
    )


def corpus_entry(name: str) -> LabeledMeasure:
    for entry in labeled_corpus():
        if entry.name == name:
            return entry
    raise KeyError(f"no corpus measure named {name!r}")


def blaschke_factor(a: complex) -> PowerSeries:
    """Series of ``(a - z)/(1 - conj(a) z)`` to ``DEFAULT_ORDER``, unit modulus on the boundary."""
    import numpy as np  # only the test functions need it; the corpus measures run without

    from .series import PowerSeries

    a = complex(a)
    check_real("|a|", abs(a), 0, 1, closed=True)
    coeffs = np.empty(DEFAULT_ORDER + 1, dtype=np.complex128)
    coeffs[0] = a
    n = np.arange(1, DEFAULT_ORDER + 1)
    coeffs[1:] = (abs(a) ** 2 - 1.0) * np.conj(a) ** (n - 1)
    return PowerSeries(coeffs)


def bounded_test_functions() -> tuple[tuple[str, PowerSeries], ...]:
    """Named sup-norm-1 test functions used by the range scenarios."""
    import numpy as np

    from .series import PowerSeries

    one = PowerSeries.constant(1.0)
    cube = PowerSeries.monomial(3)
    factor = blaschke_factor(0.5)
    other = blaschke_factor(-0.3 + 0.4j)
    pair = PowerSeries(np.convolve(factor.coeffs, other.coeffs)[: DEFAULT_ORDER + 1])
    return (
        ("constant_one", one),
        ("cube", cube),
        ("blaschke_half", factor),
        ("blaschke_pair", pair),
    )
