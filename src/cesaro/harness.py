"""Scenario runner: each scenario checks one structural claim at desk scale.

A scenario produces a ``ScenarioReport``: a claim sentence, the inputs,
a list of named checks with expected/observed values, and the traces
behind them.  Reports are plain data; the CLI writes their fields as JSON.
Every scenario runs at the fixed inputs below and records them in its
report.

Scenario ids:

* ``equivalence``        -- the five tail criteria agree on every labeled measure
* ``divergent-integral`` -- the kernel criterion's exponent restriction is sharp
* ``log-series``         -- the averaged constant: exact coefficients, Bloch
                            membership, and the divergent energy sum that
                            excludes the p = 0 endpoint
* ``kernel-membership``  -- kernel-series coefficient decay matches the
                            measure verdict on the whole corpus
* ``qp-range``           -- bounded functions map into the invariant-metric
                            space iff the measure passes, p in (0, 2)
* ``lambda-range``       -- same for the mean-Lipschitz target at order s,
                            p > max(1, 1/s), with the s = 1 reduction
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate
from typing import Sequence

from .binding import layer_binding
from .carleson import (
    CARLESON,
    NOT_CARLESON,
    CarlesonVerdict,
    box_test,
    is_s_carleson,
    kernel_integral,
)
from .corpus import corpus_entry, labeled_corpus
from .errors import ParameterError
from .measure import DEFAULT_ORDER, Lebesgue, MeasureSpec, PowerDensity, measure_to_dict
# bench/tracer.py wraps quad_measure under every module that imports it
from .numerics import quad_measure  # noqa: F401

__all__ = [
    "CheckRecord",
    "TraceRecord",
    "ScenarioReport",
    "SCENARIOS",
    "run_criterion_equivalence",
    "run_divergent_integral",
    "run_log_series",
    "run_kernel_membership",
    "run_qp_range",
    "run_lambda_range",
    "run_all",
]

# dyadic probe depth of every corpus battery
BATTERY_DEPTH = 18
# divergent-integral: order s, kernel exponent t, and the exponents
# r >= s at which the inner integral must diverge
DIVERGENT_S, DIVERGENT_T = 0.5, 1.0
DIVERGENT_R_VALUES = (0.5, 0.75)
# log-series needs order >= 256 for its dyadic energy blocks j = 6, 7, 8
LOG_SERIES_ORDER = DEFAULT_ORDER
# qp-range exponents, inside the stated range 0 < p < 2: at p = 0 the
# averaged constant already fails membership (its energy sum diverges)
QP_P_VALUES = (1.0, 1.5)
# lambda-range (s, p) cases, each with p > max(1, 1/s)
LAMBDA_CASES = ((0.5, 3.0), (1.0, 2.0))

# the names that load NumPy, by the layer each comes from; each scenario that
# reads them binds them first, so the battery scenarios run without NumPy
_LAYER = {
    **dict.fromkeys(("PowerSeries", "cesaro_mu", "cesaro_mu_s", "kernel_series"), "series"),
    **dict.fromkeys(("bloch_seminorm", "coeff_decay_test", "lambda_norm", "qp_seminorm"),
                    "spaces"),
    "bounded_test_functions": "corpus",
}

_bind, __getattr__ = layer_binding(globals(), _LAYER)


@dataclass(frozen=True)
class CheckRecord:
    """An expectation and what was observed.  With no ``band`` a check passes when the two
    are equal, else when every observed value lies in the closed band (NaN never does);
    ``margin`` is the least signed distance to its nearer end over the half-width, or None."""

    name: str
    expected: object
    observed: object
    band: tuple[float, float] | None = None
    passed: bool = field(init=False)
    margin: float | None = field(init=False)

    def __post_init__(self):
        obs, exp = self.observed, self.expected
        # element by element: a list's == takes one NaN object as equal to itself
        lists = type(obs) is type(exp) is list and len(obs) == len(exp)
        passed, margin = all(o == e for o, e in zip(obs, exp)) if lists else obs == exp, None
        if self.band is not None:
            lo, hi = self.band
            values = self.observed if isinstance(self.observed, list) else [self.observed]
            passed = all(lo <= v <= hi for v in values)
            if all(math.isfinite(v) for v in values):
                margin = float(min(min(v - lo, hi - v) for v in values) / (0.5 * (hi - lo)))
        object.__setattr__(self, "passed", bool(passed))
        object.__setattr__(self, "margin", margin)


@dataclass(frozen=True)
class TraceRecord:
    """A named level/value series, the plot-ready evidence behind checks."""

    name: str
    levels: tuple[int, ...]
    values: tuple[float, ...]


@dataclass(frozen=True)
class ScenarioReport:
    """A scenario's checks and traces; it passes when every check passes."""

    scenario: str
    claim: str
    inputs: dict
    checks: tuple[CheckRecord, ...]
    traces: tuple[TraceRecord, ...] = ()
    passed: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "checks", tuple(self.checks))
        object.__setattr__(self, "traces", tuple(self.traces))
        object.__setattr__(self, "passed", all(c.passed for c in self.checks))


@lru_cache(maxsize=None)
def _corpus_verdict(mu: MeasureSpec, s: float, depth: int) -> CarlesonVerdict:
    # measures are frozen and hashable, so scenario runs share batteries
    return is_s_carleson(mu, s, depth=depth)


def run_criterion_equivalence() -> ScenarioReport:
    """All five tail criteria must reproduce each corpus label."""
    entries = labeled_corpus()
    checks, traces = [], []
    for entry in entries:
        verdict = _corpus_verdict(entry.measure, entry.order, BATTERY_DEPTH)
        expected = CARLESON if entry.is_carleson else NOT_CARLESON
        checks.append(
            CheckRecord(
                name=f"consensus.{entry.name}",
                expected=expected,
                observed=verdict.consensus,
            )
        )
        traces.extend(
            TraceRecord(name=f"{entry.name}.{crit}", levels=rep.levels, values=rep.values)
            for crit, rep in verdict.reports.items()
        )
    return ScenarioReport(
        "equivalence",
        "For a finite positive measure on [0,1), the dyadic box trace, the "
        "moment trace, both boundary-kernel traces, and the disk-kernel trace "
        "stay bounded together or diverge together; every corpus label must "
        "be reproduced by all five.",
        {
            "depth": BATTERY_DEPTH,
            "measures": [e.name for e in entries],
        },
        checks,
        traces,
    )


def run_divergent_integral() -> ScenarioReport:
    """The kernel criterion's exponent restriction r < s is sharp.

    For the density ``(1-x)**(s-1)`` (which satisfies the order-s tail
    condition), the inner integral ``(1-x)**-r (1-ax)**-(s+t-r)`` is
    infinite at every probe point once ``r >= s``: ``kernel_integral``
    must come back ``+inf`` (a non-integrable endpoint exponent) while the
    box criterion still certifies the measure.
    """
    s, t = DIVERGENT_S, DIVERGENT_T
    mu = PowerDensity(s - 1.0)
    box = box_test(mu, s)
    checks = [
        CheckRecord(
            name="box_certifies_measure",
            expected="bounded",
            observed=box.verdict,
        )
    ]
    traces = [TraceRecord(name="box", levels=box.levels, values=box.values)]
    probes = [1.0 - 0.5 ** j for j in range(1, 5)]
    for r in DIVERGENT_R_VALUES:
        diverged = [math.isinf(kernel_integral(mu, a, s + t - r, r)) for a in probes]
        checks.append(
            CheckRecord(
                name=f"inner_integral_diverges.r={r:g}",
                expected=[True] * len(probes),
                observed=diverged,
            )
        )
    return ScenarioReport(
        "divergent-integral",
        "The boundary-kernel criterion requires its interior singularity "
        "exponent r to stay strictly below the order s: at r >= s the inner "
        "integral against the density (1-x)**(s-1) is infinite for every "
        "probe point, even though the measure itself satisfies the order-s "
        "tail condition.",
        {
            "measure": measure_to_dict(mu),
            "s": s,
            "t": t,
            "r_values": list(DIVERGENT_R_VALUES),
            "probes": probes,
        },
        checks,
        traces,
    )


# increments of the energy sum for a_n = 1/(n+1) over dyadic blocks
# approach log 2 from below; observed 0.656 / 0.674 / 0.683 at j = 6,7,8
_ENERGY_BAND = (0.64, 0.70)


def run_log_series() -> ScenarioReport:
    """The averaged constant is the truncated ``log(1/(1-z))/z``."""
    _bind(_LAYER)
    order = LOG_SERIES_ORDER
    mu = Lebesgue()
    g = cesaro_mu(PowerSeries.constant(1.0), mu, order)
    expected_coeffs = [1.0 / (n + 1.0) for n in range(order + 1)]
    # a complex equals a float when its imaginary part is zero and the real parts agree
    coeffs_exact = g.coeffs.tolist() == expected_coeffs
    value = g.eval(0.5)
    target = 2.0 * math.log(2.0)

    decay = coeff_decay_test(g)

    # energy-type sum: sum of n * a_n**2 grows like log, so its dyadic
    # increments settle near log 2 instead of vanishing
    cumulative = list(accumulate(n * (a * a) for n, a in enumerate(expected_coeffs)))
    increments = [cumulative[1 << j] - cumulative[1 << (j - 1)] for j in (6, 7, 8)]

    checks = [
        CheckRecord(
            name="coefficients_equal_reciprocals",
            expected=True,
            observed=coeffs_exact,
        ),
        CheckRecord(
            name="value_at_half_is_2log2",
            expected=target,
            observed=float(value.real),
            band=(target - 1e-10, target + 1e-10),
        ),
        CheckRecord(
            name="coefficient_decay_bounded",
            expected="bounded",
            observed=decay.verdict,
        ),
        CheckRecord(
            name="energy_increments_near_log2",
            expected=list(_ENERGY_BAND),
            observed=increments,
            band=_ENERGY_BAND,
        ),
    ]
    traces = [
        TraceRecord(name="coefficient_decay", levels=decay.levels, values=decay.values),
        TraceRecord(
            name="energy_partial_sums",
            levels=tuple(range(9)),
            values=tuple(cumulative[1 << j] for j in range(9)),
        ),
    ]
    return ScenarioReport(
        "log-series",
        "Averaging the constant 1 against Lebesgue measure gives coefficients "
        "exactly 1/(n+1), evaluating to 2 log 2 at z = 1/2; the coefficients "
        "pass the decay test (Bloch side), while the energy sum of n*a_n**2 "
        "grows by about log 2 per dyadic block, which is why the p = 0 "
        "endpoint must stay outside the membership range.",
        {"measure": measure_to_dict(mu), "order": order},
        checks,
        traces,
    )


def run_kernel_membership() -> ScenarioReport:
    """Kernel-series decay answers the same question as the criterion battery."""
    _bind(_LAYER)
    entries = labeled_corpus()
    order = 1 << 14
    checks, traces = [], []
    for entry in entries:
        f = kernel_series(entry.measure, entry.order, order)
        decay = coeff_decay_test(f)
        verdict = _corpus_verdict(entry.measure, entry.order, BATTERY_DEPTH)
        expect_bounded = verdict.consensus == CARLESON
        checks.append(
            CheckRecord(
                name=f"decay_matches_battery.{entry.name}",
                expected="bounded" if expect_bounded else "divergent",
                observed=decay.verdict,
            )
        )
        traces.append(
            TraceRecord(name=f"{entry.name}.decay", levels=decay.levels, values=decay.values)
        )
    return ScenarioReport(
        "kernel-membership",
        "The kernel series with coefficients gamma_ratio(n, s) * mu_n lies in "
        "the band of spaces between mean-Lipschitz and Bloch exactly when the "
        "measure satisfies the order-s tail condition, so its coefficient "
        "decay verdict must match the criterion battery on every corpus "
        "measure.",
        {"order": order, "depth": BATTERY_DEPTH, "measures": [e.name for e in entries]},
        checks,
        traces,
    )


def run_qp_range() -> ScenarioReport:
    """Bounded functions map into the invariant-metric space iff the tail holds.

    Sufficiency: the averaging transform of each sup-norm-1 test function
    against Lebesgue measure has a converged seminorm at every requested
    exponent.  Necessity: for an atomic measure that fails the tail
    condition, already the transform of the constant 1 has coefficients
    decaying too slowly for any of the target spaces.
    """
    _bind(_LAYER)
    necessity_order = 1 << 12
    mu_pos = Lebesgue()
    mu_neg = corpus_entry("dyadic_half_at_1").measure
    checks, traces = [], []
    for fname, f in bounded_test_functions():
        g = cesaro_mu(f, mu_pos)
        for p in QP_P_VALUES:
            est = qp_seminorm(g, p)
            checks.append(
                CheckRecord(
                    name=f"qp_converged.lebesgue.{fname}.p={p:g}",
                    expected=True,
                    observed=est.converged,
                )
            )
            traces.append(
                TraceRecord(
                    name=f"qp.{fname}.p={p:g}",
                    levels=est.levels,
                    values=est.trace,
                )
            )
    g_neg = kernel_series(mu_neg, 1.0, necessity_order)
    decay = coeff_decay_test(g_neg)
    checks.append(
        CheckRecord(
            name="necessity.dyadic_half.decay_exponent",
            expected=[0.4, 0.6],
            observed=decay.exponent,
            band=(0.4, 0.6),
        )
    )
    bloch = bloch_seminorm(g_neg)
    checks.append(
        CheckRecord(
            name="necessity.dyadic_half.bloch_unsettled",
            expected=False,
            observed=bloch.converged,
        )
    )
    traces.append(TraceRecord(name="necessity.decay", levels=decay.levels, values=decay.values))
    traces.append(
        TraceRecord(name="necessity.bloch", levels=bloch.levels, values=bloch.trace)
    )
    return ScenarioReport(
        "qp-range",
        "The averaging transform sends every bounded function into the "
        "invariant-metric space of exponent p in (0, 2) exactly when the "
        "measure satisfies the tail condition; necessity is witnessed by "
        "the transform of the constant 1, whose coefficients are the "
        "moments themselves.",
        {
            "p_values": list(QP_P_VALUES),
            "order": DEFAULT_ORDER,
            "necessity_order": necessity_order,
            "positive_measure": measure_to_dict(mu_pos),
            "negative_measure": measure_to_dict(mu_neg),
        },
        checks,
        traces,
    )


def run_lambda_range() -> ScenarioReport:
    """Mean-Lipschitz analog of the range scenario, with the s = 1 reduction."""
    _bind(_LAYER)
    necessity_order = 1 << 14
    necessity_for = {0.5: "dyadic_quarter_at_half", 1.0: "dyadic_half_at_1"}
    checks, traces = [], []
    for s, p in LAMBDA_CASES:
        mu_pos = PowerDensity(s - 1.0)
        for fname, f in bounded_test_functions():
            h = cesaro_mu_s(f, mu_pos, s)
            lam = lambda_norm(h, p)
            checks.append(
                CheckRecord(
                    name=f"lambda_converged.s={s:g}.p={p:g}.{fname}",
                    expected=True,
                    observed=lam.converged,
                )
            )
            traces.append(
                TraceRecord(
                    name=f"lambda.s={s:g}.p={p:g}.{fname}",
                    levels=lam.levels,
                    values=lam.trace,
                )
            )
            bloch = bloch_seminorm(h)
            checks.append(
                CheckRecord(
                    name=f"bloch_converged.s={s:g}.p={p:g}.{fname}",
                    expected=True,
                    observed=bloch.converged,
                )
            )
        if s == 1.0:
            mu = Lebesgue()
            f = dict(bounded_test_functions())["blaschke_half"]
            via_s = cesaro_mu_s(f, mu, 1.0)
            direct = cesaro_mu(f, mu)
            gap = max(abs(a - b) for a, b in zip(via_s.coeffs.tolist(), direct.coeffs.tolist()))
            checks.append(
                CheckRecord(
                    name="s1_reduction.blaschke_half",
                    expected=0.0,
                    observed=gap,
                    band=(-1e-12, 1e-12),
                )
            )
        neg_name = necessity_for[s]
        fk = kernel_series(corpus_entry(neg_name).measure, s, necessity_order)
        decay = coeff_decay_test(fk)
        checks.append(
            CheckRecord(
                name=f"necessity.s={s:g}.{neg_name}",
                expected="divergent",
                observed=decay.verdict,
            )
        )
        traces.append(
            TraceRecord(
                name=f"necessity.s={s:g}.decay",
                levels=decay.levels,
                values=decay.values,
            )
        )
    return ScenarioReport(
        "lambda-range",
        "The order-s weighted transform sends every bounded function into "
        "the mean-Lipschitz space of exponent p > max(1, 1/s) exactly when "
        "the measure satisfies the order-s tail condition; at s = 1 the "
        "weighted transform reduces to the plain averaging transform "
        "coefficient by coefficient.",
        {
            "cases": [list(c) for c in LAMBDA_CASES],
            "order": DEFAULT_ORDER,
            "necessity_order": necessity_order,
        },
        checks,
        traces,
    )


SCENARIOS = {
    "equivalence": run_criterion_equivalence,
    "divergent-integral": run_divergent_integral,
    "log-series": run_log_series,
    "kernel-membership": run_kernel_membership,
    "qp-range": run_qp_range,
    "lambda-range": run_lambda_range,
}


def run_all(names: Sequence[str] | None = None) -> tuple[ScenarioReport, ...]:
    """Run scenarios in declaration order."""
    names = tuple(names) if names is not None else tuple(SCENARIOS)
    for name in names:
        if name not in SCENARIOS:
            raise ParameterError(f"unknown scenario {name!r}; known: {', '.join(SCENARIOS)}")
    return tuple(SCENARIOS[name]() for name in names)
