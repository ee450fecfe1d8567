"""The benchmark's three workloads: the CLI calls of one pass and their checks.

A workload is built from a seed and a scratch directory.  It writes the
input files there and returns the calls of one pass, in order; a later
call may read what an earlier one wrote.  Each call knows the exit code
the paper's theorem predicts and checks its own output against
``oracles``, returning a list of problems (empty when the output is
right).  Oracle values that depend only on the inputs are computed once
per workload and shared by every pass.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from functools import cache
from pathlib import Path
from typing import Callable

import mpmath as mp

import oracles

# relative tolerances, each with the reason it is what it is
EXACT_RTOL = 1e-9  # closed-form box/moment/transform values: float rounding only
QUAD_RTOL = 10 * 1e-5  # ten times the battery's inner-quadrature tolerance
QP_LEVEL0_RTOL = 1e-5  # the disk grid integrates the a = 0 probe to ~1e-9
LEVEL0_RTOL = 1e-12  # (1-|0|**2)|f'(0)| and Mp(f', 0) are |b_1| up to rounding

TRANSFORM_ORDER = 400
QP_CALLS = 3  # of the four transforms; each qp call is about 8 s
NECESSITY_ORDER = 1 << 12


@dataclass
class Call:
    """One fresh-process CLI call: ``python -m cesaro.cli <args>``."""

    name: str
    args: list[str]
    expect_rc: int
    stdout: Path
    check: Callable[[], list[str]]


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def _write_coeffs(path: Path, coeffs: list[complex]) -> None:
    path.write_text("".join(f"{c.real!r} {c.imag!r}\n" for c in coeffs), encoding="utf-8")


def _read_coeffs(path: Path) -> list[complex]:
    out = []
    for line in path.read_text(encoding="utf-8").splitlines():
        re_part, im_part = line.split()
        out.append(complex(float(re_part), float(im_part)))
    return out


def _load(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _close(got: float, want: float, rtol: float) -> bool:
    """``got`` within a relative ``rtol`` of finite ``want``; NaN is never close.

    Every check is written as "reject unless it holds", so that a NaN,
    which compares false with everything, is rejected.
    """
    return got == want or abs(got - want) <= rtol * abs(want)


# ---------------------------------------------------------------- battery


def _battery_inputs(rng: random.Random) -> list[tuple[str, dict, float]]:
    """Five measures, each with an order ``s`` whose verdict is settled.

    Each ``s`` is either exactly the measure's tail order or clear of it
    by at least 0.2, twice the battery's growth resolution.  The ranges
    also fix how far the inner quadrature escalates in each slot (Jacobi
    rules up to 4096 nodes for orders up to 1.2, 8192 nodes in the
    divergent slot), so a pass costs about the same on every seed.
    """
    alpha = rng.uniform(-0.8, 0.1)
    at_order = ("density_at_order", oracles.power_density(alpha), alpha + 1.0)
    # s >= 2(alpha+1) makes the real-kernel inner integral diverge
    alpha = rng.uniform(-0.8, -0.4)
    diverging = (
        "density_diverging",
        oracles.power_density(alpha, rng.uniform(0.5, 2.0)),
        2.0 * (alpha + 1.0) + rng.uniform(0.0, 0.3),
    )
    below = ("lebesgue_below", oracles.lebesgue(), rng.uniform(0.3, 0.8))
    w = rng.uniform(0.25, 1.5)
    atoms = (
        "dyadic_atoms",
        oracles.dyadic_atoms(w),
        rng.choice([w, w + rng.uniform(0.2, 0.5), w - rng.uniform(0.2, min(0.5, w - 0.05))]),
    )
    w = rng.uniform(0.5, 1.0)
    mix = (
        "mixture",
        oracles.mixture(oracles.power_density(rng.uniform(0.0, 1.0)), oracles.dyadic_atoms(w)),
        rng.choice([w, w + rng.uniform(0.2, 0.4)]),
    )
    return [at_order, diverging, below, atoms, mix]


def _check_battery(path: Path, mu: dict, s: float, oracle: Callable[[], dict]) -> list[str]:
    payload = _load(path)
    problems = []
    want = "carleson" if oracles.is_carleson(mu, s) else "not_carleson"
    if payload["consensus"] != want:
        problems.append(f"consensus {payload['consensus']}, closed form says {want}")
    for crit, values in oracle().items():
        got = payload["reports"][crit]["values"]
        if len(got) != len(values):
            problems.append(f"{crit}: {len(got)} samples, expected {len(values)}")
            continue
        rtol = EXACT_RTOL if crit in ("box", "moment") else QUAD_RTOL
        for level, (g, v) in enumerate(zip(got, values)):
            if not (g == v if math.isinf(v) else _close(g, v, rtol)):
                problems.append(f"{crit}[{level}] = {g!r}, closed form {v!r}")
    return problems


def battery(seed: int, work: Path) -> list[Call]:
    """``cesaro carleson`` on five seeded measure files."""
    rng = random.Random(f"battery-{seed}")
    calls = []
    for name, mu, s in _battery_inputs(rng):
        measure = work / f"{name}.json"
        _write_json(measure, oracles.to_json(mu))
        out = work / f"{name}.out.json"
        oracle = cache(lambda mu=mu, s=s: oracles.battery_traces(mu, s))
        calls.append(
            Call(
                name=f"carleson.{name}",
                args=["carleson", "--measure", str(measure), "--s", repr(s)],
                expect_rc=0,
                stdout=out,
                check=lambda out=out, mu=mu, s=s, oracle=oracle: _check_battery(out, mu, s, oracle),
            )
        )
    return calls


# ---------------------------------------------------------------- range


def _range_measure(rng: random.Random) -> dict:
    """A measure of tail order at least 1, so the transform maps into every target."""
    kind = rng.choice(["power_density", "lebesgue", "dyadic_atoms", "mixture"])
    if kind == "power_density":
        return oracles.power_density(rng.uniform(0.0, 1.5), rng.uniform(0.5, 2.0))
    if kind == "lebesgue":
        return oracles.lebesgue()
    if kind == "dyadic_atoms":
        return oracles.dyadic_atoms(rng.uniform(1.0, 2.0))
    return oracles.mixture(
        oracles.power_density(rng.uniform(0.0, 1.0)), oracles.dyadic_atoms(rng.uniform(1.0, 2.0))
    )


def _check_transform(path: Path, oracle: Callable[[], list[mp.mpc]]) -> list[str]:
    got = _read_coeffs(path)
    want = oracle()
    if len(got) != len(want):
        return [f"{len(got)} coefficients, expected {len(want)}"]
    # relative to each coefficient, with a floor for those far below the largest
    scale = max(abs(w) for w in want)
    for n, (g, w) in enumerate(zip(got, want)):
        if not abs(mp.mpc(g) - w) <= EXACT_RTOL * (abs(w) + 1e-6 * scale):
            return [f"b_{n} = {g!r}, moment times partial sum is {complex(w)!r}"]
    return []


def _check_seminorm(path: Path, source: Path, space: str, p: float | None) -> list[str]:
    payload = _load(path)
    b = _read_coeffs(source)
    problems = []
    if payload["space"] != space or not payload["converged"]:
        problems.append(f"space {payload['space']}, converged {payload['converged']}")
    # a Carleson-side transform lies in the space: its seminorm is finite
    if not all(math.isfinite(v) for v in [payload["value"], *payload["trace"]]):
        problems.append(f"non-finite value {payload['value']!r} or trace entry")
    level0 = payload["trace"][0]
    if space == "qp":
        want = float(oracles.qp_level0(b, p))
        if not _close(level0, want, QP_LEVEL0_RTOL):
            problems.append(f"qp level 0 = {level0!r}, Parseval sum {want!r}")
    elif space in ("bloch", "lambda"):
        want = abs(b[1]) if len(b) > 1 else 0.0
        if not abs(level0 - want) <= LEVEL0_RTOL * max(want, 1e-300):
            problems.append(f"{space} level 0 = {level0!r}, |b_1| = {want!r}")
    else:
        # maximum principle and the triangle inequality bracket the max modulus
        lo, hi = abs(b[0]), sum(abs(c) for c in b)
        if not lo * (1 - LEVEL0_RTOL) <= payload["value"] <= hi * (1 + LEVEL0_RTOL):
            problems.append(f"hinf value {payload['value']!r} outside [{lo!r}, {hi!r}]")
    return problems


def _check_necessity(path: Path) -> list[str]:
    payload = _load(path)
    if payload["converged"]:
        return ["Bloch estimate settled for a measure that is not 1-Carleson"]
    return []


def _stratified(rng: random.Random, lo: float, hi: float, k: int) -> list[float]:
    """``k`` exponents, one drawn from each of ``k`` equal parts of [lo, hi].

    Every pass then spans the whole range, and the exponent-dependent
    cost (``Mp`` takes twice the angles near ``p = 1.6`` as at ``p = 2``)
    is about the same on every seed.
    """
    width = (hi - lo) / k
    return [lo + width * (j + rng.random()) for j in range(k)]


def range_(seed: int, work: Path) -> list[Call]:
    """Transforms of the bounded functions, then seminorms of the results."""
    rng = random.Random(f"range-{seed}")
    mu = _range_measure(rng)
    measure = work / "carleson_measure.json"
    _write_json(measure, oracles.to_json(mu))
    functions = oracles.bounded_functions(TRANSFORM_ORDER)
    names = sorted(functions)
    # below p = 0.6 the fixed disk grids stop agreeing on slowly decaying
    # transforms, and below about 1.45 the circle means stop settling
    p_qp = dict(zip(rng.sample(names, QP_CALLS), _stratified(rng, 0.75, 1.95, QP_CALLS)))
    p_lambda = dict(zip(rng.sample(names, len(names)), _stratified(rng, 1.6, 4.0, len(names))))
    calls: list[Call] = []
    seminorms: list[Call] = []
    for fname, coeffs in functions.items():
        source = work / f"{fname}.txt"
        _write_coeffs(source, coeffs)
        image = work / f"{fname}.image.txt"
        oracle = cache(
            lambda coeffs=coeffs: oracles.transform_coefficients(mu, coeffs, TRANSFORM_ORDER)
        )
        calls.append(
            Call(
                name=f"transform.{fname}",
                args=["transform", "--measure", str(measure), "--input", str(source),
                      "--order", str(TRANSFORM_ORDER), "--out", str(image)],
                expect_rc=0,
                stdout=work / f"{fname}.transform.log",
                check=lambda image=image, oracle=oracle: _check_transform(image, oracle),
            )
        )
        spaces = [("qp", p_qp[fname])] if fname in p_qp else []
        spaces += [("bloch", None), ("lambda", p_lambda[fname]), ("hinf", None)]
        for space, p in spaces:
            out = work / f"{fname}.{space}.json"
            extra = [] if p is None else ["--p", repr(p)]
            seminorms.append(
                Call(
                    name=f"seminorm.{space}",
                    args=["seminorm", "--space", space, *extra, "--input", str(image)],
                    expect_rc=0,
                    stdout=out,
                    check=lambda out=out, image=image, space=space, p=p: _check_seminorm(
                        out, image, space, p
                    ),
                )
            )
    # necessity: the transform of 1 against a measure of tail order w < 1
    # has coefficients mu_n ~ n**-w, whose Bloch trace keeps growing
    w = rng.uniform(0.25, 0.75)
    negative = oracles.dyadic_atoms(w)
    neg_measure = work / "non_carleson_measure.json"
    _write_json(neg_measure, oracles.to_json(negative))
    neg_image = work / "necessity.image.txt"
    neg_oracle = cache(
        lambda: oracles.transform_coefficients(negative, [1.0 + 0j], NECESSITY_ORDER)
    )
    calls.append(
        Call(
            name="transform.necessity",
            args=["transform", "--measure", str(neg_measure), "--constant", "1.0",
                  "--order", str(NECESSITY_ORDER), "--out", str(neg_image)],
            expect_rc=0,
            stdout=work / "necessity.transform.log",
            check=lambda: _check_transform(neg_image, neg_oracle),
        )
    )
    neg_out = work / "necessity.bloch.json"
    seminorms.append(
        Call(
            name="seminorm.bloch_necessity",
            args=["seminorm", "--space", "bloch", "--input", str(neg_image)],
            expect_rc=3,
            stdout=neg_out,
            check=lambda: _check_necessity(neg_out),
        )
    )
    return calls + seminorms


# ---------------------------------------------------------------- verify

# scenarios run one per process; kernel-membership repeats the
# equivalence battery when it runs alone and qp-range takes a minute,
# so both stay out (see README)
VERIFY_SCENARIOS = ("equivalence", "divergent-integral", "log-series", "lambda-range")


def _check_scenario(path: Path, scenario: str) -> list[str]:
    payload = _load(path)
    problems = [] if payload["pass"] else ["report says pass: false"]
    (report,) = payload["reports"]
    if report["scenario"] != scenario:
        return problems + [f"report is for {report['scenario']}"]
    checks = {c["name"]: c for c in report["checks"]}
    if scenario == "equivalence":
        seen = {name.split(".", 1)[1] for name in checks}
        if seen != set(oracles.CORPUS_ORDERS):
            problems.append(f"corpus measures {sorted(seen)}")
        for name in seen & set(oracles.CORPUS_ORDERS):
            got = checks[f"consensus.{name}"]["observed"]
            if got != oracles.corpus_label(name):
                problems.append(f"{name}: {got}, closed form says {oracles.corpus_label(name)}")
    elif scenario == "divergent-integral":
        alpha = report["inputs"]["measure"]["alpha"]
        for r in report["inputs"]["r_values"]:
            want = alpha - r <= -1.0
            got = checks[f"inner_integral_diverges.r={r:g}"]["observed"]
            if got != [want] * len(report["inputs"]["probes"]):
                problems.append(f"r={r:g}: diverged {got}, closed form says {want}")
    elif scenario == "log-series":
        got = checks["value_at_half_is_2log2"]["observed"]
        if not abs(got - oracles.two_log_two()) <= 1e-10:
            problems.append(f"value at 1/2 is {got!r}, 2 log 2 is {oracles.two_log_two()!r}")
    return problems


def verify(seed: int, work: Path) -> list[Call]:
    """``cesaro verify`` on each scenario that fits a run; no generated input."""
    calls = []
    for scenario in VERIFY_SCENARIOS:
        out = work / f"verify.{scenario}.json"
        calls.append(
            Call(
                name=f"verify.{scenario}",
                args=["verify", "--scenario", scenario, "--out", str(out)],
                expect_rc=0,
                stdout=work / f"verify.{scenario}.log",
                check=lambda out=out, scenario=scenario: _check_scenario(out, scenario),
            )
        )
    return calls


WORKLOADS = {"battery": battery, "range": range_, "verify": verify}
