"""One test per acceptance criterion; each registers a summary line.

Run with ``pytest -v`` to get a pass/fail line per criterion from the
test names, plus the consolidated block the terminal summary prints.
"""

import cmath
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from cesaro.carleson import CARLESON
from cesaro.corpus import labeled_corpus
from cesaro.harness import (
    _corpus_verdict,
    run_divergent_integral,
    run_lambda_range,
    run_qp_range,
)
from cesaro.measure import Atomic, Lebesgue, PowerDensity, moments_array
from cesaro.series import PowerSeries, cesaro_mu, cesaro_mu_s, kernel_series
from cesaro.spaces import coeff_decay_test

from paper_checks import circle_kernel_check, integral_rep_eval, two_kernel_check

SRC = Path(__file__).resolve().parents[1] / "src"


def test_criterion_01_moment_exactness(acceptance):
    start = time.perf_counter()
    seq = moments_array(Lebesgue(), 100)
    worst_leb = max(abs(seq[n] - 1.0 / (n + 1)) for n in range(101))

    mp.mp.dps = 40
    worst_beta = 0.0
    for alpha in (0.5, 1.0, 2.0):
        mu = PowerDensity(alpha)
        vals = moments_array(mu, 50)
        for n in range(51):
            ref = float(mp.beta(n + 1, mp.mpf(alpha) + 1))
            worst_beta = max(worst_beta, abs(vals[n] - ref))
    elapsed = time.perf_counter() - start
    ok = worst_leb <= 1e-12 and worst_beta <= 1e-10 and elapsed < 1.0
    acceptance(
        1,
        "moment exactness",
        ok,
        f"lebesgue gap {worst_leb:.2e}, beta gap {worst_beta:.2e}, {elapsed:.2f}s",
    )


def test_criterion_02_averaged_constant_identity(acceptance):
    start = time.perf_counter()
    g = cesaro_mu(PowerSeries.constant(1.0), Lebesgue(), 400)
    n = np.arange(401, dtype=float)
    exact = bool(np.array_equal(g.coeffs.real, 1.0 / (n + 1.0))) and bool(
        np.all(g.coeffs.imag == 0.0)
    )
    gap = abs(g.eval(0.5) - 2.0 * math.log(2.0))
    elapsed = time.perf_counter() - start
    ok = exact and gap <= 1e-10 and elapsed < 1.0
    acceptance(
        2,
        "averaged constant identity",
        ok,
        f"coefficients exact: {exact}, value gap {gap:.2e}, {elapsed:.2f}s",
    )


def test_criterion_03_operator_reduction(acceptance):
    rng = np.random.default_rng(2024)
    measures = (Lebesgue(), PowerDensity(-0.5), Atomic((0.3, 0.9), (1.0, 0.5)))
    worst = 0.0
    for i in range(20):
        coeffs = rng.uniform(-1, 1, 401) + 1j * rng.uniform(-1, 1, 401)
        f = PowerSeries(coeffs)
        mu = measures[i % 3]
        a = cesaro_mu_s(f, mu, 1.0, 400)
        b = cesaro_mu(f, mu, 400)
        worst = max(worst, float(np.max(np.abs(a.coeffs - b.coeffs))))
    ok = worst <= 1e-12
    acceptance(3, "operator reduction at s=1", ok, f"worst coefficient gap {worst:.2e}")


def test_criterion_04_representation_oracle(acceptance):
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    f = PowerSeries(0.5 * (rng.uniform(-1, 1, 13) + 1j * rng.uniform(-1, 1, 13)))
    radii = 0.9 * np.sqrt(rng.uniform(0.0, 1.0, 50))
    angles = rng.uniform(0.0, 2.0 * np.pi, 50)
    points = radii * np.exp(1j * angles)
    measures = (Lebesgue(), Atomic((0.2, 0.7), (1.0, 1.0)), PowerDensity(-0.5))
    worst = 0.0
    for mu in measures:
        for s in (0.5, 1.0, 2.0):
            g = cesaro_mu_s(f, mu, s, 400)
            for z in points:
                direct = integral_rep_eval(f, mu, s, complex(z))
                worst = max(worst, abs(g.eval(complex(z)) - direct))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 30.0
    acceptance(4, "integral representation oracle", ok, f"worst gap {worst:.2e}, {elapsed:.1f}s")


def test_criterion_05_criterion_equivalence(acceptance):
    start = time.perf_counter()
    entries = labeled_corpus()
    n_pos = sum(1 for e in entries if e.is_carleson)
    n_neg = sum(1 for e in entries if not e.is_carleson)
    mismatches = []
    for e in entries:
        verdict = _corpus_verdict(e.measure, e.order, 18)
        expected = "carleson" if e.is_carleson else "not_carleson"
        if verdict.consensus != expected:
            mismatches.append(f"{e.name}: {verdict.consensus}")
    box_exp = _corpus_verdict(Lebesgue(), 2.0, 18).reports["box"].exponent
    elapsed = time.perf_counter() - start
    ok = (
        n_pos >= 5
        and n_neg >= 3
        and not mismatches
        and abs(box_exp - 1.0) <= 0.05
        and elapsed < 120.0
    )
    acceptance(
        5,
        "five criteria match corpus labels",
        ok,
        f"{n_pos} positive / {n_neg} negative, mismatches {mismatches or 'none'}, "
        f"box exponent {box_exp:.4f}, {elapsed:.1f}s",
    )


def test_criterion_06_divergent_inner_integral(acceptance):
    rep = run_divergent_integral()
    detail = "; ".join(f"{c.name}: {'ok' if c.passed else 'FAIL'}" for c in rep.checks)
    acceptance(6, "inner integral divergence at r >= s", rep.passed, detail)


def test_criterion_07_kernel_decay_consistency(acceptance):
    entries = labeled_corpus()
    assert any(e.is_carleson for e in entries) and any(
        not e.is_carleson for e in entries
    )
    mismatches = []
    for e in entries:
        verdict = _corpus_verdict(e.measure, e.order, 18)
        decay = coeff_decay_test(kernel_series(e.measure, e.order, 1 << 14))
        if decay.bounded != (verdict.consensus == CARLESON):
            mismatches.append(e.name)
    ok = not mismatches
    acceptance(
        7,
        "kernel series decay matches criterion battery",
        ok,
        f"checked {len(entries)} measures, mismatches {mismatches or 'none'}",
    )


def test_criterion_08_membership_evidence(acceptance):
    start = time.perf_counter()
    qp_rep = run_qp_range()
    lam_rep = run_lambda_range()
    elapsed = time.perf_counter() - start
    decay_check = next(
        c for c in qp_rep.checks if c.name == "necessity.dyadic_half.decay_exponent"
    )
    ok = qp_rep.passed and lam_rep.passed and elapsed < 300.0
    acceptance(
        8,
        "bounded functions land in the target spaces iff the tail holds",
        ok,
        f"qp checks {sum(c.passed for c in qp_rep.checks)}/{len(qp_rep.checks)}, "
        f"lambda checks {sum(c.passed for c in lam_rep.checks)}/{len(lam_rep.checks)}, "
        f"necessity exponent {decay_check.observed:.3f}, {elapsed:.0f}s",
    )


@pytest.fixture(scope="module")
def circle_checks():
    # criterion 9's 80 circle points, shared with the oracle test after it
    return {
        (beta, j): circle_kernel_check(1.0 - 2.0 ** -j, beta)
        for beta in (-0.5, 0.0, 0.5, 1.0, 2.0)
        for j in range(1, 17)
    }


def test_criterion_09_kernel_bands(acceptance, circle_checks):
    ratios = [chk.ratio for chk in circle_checks.values()]
    worst_lo, worst_hi = min(ratios), max(ratios)
    circle_ok = worst_lo >= 1.0 / 20.0 and worst_hi <= 20.0

    b = 0.5 * cmath.exp(1j * cmath.pi / 4)
    two_ratios = []
    for r, t in ((1.9, 1.9), (4.0, 1.5)):
        for j in range(1, 7):
            chk = two_kernel_check(1.0 - 2.0 ** -j, b, 1.0, r, t)
            two_ratios.append(chk.ratio)
    two_ok = all(0.25 <= q <= 1.5 for q in two_ratios)
    ok = circle_ok and two_ok
    acceptance(
        9,
        "kernel growth laws hold with modest constants",
        ok,
        f"circle ratio range [{worst_lo:.3f}, {worst_hi:.3f}], "
        f"two-kernel ratio range [{min(two_ratios):.3f}, {max(two_ratios):.3f}]",
    )


def test_criterion_09_circle_sums_are_hypergeometric(circle_checks):
    # the Parseval sum against 2F1(c, c; 1; |z|^2), c = (1 + beta)/2
    mp.mp.dps = 30
    for (beta, j), chk in circle_checks.items():
        c = 0.5 * (1.0 + beta)
        want = float(mp.hyp2f1(c, c, 1, mp.mpf(1.0 - 2.0 ** -j) ** 2))
        assert chk.computed == pytest.approx(want, rel=1e-13), (beta, j)


def test_criterion_10_determinism(acceptance, tmp_path):
    # two fresh processes, so neither run can reuse the other's batteries
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    runs = [
        subprocess.Popen(
            [sys.executable, "-m", "cesaro.cli", "verify", "--scenario", "all", "--out", str(out)],
            env=env,
        )
        for out in (a, b)
    ]
    try:
        code_a, code_b = (run.wait(timeout=600) for run in runs)
    finally:
        for run in runs:
            run.kill()
    identical = a.read_bytes() == b.read_bytes()
    payload = json.loads(a.read_text())
    passed_flag = payload["pass"]
    # each scenario's smallest band margin, "-" where it has only equality checks
    margins = []
    for report in payload["reports"]:
        banded = [c["margin"] for c in report["checks"] if c["margin"] is not None]
        margins.append(f"{report['scenario']} {min(banded):.3f}" if banded
                       else f"{report['scenario']} -")
    ok = code_a == 0 and code_b == 0 and identical and passed_flag
    acceptance(
        10,
        "repeated full verification is byte-identical",
        ok,
        f"exit codes {code_a}/{code_b}, identical: {identical}, all scenarios pass: {passed_flag}, "
        f"smallest band margins: {', '.join(margins)}",
    )
