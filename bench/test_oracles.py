"""Tests of the benchmark's oracles against direct numerical integration.

    python3 -m pytest bench/test_oracles.py

Each closed form in ``oracles`` is compared with ``mpmath.quad`` of its
defining integral, or with a sum written out by hand.
"""

from __future__ import annotations

import cmath
import json
import math

import mpmath as mp
import pytest

import oracles


def quad_density(mu: dict, fn) -> mp.mpf:
    """``integral of fn(x, 1-x) d mu`` after ``x = 1 - u**4``, which smooths the endpoint."""
    alpha = mp.mpf(mu.get("alpha", 0))
    scale = mp.mpf(mu.get("scale", 1))
    return mp.quad(
        lambda u: scale * u ** (4 * alpha) * fn(1 - u**4, u**4) * 4 * u**3, [0, 0.2, 0.5, 1]
    )


DENSITIES = [oracles.power_density(-0.5), oracles.power_density(0.7, 2.0), oracles.lebesgue()]


@pytest.mark.parametrize("mu", DENSITIES)
def test_tail_and_moment_match_their_integrals(mu):
    t = mp.mpf("0.875")
    assert oracles.tail(mu, t) == pytest.approx(
        float(mp.quad(lambda x: (1 - x) ** mp.mpf(mu.get("alpha", 0)) * mu.get("scale", 1), [t, 1])),
        rel=1e-12,
    )
    for n in (0, 1, 7, 40):
        want = quad_density(mu, lambda x, w: x**n)
        assert float(oracles.moment(mu, n)) == pytest.approx(float(want), rel=1e-12)


@pytest.mark.parametrize("mu", DENSITIES)
@pytest.mark.parametrize("a", [0.5, 0.96875])
def test_kernel_integral_is_the_euler_integral(mu, a):
    r, q = 0.25, 1.75
    want = quad_density(mu, lambda x, w: w**-r * (1 - a * x) ** -q)
    assert float(oracles.kernel_integral(mu, a, r, q)) == pytest.approx(float(want), rel=1e-10)


def test_kernel_integral_diverges_exactly_at_the_exponent_edge():
    mu = oracles.power_density(-0.5)
    assert oracles.kernel_integral(mu, 0.5, 0.5, 1.0) == mp.inf
    assert oracles.kernel_integral(mu, 0.5, 0.49, 1.0) < mp.inf


def test_atomic_sums_and_dyadic_tail_order():
    mu = oracles.dyadic_atoms(0.5, count=4)
    assert oracles.tail(mu, 0.875) == pytest.approx(2**-1.5 + 2**-2)
    assert float(oracles.moment(mu, 2)) == pytest.approx(
        sum(2 ** (-0.5 * k) * (1 - 2.0**-k) ** 2 for k in range(1, 5))
    )
    assert oracles.tail_order(oracles.mixture(oracles.lebesgue(), mu)) == 0.5
    assert "tail_order" not in json.dumps(oracles.to_json(oracles.mixture(mu)))


def test_circle_supremum_sits_at_the_real_probe():
    mu = oracles.power_density(0.3)
    radius, q = 0.875, 2.0

    def circle_value(theta):
        a = radius * cmath.exp(1j * theta)
        return quad_density(mu, lambda x, w: abs(1 - a * x) ** -q)

    real = float(oracles.kernel_integral(mu, radius, 0, q))
    assert float(circle_value(0.0)) == pytest.approx(real, rel=1e-10)
    assert all(float(circle_value(th)) < real for th in (0.1, 1.0, math.pi))


def test_battery_traces_shapes_and_box_closed_form():
    traces = oracles.battery_traces(oracles.lebesgue(), 1.0)
    assert {k: len(v) for k, v in traces.items()} == {
        "box": 18, "moment": 15, "integral_real": 18, "integral_complex": 18, "disk_kernel": 18,
    }
    assert traces["box"] == [1.0] * 18
    assert traces["moment"][3] == pytest.approx(1.0)


def test_transform_of_constant_against_lebesgue_is_the_log_series():
    coeffs = oracles.transform_coefficients(oracles.lebesgue(), [1.0 + 0j], 6)
    assert [complex(c) for c in coeffs] == pytest.approx([1 / (n + 1) for n in range(7)])
    series = sum(complex(c) * 0.5**n for n, c in enumerate(
        oracles.transform_coefficients(oracles.lebesgue(), [1.0 + 0j], 200)))
    assert series.real == pytest.approx(oracles.two_log_two(), rel=1e-12)


def test_qp_level0_is_the_weighted_disk_integral():
    b = [0.3 + 0j, 0.5 - 0.2j, 0.25j]
    p = mp.mpf("1.3")
    # circle mean of |b1 + 2 b2 z|^2 is |b1|^2 + 4|b2|^2 r^2; dA = 2r dr on average
    want = mp.quad(lambda r: (abs(b[1]) ** 2 + 4 * abs(b[2]) ** 2 * r**2) * (1 - r**2) ** p * 2 * r, [0, 1])
    assert float(oracles.qp_level0(b, p)) == pytest.approx(float(want), rel=1e-12)


def test_bounded_functions_are_blaschke_products():
    funcs = oracles.bounded_functions(400)
    z = 0.4 - 0.3j
    value = sum(c * z**n for n, c in enumerate(funcs["blaschke_pair"]))
    a, b = 0.5, complex(-0.3, 0.4)
    want = (a - z) / (1 - a * z) * (b - z) / (1 - b.conjugate() * z)
    assert value == pytest.approx(want, abs=1e-12)
    assert len(funcs["blaschke_half"]) == 401


def test_corpus_labels():
    labels = [oracles.corpus_label(name) for name in oracles.CORPUS_ORDERS]
    assert labels.count("carleson") == 7 and labels.count("not_carleson") == 5

