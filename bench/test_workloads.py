"""Tests of the workloads' output checks on hand-written outputs.

    python3 -m pytest bench/test_workloads.py

Each check must accept a right output and reject a wrong one, NaN
included: ``json.loads`` reads the ``NaN`` literal that Python's
``json.dumps`` writes, and NaN compares false with everything.
"""

from __future__ import annotations

import json
import math

import mpmath as mp
import pytest

import oracles
import workloads

NAN = math.nan


def write(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def battery_output(tmp_path, box, integral):
    return write(tmp_path / "battery.json", {
        "consensus": "carleson",
        "reports": {"box": {"values": box}, "integral_real": {"values": integral}},
    })


@pytest.mark.parametrize(
    "box, integral, ok",
    [
        ([1.0, 1.0], [2.0, math.inf], True),
        ([1.0, NAN], [2.0, math.inf], False),
        ([1.0, 1.0], [NAN, math.inf], False),
        ([1.0, 1.0], [2.0, NAN], False),
        ([1.0, 1.0], [math.inf, math.inf], False),
        ([1.0, 1.0], [2.0, 3.0], False),
        ([1.0, 1.0 + 1e-6], [2.0, math.inf], False),
    ],
)
def test_battery_check(tmp_path, box, integral, ok):
    out = battery_output(tmp_path, box, integral)
    oracle = lambda: {"box": [1.0, 1.0], "integral_real": [2.0 * (1 + 5e-5), math.inf]}
    problems = workloads._check_battery(out, oracles.lebesgue(), 0.5, oracle)
    assert (problems == []) is ok, problems


@pytest.mark.parametrize("b1", [0.5, NAN, 0.5 + 1e-6])
def test_transform_check(tmp_path, b1):
    image = tmp_path / "image.txt"
    workloads._write_coeffs(image, [1.0 + 0j, complex(b1, 0.0)])
    problems = workloads._check_transform(image, lambda: [mp.mpc(1), mp.mpc("0.5")])
    assert (problems == []) is (b1 == 0.5), problems


def seminorm_output(tmp_path, space, level0, value):
    return write(tmp_path / f"{space}.json", {
        "space": space, "converged": True, "value": value, "trace": [level0, value],
    })


@pytest.mark.parametrize("space, p", [("bloch", None), ("lambda", 2.0), ("qp", 1.3)])
def test_seminorm_check(tmp_path, space, p):
    source = tmp_path / "image.txt"
    b = [0.3 + 0j, 0.5 - 0.2j, 0.25j]
    workloads._write_coeffs(source, b)
    right = float(oracles.qp_level0(b, p)) if space == "qp" else abs(b[1])

    def problems(level0, value):
        out = seminorm_output(tmp_path, space, level0, value)
        return workloads._check_seminorm(out, source, space, p)

    assert problems(right, 2 * right) == []
    assert problems(NAN, 2 * right)
    assert problems(right, NAN)
    assert problems(right, math.inf)
    assert problems(1.01 * right, 2 * right)


def test_hinf_check(tmp_path):
    source = tmp_path / "image.txt"
    workloads._write_coeffs(source, [0.5 + 0j, 0.25 + 0j])
    for value, ok in [(0.7, True), (NAN, False), (0.8, False), (0.4, False)]:
        out = seminorm_output(tmp_path, "hinf", value, value)
        problems = workloads._check_seminorm(out, source, "hinf", None)
        assert (problems == []) is ok, (value, problems)


@pytest.mark.parametrize("got", [NAN, 1.386])
def test_log_series_check_rejects(tmp_path, got):
    def report(value):
        return write(tmp_path / "log.json", {"pass": True, "reports": [{
            "scenario": "log-series",
            "checks": [{"name": "value_at_half_is_2log2", "observed": value}],
        }]})

    assert workloads._check_scenario(report(oracles.two_log_two()), "log-series") == []
    assert workloads._check_scenario(report(got), "log-series")
