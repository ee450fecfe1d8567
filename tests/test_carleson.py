import json
import math

import numpy as np
import pytest

from cesaro.carleson import (
    CARLESON,
    NOT_CARLESON,
    _boundary_kernel,
    _disk_kernel,
    box_test,
    disk_kernel_test,
    integral_test_complex,
    integral_test_real,
    is_s_carleson,
    moment_test,
)
from cesaro.corpus import labeled_corpus
from cesaro.errors import ParameterError
from cesaro.measure import Atomic, Lebesgue, PowerDensity
from cesaro.numerics import sup_on_dyadic_boundary


class TestBoxTest:
    def test_lebesgue_at_its_own_order(self):
        rep = box_test(Lebesgue(), 1.0, depth=10)
        assert rep.bounded
        # tail mass is exactly (1-t), so every level value is exactly 1
        assert rep.values == pytest.approx([1.0] * 10, abs=0.0)

    def test_lebesgue_above_its_order_diverges_with_exponent_one(self):
        rep = box_test(Lebesgue(), 2.0, depth=12)
        assert rep.verdict == "divergent"
        # 2^{-j} * 2^{2j} = 2^j exactly
        assert rep.exponent == pytest.approx(1.0, abs=1e-12)

    def test_power_density_matches_its_exponent(self):
        # tail of (1-x)^{s-1} dx is (1-t)^s / s: exactly order s
        s = 0.5
        rep = box_test(PowerDensity(s - 1.0), s, depth=12)
        assert rep.bounded
        assert rep.values == pytest.approx([1.0 / s] * 12, rel=1e-12)

    def test_point_mass_carleson_at_every_order(self):
        mu = Atomic((0.5,), (1.0,))
        for s in (0.5, 1.0, 3.0):
            rep = box_test(mu, s, depth=10)
            assert rep.bounded

    def test_rejects_nonpositive_s(self):
        with pytest.raises(ParameterError):
            box_test(Lebesgue(), 0.0)


class TestMomentTest:
    def test_lebesgue_bounded_at_one(self):
        rep = moment_test(Lebesgue(), 1.0)
        assert rep.bounded
        # (1+n)^1 * 1/(n+1) = 1 at every sampled index
        assert rep.values == pytest.approx([1.0] * len(rep.values), rel=1e-12)

    def test_lebesgue_divergent_at_two(self):
        # values are 2^j + 1; the additive 1 nudges the fitted exponent
        # a hair below its limit over a finite window
        rep = moment_test(Lebesgue(), 2.0)
        assert rep.verdict == "divergent"
        assert rep.exponent == pytest.approx(1.0, abs=0.01)

    def test_levels_are_dyadic_indices(self):
        rep = moment_test(Lebesgue(), 1.0, limit=1 << 6)
        assert rep.levels == (0, 1, 2, 3, 4, 5, 6)


class TestIntegralTests:
    def test_real_kernel_bounded_for_lebesgue_at_one(self):
        rep = integral_test_real(Lebesgue(), 1.0, depth=10)
        assert rep.bounded

    def test_real_kernel_divergent_for_lebesgue_at_two(self):
        rep = integral_test_real(Lebesgue(), 2.0, depth=10)
        assert rep.verdict == "divergent"

    def test_complex_kernel_agrees_with_real_on_radial_measures(self):
        for s, expect in ((1.0, True), (2.0, False)):
            real = integral_test_real(Lebesgue(), s, depth=10)
            cplx = integral_test_complex(Lebesgue(), s, depth=10)
            assert real.bounded == expect
            assert cplx.bounded == expect

    def test_r_range_validated(self):
        with pytest.raises(ParameterError):
            integral_test_real(Lebesgue(), 1.0, r=1.0)
        with pytest.raises(ParameterError):
            integral_test_real(Lebesgue(), 1.0, r=-0.1)
        with pytest.raises(ParameterError):
            integral_test_real(Lebesgue(), 1.0, r=1.5)

    def test_t_must_be_positive(self):
        with pytest.raises(ParameterError):
            integral_test_real(Lebesgue(), 1.0, t=0.0)


class TestDiskKernelTest:
    def test_lebesgue_at_half_is_bounded(self):
        # the tail condition holds at order 0.5 for Lebesgue measure, and
        # the disk kernel criterion must agree with the other four
        rep = disk_kernel_test(Lebesgue(), 0.5, t=1.0, depth=10)
        assert rep.bounded

    def test_lebesgue_above_order_divergent_with_half_exponent(self):
        rep = disk_kernel_test(Lebesgue(), 1.5, t=1.0, depth=12)
        assert rep.verdict == "divergent"
        assert rep.exponent == pytest.approx(0.5, abs=0.08)


class TestConsensus:
    def test_carleson_verdict_fields(self):
        v = is_s_carleson(Lebesgue(), 1.0, depth=10)
        assert v.consensus == CARLESON
        assert set(v.reports) == {
            "box",
            "moment",
            "integral_real",
            "integral_complex",
            "disk_kernel",
        }
        assert v.diagnostics["total_mass"] == 1.0
        assert v.order == 1.0

    def test_not_carleson_consensus(self):
        v = is_s_carleson(Lebesgue(), 2.0, depth=10)
        assert v.consensus == NOT_CARLESON
        assert all(not rep.bounded for rep in v.reports.values())

    def test_custom_r_plumbs_through(self):
        v = is_s_carleson(Lebesgue(), 1.0, depth=10, r=0.25)
        assert v.consensus == CARLESON

    def test_to_dict_is_json_ready(self):
        v = is_s_carleson(Atomic((0.5,), (1.0,)), 1.0, depth=10)
        payload = v.to_dict()
        json.dumps(payload)
        assert payload["consensus"] == CARLESON
        assert "box" in payload["reports"]


class TestRealProbeReduction:
    """Each dyadic circle attains its supremum at the real probe.

    On [0, 1), ``|1 - conj(a) x| >= 1 - |a| x``, and the fixed quadrature
    rule has positive weights, so every non-real probe integrates a
    pointwise smaller integrand.  A 64-angle sweep therefore reproduces
    the criteria's real-probe traces bit for bit.
    """

    @pytest.mark.parametrize("entry", labeled_corpus(), ids=lambda e: e.name)
    def test_angular_sweep_matches_real_probe_trace(self, entry):
        mu, s = entry.measure, entry.order
        complex_swept = sup_on_dyadic_boundary(_boundary_kernel(mu, s, 1.0, 0.0), 18, 64)
        disk_swept = sup_on_dyadic_boundary(_disk_kernel(mu, s, 1.0), 18, 64)
        assert complex_swept.values == integral_test_complex(mu, s, depth=18).values
        assert disk_swept.values == disk_kernel_test(mu, s, depth=18).values
