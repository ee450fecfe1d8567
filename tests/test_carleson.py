import json
import math
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from cesaro import numerics
from cesaro.carleson import (
    CARLESON,
    EXPONENT_BUDGET,
    MOMENT_TOP,
    NOT_CARLESON,
    box_test,
    disk_kernel_test,
    integral_test_complex,
    integral_test_real,
    is_s_carleson,
    kernel_integral,
    moment_test,
)
from cesaro.cli import _record_dict, main
from cesaro.corpus import labeled_corpus
from cesaro.errors import ParameterError
from cesaro.measure import Atomic, Lebesgue, PowerDensity, load_measure, moments_array
from cesaro.numerics import quad_measure

from conftest import any_measures

MEASURES = Path(__file__).resolve().parents[1] / "measures"


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
        rep = moment_test(Lebesgue(), 1.0)
        assert rep.levels == tuple(range(15))

    @given(any_measures(), st.floats(0.25, 3.0))
    @example(load_measure(MEASURES / "power_density_half.json"), 0.5)
    @example(load_measure(MEASURES / "dyadic_atoms.json"), 1.0)
    @example(load_measure(MEASURES / "lebesgue.json"), 1.0)
    def test_trace_is_the_moment_table(self, mu, s):
        # the scalar closed forms read the same values moments_array tabulates
        mus = moments_array(mu, 1 << MOMENT_TOP)
        rep = moment_test(mu, s)
        for j, value in zip(rep.levels, rep.values):
            want = (1.0 + (1 << j)) ** s * mus[1 << j]
            assert math.isclose(value, want, rel_tol=1e-13, abs_tol=0.0), j


class TestExponentBudget:
    # float powers past 2**1024 overflow; the budget refuses them up front
    @pytest.mark.parametrize(
        "run",
        [
            lambda: box_test(Lebesgue(), 60.0),
            lambda: moment_test(Lebesgue(), 70.0),
            lambda: integral_test_real(Lebesgue(), 1.0, t=1000.0),
            lambda: integral_test_complex(Lebesgue(), 1.0, t=1000.0),
            lambda: disk_kernel_test(Lebesgue(), 1.0, t=1000.0),
            lambda: is_s_carleson(PowerDensity(-0.5), 20.0, depth=52),
        ],
    )
    def test_out_of_range_exponents_are_refused(self, run):
        with pytest.raises(ParameterError, match="leaves float range"):
            run()

    def test_battery_runs_at_the_budget_edge(self):
        # (18 + 1) * (46 + 1) = 893 <= 900: every trace stays in range, and
        # the non-integrable inner integrals come back as +inf samples
        assert 19 * 47 <= EXPONENT_BUDGET < 19 * 48
        verdict = is_s_carleson(Atomic((0.5, 1.0 - 2.0 ** -40), (1.0, 1.0)), 46.0, t=1.0)
        assert verdict.consensus == NOT_CARLESON
        with pytest.raises(ParameterError):
            is_s_carleson(Lebesgue(), 47.0, t=1.0)


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

    @pytest.mark.parametrize("test", [box_test, integral_test_real, integral_test_complex,
                                      disk_kernel_test, is_s_carleson])
    @pytest.mark.parametrize("depth", [3, 53, 60, 10.0, 10.5])
    def test_depth_outside_range_is_refused(self, test, depth):
        # past 53 levels the probe 1 - 2**-j rounds to 1.0 and a kernel
        # sample would be 0 * inf = nan, which the growth fit skips; a float
        # depth, even a whole one, is refused before range() sees it
        with pytest.raises(ParameterError, match="probe depth"):
            test(Lebesgue(), 1.0, depth=depth)


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

    def test_serializes_to_json(self):
        v = is_s_carleson(Atomic((0.5,), (1.0,)), 1.0, depth=10)
        payload = json.loads(json.dumps(v, default=_record_dict))
        assert payload["consensus"] == CARLESON
        assert "box" in payload["reports"]


class TestOverflowGuards:
    """Samples that leave float range read as ``+inf``, never as a traceback."""

    def _run(self, tmp_path, capsys, measure: dict, *flags: str) -> tuple[int, dict]:
        path = tmp_path / "m.json"
        path.write_text(json.dumps(measure), encoding="utf-8")
        code = main(["carleson", "--measure", str(path), *flags])
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err and captured.err.count("\n") <= 1
        return code, json.loads(captured.out)

    def test_atom_at_the_last_float_below_one(self, tmp_path, capsys):
        # (1-x)**-44 at x = 1 - 2**-52 is 2**2288: every real-kernel sample is +inf
        atoms = {"type": "atomic", "points": [0.5, 1.0 - 2.0 ** -52], "weights": [1.0, 1.0]}
        code, out = self._run(tmp_path, capsys, atoms, "--s", "45", "--r", "44")
        assert code == 0 and out["consensus"] == NOT_CARLESON
        assert all(math.isinf(v) for v in out["reports"]["integral_real"]["values"])

    def test_large_mass_still_disagrees(self, tmp_path, capsys):
        # ROADMAP item 5: the kernel traces of a mass near 1e290 overflow to +inf
        big = {"type": "power_density", "alpha": 0, "scale": 1e290}
        code, out = self._run(tmp_path, capsys, big, "--s", "1", "--t", "10")
        assert code == 3 and out["consensus"] == "disagreement"


class TestRealProbeReduction:
    """The kernel criteria probe each dyadic circle only at its real point.

    That is exact because of two facts: on [0, 1) ``|1 - conj(a) x| >=
    1 - |a| x``, so a non-real probe on the same circle integrates a
    pointwise smaller kernel; and every weight of the quadrature rule is
    positive, so the rule keeps that order.
    """

    @given(
        st.floats(-1.0, 1.0),
        st.floats(-1.0, 1.0),
        st.floats(0.0, 1.0, exclude_max=True),
    )
    def test_real_probe_bounds_the_circle(self, re, im, x):
        a = complex(re, im)
        assume(abs(a) < 1.0)
        # exact in float64 too: hypot(re, im) >= |re| and rounding is monotone
        assert abs(1.0 - a.conjugate() * x) >= 1.0 - abs(a) * x

    @pytest.mark.parametrize("beta", [-0.999, -0.5, 0.0, 3.0, 15.0])
    def test_quadrature_weights_are_positive(self, beta):
        nodes, weights = numerics._panel_rule()
        assert all(w > 0.0 for w in weights)
        assert all(u > 0.0 for u in nodes)
        # the closed-form end panel is the only evaluation at a single node; a zero
        # weight keeps the order too, and at beta = 15 the exact 2**-1600 / 16
        # underflows to 0.0
        end = quad_measure(lambda us: [float(len(us) == 1)] * len(us), PowerDensity(beta))
        assert end == numerics.EDGE ** (beta + 1.0) / (beta + 1.0)
        assert end >= 0.0

    @pytest.mark.parametrize("t", [1.0, 2.5])
    @pytest.mark.parametrize("entry", labeled_corpus(), ids=lambda e: e.name)
    def test_disk_kernel_is_complex_trace_times_one_plus_a(self, entry, t):
        # (1 - a**2)**t = (1 + a)**t (1 - a)**t: the two criteria share one integral
        cplx = integral_test_complex(entry.measure, entry.order, t=t)
        disk = disk_kernel_test(entry.measure, entry.order, t=t)
        for j, c, d in zip(cplx.levels, cplx.values, disk.values):
            assert math.isinf(d) == math.isinf(c), j
            if not math.isinf(c):
                assert math.isclose(d, (2.0 - 0.5 ** j) ** t * c, rel_tol=1e-14), j


class TestKernelIntegral:
    @pytest.mark.parametrize("j", range(1, 53))
    def test_matches_beta_hypergeometric(self, j):
        # integral (1-x)**-1/2 (1-a x)**-3 dx = B(1, 1/2) 2F1(3, 1; 3/2; a), at every
        # depth --depth accepts: 1 - a x = (1-a) + a u keeps deep probes exact
        a = 1.0 - 2.0 ** -j
        with mp.workdps(40):
            ref = float(mp.beta(1, 0.5) * mp.hyp2f1(3, 1, 1.5, mp.mpf(a)))
        assert math.isclose(kernel_integral(PowerDensity(-0.5), a, 3.0, 0.0), ref, rel_tol=1e-12)

    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 1.5])
    def test_infinite_exactly_when_endpoint_not_integrable(self, alpha):
        mu = PowerDensity(alpha)
        for r in (0.0, 0.25, alpha + 0.999, alpha + 1.0, alpha + 1.5, alpha + 3.0):
            value = kernel_integral(mu, 0.5, 2.0, r)
            assert math.isinf(value) == (alpha - r <= -1.0), r
            assert value > 0.0
