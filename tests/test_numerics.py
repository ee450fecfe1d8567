import json
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate

from cesaro.cli import _record_dict
from cesaro.errors import NumericsError, ParameterError
from cesaro.measure import Atomic, Lebesgue, Mixture, PowerDensity
from cesaro import numerics
from cesaro.numerics import (
    BOUNDED,
    DIVERGENT,
    GROWTH_THRESHOLD,
    classify_growth,
    dyadic_radii,
    quad_measure,
    sup_on_dyadic_boundary,
)


def _ones(us):
    return [1.0] * len(us)


class TestQuadMeasure:
    """``quad_measure`` hands its integrand the nodes in ``u = 1 - t``."""

    def test_polynomial_against_lebesgue(self):
        val = quad_measure(lambda us: [3.0 * (1.0 - u) ** 2 for u in us], Lebesgue())
        assert val == pytest.approx(1.0, rel=1e-12)

    def test_atomic_is_exact_sum(self):
        mu = Atomic((0.25, 0.5), (2.0, 1.0))
        val = quad_measure(lambda us: [1.0 - u for u in us], mu)
        assert val == 2.0 * 0.25 + 0.5

    def test_atomic_singular_factor_applied_pointwise(self):
        mu = Atomic((0.5,), (1.0,))
        val = quad_measure(_ones, mu, singular_exponent=1.0)
        assert val == pytest.approx(2.0, rel=1e-15)

    def test_power_density_against_scipy_alg_weight(self):
        # integral of cos(t) * (1-t)^(-0.5) dt, the singular factor
        # absorbed into the endpoint weights on our side
        mu = Lebesgue()
        ours = quad_measure(lambda us: [math.cos(1.0 - u) for u in us], mu, singular_exponent=0.5)
        ref, err = integrate.quad(
            np.cos, 0.0, 1.0, weight="alg", wvar=(0.0, -0.5)
        )
        assert ours == pytest.approx(ref, rel=1e-9)

    def test_density_alpha_combines_with_singularity(self):
        # (1-t)^0.5 density with (1-t)^-0.25 factor: net exponent 0.25
        mu = PowerDensity(0.5, scale=2.0)
        ours = quad_measure(lambda us: [2.0 - u for u in us], mu, singular_exponent=0.25)
        ref, err = integrate.quad(
            lambda t: t + 1.0, 0.0, 1.0, weight="alg", wvar=(0.0, 0.25)
        )
        assert ours == pytest.approx(2.0 * ref, rel=1e-9)

    def test_mixture_sums_parts(self):
        mix = Mixture((Lebesgue(), Atomic((0.5,), (1.0,))))
        val = quad_measure(lambda us: [1.0 - u for u in us], mix)
        assert val == pytest.approx(0.5 + 0.5, rel=1e-12)

    def test_complex_integrand(self):
        z = 0.4 + 0.3j
        val = quad_measure(lambda us: [1.0 / (1.0 - (1.0 - u) * z) for u in us], Lebesgue())
        expected = -np.log(1.0 - z) / z
        assert val == pytest.approx(expected, rel=1e-10)

    def test_divergent_integral_raises_with_estimates(self):
        with pytest.raises(NumericsError) as exc:
            quad_measure(_ones, Lebesgue(), singular_exponent=1.0)
        assert "not integrable" in str(exc.value)
        assert len(exc.value.estimates) == 2
        # estimates grow monotonically for a positive divergent integrand
        assert exc.value.estimates[1] > exc.value.estimates[0]

    def test_borderline_divergence_detected(self):
        # exactly the non-integrable endpoint: alpha_eff = -1
        mu = PowerDensity(-0.5)
        with pytest.raises(NumericsError):
            quad_measure(_ones, mu, singular_exponent=0.5)

    def test_integrable_singularity_converges(self):
        # alpha_eff = -0.75 is integrable even though each factor alone
        # would make the raw integrand blow up at the endpoint
        mu = PowerDensity(-0.25)
        val = quad_measure(_ones, mu, singular_exponent=0.5)
        assert val == pytest.approx(4.0, rel=1e-9)

    def test_rejects_non_measure(self):
        with pytest.raises(ParameterError):
            quad_measure(_ones, "lebesgue")

    @pytest.mark.parametrize("beta", [-0.95, -0.5, 0.0, 1.5, 3.0])
    @pytest.mark.parametrize("q", [0.6, 1.5, 3.0, 8.0])
    def test_kernel_matches_beta_hypergeometric_oracle(self, beta, q):
        # integral (1-x)**beta (1-ax)**-q dx = B(1, beta+1) 2F1(q, 1; beta+2; a),
        # with 1 - a x = (1-a) + a u, at every probe depth a float can hold
        mp.mp.dps = 30
        for j in range(1, 53):
            a = 1.0 - 2.0 ** -j
            ours = quad_measure(lambda us: [(2.0 ** -j + a * u) ** -q for u in us],
                                PowerDensity(beta))
            ref = mp.beta(1, beta + 1) * mp.hyp2f1(q, 1, beta + 2, mp.mpf(a))
            assert ours == pytest.approx(float(ref), rel=1e-12), j

    def test_deep_probe_exact_value(self):
        # integral (1-x)**-1/2 (1-ax)**-3/2 dx = 2/(1-a) = 2**19 at a = 1 - 2**-18
        a = 1.0 - 2.0 ** -18
        val = quad_measure(lambda us: [(2.0 ** -18 + a * u) ** -1.5 for u in us], Lebesgue(),
                           singular_exponent=0.5)
        assert val == pytest.approx(2.0 ** 19, rel=1e-12)

    @pytest.mark.parametrize("beta", [-0.95, -0.5, 0.0, 1.5, 40.0])
    def test_density_end_panel_is_closed_form(self, beta):
        # g runs once on the panel nodes and once at u = 0, which stands for
        # every point of u < EDGE; that piece integrates u**beta exactly
        calls = []

        def g(us):
            calls.append(tuple(us))
            return [math.exp(1.0 - u) for u in us]

        val = quad_measure(g, PowerDensity(beta, scale=2.0))
        assert len(calls) == 2
        nodes, weights = numerics._panel_rule()
        assert calls[0] == nodes
        assert len(nodes) == numerics.PANELS * numerics.PANEL_NODES
        assert calls[1] == (0.0,)
        panels = 2.0 * sum(w * u ** beta * math.exp(1.0 - u) for u, w in zip(nodes, weights))
        end = 2.0 * numerics.EDGE ** (beta + 1.0) / (beta + 1.0) * math.e
        assert val == pytest.approx(panels + end, rel=1e-15)

    def test_nodes_match_leggauss(self):
        # the stored half of the Gauss-Legendre rule against NumPy's whole rule
        ref_x, ref_w = np.polynomial.legendre.leggauss(numerics.PANEL_NODES)
        half = numerics.PANEL_NODES // 2
        assert len(numerics._GL_NODES) == len(numerics._GL_WEIGHTS) == half
        np.testing.assert_allclose(ref_x[:half], [-x for x in reversed(numerics._GL_NODES)],
                                   rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(ref_x[half:], numerics._GL_NODES, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(ref_w[:half], numerics._GL_WEIGHTS[::-1], rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(ref_w[half:], numerics._GL_WEIGHTS, rtol=0.0, atol=1e-15)

    def test_panels_tile_the_grid(self):
        # panel k is Gauss-Legendre in s = -ln u on [2k ln 2, (2k+2) ln 2]: its nodes
        # lie in u = [2**-(2k+2), 2**-2k], and its weights, without their du/ds = u
        # factor, sum to the panel's width in s; the grid ends at EDGE
        nodes, weights = numerics._panel_rule()
        octaves, size = numerics.PANEL_OCTAVES, numerics.PANEL_NODES
        for k in range(numerics.PANELS):
            panel = range(k * size, (k + 1) * size)
            lo, hi = 0.5 ** (octaves * (k + 1)), 0.5 ** (octaves * k)
            assert all(lo < nodes[i] < hi for i in panel), k
            width = math.fsum(weights[i] / nodes[i] for i in panel)
            assert width == pytest.approx(octaves * math.log(2.0), rel=1e-14), k
        assert numerics.EDGE == 0.5 ** (numerics.PANELS * octaves)


class TestQuadOverflow:
    def test_atom_near_one_overflows_to_numerics_error(self):
        mu = Atomic((0.5, 1.0 - 2.0 ** -40), (1.0, 1.0))
        with pytest.raises(NumericsError, match="overflows"):
            quad_measure(_ones, mu, singular_exponent=30.0)

    def test_steep_endpoint_weight_is_not_integrable_without_warning(self):
        # u**-30 overflows on the deepest panels before the exponent is judged
        with pytest.raises(NumericsError, match="not integrable"):
            quad_measure(_ones, Lebesgue(), singular_exponent=30.0)

    def test_mixture_sum_overflow_is_numerics_error(self):
        mu = Mixture((PowerDensity(0.0, scale=1e308), PowerDensity(0.0, scale=1e308)))
        with pytest.raises(NumericsError, match="overflows"):
            quad_measure(_ones, mu)


class TestClassifyGrowth:
    def test_linear_trace_is_bounded(self):
        # polynomial growth has vanishing log-slope; frozen regression
        # values for S_j = j over twenty levels
        rep = classify_growth([float(j) for j in range(1, 21)])
        assert rep.verdict == BOUNDED
        assert rep.bounded
        assert rep.slope == pytest.approx(0.06588713866111057, rel=1e-9)
        assert rep.threshold == GROWTH_THRESHOLD

    def test_power_growth_exponent_recovered(self):
        values = [2.0 ** (0.3 * j) for j in range(1, 21)]
        rep = classify_growth(values)
        assert rep.verdict == DIVERGENT
        assert rep.exponent == pytest.approx(0.3, rel=1e-9)

    def test_constant_trace_bounded_with_zero_slope(self):
        rep = classify_growth([5.0] * 10)
        assert rep.bounded
        assert rep.slope == pytest.approx(0.0, abs=1e-12)

    def test_infinite_sample_short_circuits(self):
        rep = classify_growth([1.0, 2.0, math.inf, 1.0])
        assert rep.verdict == DIVERGENT
        assert rep.exponent == math.inf
        assert "infinite sample" in " ".join(rep.notes)

    def test_too_few_samples_inconclusive(self):
        with pytest.raises(NumericsError, match="finite samples"):
            classify_growth([1.0, 2.0, 3.0])

    def test_nan_samples_do_not_count(self):
        with pytest.raises(NumericsError, match="finite samples"):
            classify_growth([1.0, math.nan, math.nan, 2.0, 3.0])

    def test_nonpositive_trace_is_bounded(self):
        rep = classify_growth([0.0, 0.0, 0.0, 0.0, 0.0])
        assert rep.bounded
        assert rep.slope == 0.0
        assert "nonpositive" in " ".join(rep.notes)

    def test_levels_mismatch_rejected(self):
        with pytest.raises(ParameterError):
            classify_growth([1.0, 2.0], [1, 2, 3])

    def test_repeated_levels_rejected(self):
        # a least-squares slope needs distinct levels
        with pytest.raises(ParameterError, match="distinct levels"):
            classify_growth([1.0, 2.0, 3.0, 4.0], [1, 1, 2, 2])

    def test_explicit_levels_respected(self):
        # same values on stretched levels halve the slope
        values = [2.0 ** j for j in range(1, 13)]
        rep_dense = classify_growth(values, range(1, 13))
        rep_sparse = classify_growth(values, range(2, 26, 2))
        assert rep_dense.exponent == pytest.approx(1.0, rel=1e-9)
        assert rep_sparse.exponent == pytest.approx(0.5, rel=1e-9)

    def test_notes_propagate(self):
        rep = classify_growth([1.0, 2.0, math.inf, 4.0])
        assert rep.notes == ("trace contains an infinite sample",)
        payload = json.loads(json.dumps(rep, default=_record_dict))
        assert payload["notes"] == ["trace contains an infinite sample"]

    def test_serializes_to_json(self):
        rep = classify_growth([1.0, 2.0, 4.0, 8.0, 16.0])
        payload = json.loads(json.dumps(rep, default=_record_dict))
        assert payload["verdict"] == DIVERGENT

    @given(
        st.floats(0.15, 2.0),
        st.floats(0.1, 100.0),
    )
    def test_true_power_growth_always_divergent(self, eps, scale):
        values = [scale * 2.0 ** (eps * j) for j in range(1, 16)]
        rep = classify_growth(values)
        assert rep.verdict == DIVERGENT
        assert rep.exponent == pytest.approx(eps, rel=1e-6)

    @given(st.floats(0.1, 1000.0))
    def test_constant_scale_never_divergent(self, scale):
        rep = classify_growth([scale] * 12)
        assert rep.bounded


class TestDyadicRadii:
    def test_values(self):
        assert dyadic_radii(3) == [0.5, 0.75, 0.875]

    def test_start_level(self):
        assert dyadic_radii(4, 3) == [0.875, 0.9375]

    def test_rejects_depth_below_start(self):
        with pytest.raises(ParameterError):
            dyadic_radii(1, 2)


class TestSupOnDyadicBoundary:
    def test_bounded_function(self):
        rep = sup_on_dyadic_boundary(lambda a: abs(a), depth=8)
        assert rep.bounded
        assert rep.values[-1] == pytest.approx(1.0 - 2.0 ** -8, rel=1e-12)

    def test_growth_exponent(self):
        rep = sup_on_dyadic_boundary(lambda a: 1.0 / (1.0 - abs(a)), depth=14)
        assert rep.verdict == DIVERGENT
        assert rep.exponent == pytest.approx(1.0, rel=1e-6)

    def test_angles_capture_angular_max(self):
        # h peaks on the positive real axis; a single-angle probe at
        # theta = 0 and a multi-angle sweep must agree there
        def h(a: complex) -> float:
            return float(a.real)

        real_only = sup_on_dyadic_boundary(h, depth=6, angles=1)
        swept = sup_on_dyadic_boundary(h, depth=6, angles=8)
        assert swept.values == pytest.approx(real_only.values, rel=1e-12)

    def test_infinite_sample_flagged(self):
        def h(a: complex) -> float:
            return math.inf if abs(a) > 0.9 else 1.0

        rep = sup_on_dyadic_boundary(h, depth=8)
        assert rep.verdict == DIVERGENT

    def test_rejects_nonpositive_angles(self):
        # a fractional count is refused before range() sees it
        for angles in (0, 2.5):
            with pytest.raises(ParameterError,
                               match=rf"^angles must be an integer in \[1, inf\], got {angles}$"):
                sup_on_dyadic_boundary(lambda a: 1.0, depth=6, angles=angles)
