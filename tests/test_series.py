import itertools
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import time

from cesaro.corpus import labeled_corpus
from cesaro.errors import NumericsError, ParameterError
from cesaro.measure import MAX_ORDER, Atomic, Lebesgue, PowerDensity, moments_array
from cesaro.series import (
    PowerSeries,
    cesaro_mu,
    cesaro_mu_s,
    coefficients_text,
    gamma_ratio,
    kernel_series,
    read_coefficients,
)

from conftest import bounded_coefficient_arrays
from paper_checks import compose_mobius, integral_rep_eval


class TestPowerSeries:
    def test_rejects_empty(self):
        with pytest.raises(ParameterError):
            PowerSeries(np.asarray([]))

    def test_rejects_nonfinite(self):
        with pytest.raises(ParameterError):
            PowerSeries(np.asarray([1.0, np.inf]))

    def test_coeffs_are_immutable(self):
        f = PowerSeries(np.asarray([1.0, 2.0]))
        with pytest.raises(ValueError):
            f.coeffs[0] = 5.0

    def test_constant_and_monomial(self):
        assert PowerSeries.constant(3.0).coeffs.tolist() == [3.0 + 0j]
        m = PowerSeries.monomial(3)
        assert m.coeffs.tolist() == [0j, 0j, 0j, 1.0 + 0j]
        assert m.order == 3

    def test_padded(self):
        f = PowerSeries(np.asarray([1.0, 2.0]))
        assert f.padded(4).tolist() == [1.0 + 0j, 2.0 + 0j, 0j, 0j, 0j]
        assert f.padded(0).tolist() == [1.0 + 0j]

    @pytest.mark.parametrize("bad", [2.5, math.nan, -1, True])
    def test_orders_must_be_integers(self, bad):
        with pytest.raises(ParameterError):
            PowerSeries.monomial(bad)
        with pytest.raises(ParameterError):
            PowerSeries(np.asarray([1.0, 2.0])).padded(bad)

    def test_eval_rejects_boundary(self):
        f = PowerSeries(np.asarray([1.0]))
        with pytest.raises(ParameterError):
            f.eval(1.0)
        with pytest.raises(ParameterError):
            f.eval(np.asarray([0.5, 1.0 + 0j]))

    def test_eval_scalar_in_scalar_out(self):
        f = PowerSeries(np.asarray([1.0, 1.0]))
        v = f.eval(0.5)
        assert isinstance(v, complex)
        assert v == pytest.approx(1.5)

    @given(bounded_coefficient_arrays(12), st.complex_numbers(max_magnitude=0.95))
    def test_eval_matches_mpmath_polyval(self, coeffs, z):
        f = PowerSeries(coeffs)
        expected = complex(mp.polyval([mp.mpc(c) for c in coeffs[::-1]], mp.mpc(z)))
        assert f.eval(complex(z)) == pytest.approx(expected, abs=1e-10)

    def test_derivative(self):
        f = PowerSeries(np.asarray([5.0, 1.0, 2.0, 3.0]))
        assert f.derivative().coeffs.tolist() == [1.0 + 0j, 4.0 + 0j, 9.0 + 0j]

    def test_derivative_of_constant(self):
        assert PowerSeries.constant(4.0).derivative().coeffs.tolist() == [0j]


class TestGammaRatio:
    def test_s_one_is_exactly_one(self):
        n = np.arange(500)
        assert np.all(gamma_ratio(n, 1.0) == 1.0)

    def test_small_n_closed_forms(self):
        # (1-z)**-2 has coefficients n+1; (1-z)**-3 has (n+1)(n+2)/2
        n = np.arange(10)
        assert gamma_ratio(n, 2.0) == pytest.approx(n + 1.0, rel=1e-14)
        assert gamma_ratio(n, 3.0) == pytest.approx((n + 1) * (n + 2) / 2.0, rel=1e-14)

    def test_against_mpmath_gamma(self):
        # the running product gathers one rounding per factor, so the
        # relative tolerance widens with n
        mp.mp.dps = 30
        for s in (0.5, 1.5, 2.7):
            for n in (0, 1, 7, 100, 10_000):
                expected = float(
                    mp.gamma(n + s) / (mp.gamma(s) * mp.factorial(n))
                )
                rel = 1e-12 if n <= 100 else 1e-9
                assert gamma_ratio(np.asarray([n]), s)[0] == pytest.approx(
                    expected, rel=rel
                )

    @pytest.mark.parametrize("s", [0.5, 1.5, 3.0])
    def test_deepest_index_against_mpmath(self, s):
        mp.mp.dps = 40
        n = 2 ** 20
        expected = float(mp.gamma(n + s) / (mp.gamma(s) * mp.factorial(n)))
        assert gamma_ratio(np.arange(n + 1), s)[n] == pytest.approx(expected, rel=1e-11)

    @pytest.mark.parametrize("n", [np.asarray([0.0, 1.5]), 2.5, np.asarray([-1]), np.nan, np.inf])
    def test_rejects_non_integer_n(self, n):
        with pytest.raises(ParameterError):
            gamma_ratio(n, 0.5)

    def test_scalar_and_empty_n(self):
        assert gamma_ratio(3, 2.0) == 4.0
        assert gamma_ratio(np.arange(0), 2.0).size == 0

    def test_stirling_normalization(self):
        # Gamma(s) * gamma_ratio(n, s) * (n+1)**(1-s) -> 1
        mp.mp.dps = 30
        for s in (0.5, 1.3, 2.0):
            n = 200_000
            val = float(mp.gamma(s)) * gamma_ratio(np.asarray([n]), s)[0]
            assert val * (n + 1.0) ** (1.0 - s) == pytest.approx(1.0, rel=1e-4)

    def test_rejects_nonpositive_s(self):
        with pytest.raises(ParameterError):
            gamma_ratio(np.arange(3), 0.0)

    @pytest.mark.parametrize("s", [math.inf, math.nan])
    def test_rejects_non_finite_s(self, s):
        with pytest.raises(ParameterError, match=r"s must lie in \(0, inf\)"):
            gamma_ratio(np.arange(3), s)


class TestTransforms:
    def test_cesaro_mu_brute_force(self):
        rng = np.random.default_rng(7)
        coeffs = rng.standard_normal(21) + 1j * rng.standard_normal(21)
        f = PowerSeries(coeffs)
        mu = PowerDensity(0.5)
        g = cesaro_mu(f, mu, 20)
        mom = moments_array(mu, 20)
        for n in range(21):
            expected = mom[n] * np.sum(coeffs[: n + 1])
            assert g.coeffs[n] == pytest.approx(expected, rel=1e-13)

    def test_cesaro_mu_s_brute_force(self):
        rng = np.random.default_rng(11)
        coeffs = rng.standard_normal(21) + 1j * rng.standard_normal(21)
        f = PowerSeries(coeffs)
        mu = Atomic((0.3, 0.8), (1.0, 0.5))
        s = 1.7
        g = cesaro_mu_s(f, mu, s, 20)
        mom = moments_array(mu, 20)
        mp.mp.dps = 30
        for n in range(21):
            acc = mp.mpc(0)
            for k in range(n + 1):
                w = mp.gamma(n - k + s) / (mp.gamma(s) * mp.factorial(n - k))
                acc += w * mp.mpc(coeffs[k])
            expected = complex(mp.mpf(float(mom[n])) * acc)
            assert g.coeffs[n] == pytest.approx(expected, rel=1e-12)

    def test_point_mass_gives_geometric_kernel(self):
        # all mass at t0: b_n = t0^n * gamma_ratio(n, s) for f = 1
        t0 = 0.6
        s = 1.5
        g = cesaro_mu_s(PowerSeries.constant(1.0), Atomic((t0,), (1.0,)), s, 30)
        n = np.arange(31)
        expected = t0 ** n * gamma_ratio(n, s)
        assert g.coeffs.real == pytest.approx(expected, rel=1e-13)

    def test_s_equal_one_reduces_to_plain_transform(self):
        rng = np.random.default_rng(3)
        f = PowerSeries(rng.standard_normal(50))
        mu = Lebesgue()
        a = cesaro_mu_s(f, mu, 1.0, 60)
        b = cesaro_mu(f, mu, 60)
        assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-14

    def test_kernel_series_is_transform_of_one(self):
        # bit for bit the product gamma_ratio(n, s) * mu_n, its defining formula,
        # on every corpus measure
        for s, order in itertools.product([0.3, 0.5, 1.0, 2.0], [0, 1, 400, 4096, 1 << 14]):
            n = np.arange(order + 1)
            for entry in labeled_corpus():
                product = gamma_ratio(n, s) * moments_array(entry.measure, order)
                k = kernel_series(entry.measure, s, order).coeffs
                assert np.array_equal(k.real, product) and not np.any(k.imag), (entry.name, s)

    @given(bounded_coefficient_arrays(16), bounded_coefficient_arrays(16))
    def test_linearity(self, ca, cb):
        mu = Lebesgue()
        s = 1.5
        order = 20
        fa, fb = PowerSeries(ca), PowerSeries(cb)
        fsum = PowerSeries(fa.padded(order) + fb.padded(order))
        lhs = cesaro_mu_s(fsum, mu, s, order).coeffs
        rhs = cesaro_mu_s(fa, mu, s, order).coeffs + cesaro_mu_s(fb, mu, s, order).coeffs
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_rejects_negative_order(self):
        with pytest.raises(ParameterError):
            cesaro_mu(PowerSeries.constant(1.0), Lebesgue(), -1)

    @pytest.mark.parametrize("transform", [cesaro_mu, lambda f, mu, n: cesaro_mu_s(f, mu, 2.0, n)])
    def test_rejects_order_above_cap(self, transform):
        with pytest.raises(ParameterError):
            transform(PowerSeries.constant(1.0), Lebesgue(), MAX_ORDER + 1)

    def test_short_input_at_high_order_costs_its_length(self):
        # the convolution runs over the given coefficients only; padding the
        # input to the order made this O(order^2), about 20 s at 2^17
        start = time.perf_counter()
        g = cesaro_mu_s(PowerSeries.constant(1.0), Lebesgue(), 1.0, 1 << 17)
        assert time.perf_counter() - start < 5.0
        assert np.array_equal(g.coeffs.real, 1.0 / np.arange(1.0, (1 << 17) + 2.0))

    def test_unpadded_convolution_matches_padded(self):
        rng = np.random.default_rng(5)
        f = PowerSeries(rng.normal(size=7) + 1j * rng.normal(size=7))
        for order in (3, 6, 40):
            kern = gamma_ratio(np.arange(order + 1), 1.7)
            want = np.convolve(f.padded(order), kern)[: order + 1]
            want *= moments_array(Lebesgue(), order)
            got = cesaro_mu_s(f, Lebesgue(), 1.7, order).coeffs
            assert np.allclose(got, want, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("value, s", [(1.0, 1e308), (1e308, 3.0)])
    def test_overflow_is_numerics_error(self, value, s):
        with pytest.raises(NumericsError, match="overflow"):
            cesaro_mu_s(PowerSeries.constant(value), Lebesgue(), s, 400)


class TestIntegralRepresentation:
    def test_matches_transform_eval(self):
        # the coefficient transform and the measure integral are the same
        # function; polynomial input keeps the truncation tail negligible
        rng = np.random.default_rng(5)
        f = PowerSeries(rng.standard_normal(15) * 0.5)
        for mu in (Lebesgue(), Atomic((0.2, 0.7), (1.0, 1.0)), PowerDensity(-0.5)):
            for s in (0.5, 1.0, 2.0):
                g = cesaro_mu_s(f, mu, s, 400)
                for z in (0.3, -0.55, 0.4 + 0.4j, -0.2 - 0.6j):
                    direct = integral_rep_eval(f, mu, s, z)
                    assert g.eval(z) == pytest.approx(direct, rel=1e-8, abs=1e-10)

    def test_kernel_series_integral_form(self):
        # f = 1: the integral is just integral of (1-tz)^-s dmu
        mu = Lebesgue()
        s = 2.0
        z = 0.5
        # closed form: integral of (1-tz)^-2 dt = 1/(1-z)
        val = integral_rep_eval(PowerSeries.constant(1.0), mu, s, z)
        assert val == pytest.approx(1.0 / (1.0 - z), rel=1e-10)


class TestComposeMobius:
    def test_identity_series_composes_to_mobius_coefficients(self):
        # f = z: coefficients of (b - z)/(1 - conj(b) z) are
        # b, then -(1 - |b|^2) conj(b)^(n-1)
        b = 0.5
        comp = compose_mobius(PowerSeries.monomial(1), b, order=12)
        expected = np.zeros(13, dtype=complex)
        expected[0] = b
        for n in range(1, 13):
            expected[n] = -(1 - abs(b) ** 2) * np.conj(b) ** (n - 1)
        assert np.max(np.abs(comp.coeffs - expected)) < 1e-12

    def test_complex_parameter(self):
        b = 0.3 - 0.4j
        comp = compose_mobius(PowerSeries.monomial(1), b, order=10)
        expected = np.zeros(11, dtype=complex)
        expected[0] = b
        for n in range(1, 11):
            expected[n] = -(1 - abs(b) ** 2) * np.conj(b) ** (n - 1)
        assert np.max(np.abs(comp.coeffs - expected)) < 1e-12

    def test_involution_at_zero(self):
        # sigma_0(z) = -z, so coefficients flip sign at odd degrees
        f = PowerSeries(np.asarray([1.0, 2.0, 3.0, 4.0]))
        comp = compose_mobius(f, 0.0, order=3)
        assert comp.coeffs == pytest.approx([1.0, -2.0, 3.0, -4.0], abs=1e-12)

    def test_rejects_parameter_outside_disk(self):
        with pytest.raises(ParameterError):
            compose_mobius(PowerSeries.monomial(1), 1.0)

    @pytest.mark.parametrize("bad", [2.5, math.nan, -1, True, 4096])
    def test_rejects_bad_order(self, bad):
        with pytest.raises(ParameterError):
            compose_mobius(PowerSeries.monomial(1), 0.5, order=bad)


class TestCoefficientFiles:
    def test_round_trip(self, tmp_path):
        f = PowerSeries(np.asarray([1.5 + 0.25j, -2.0, 0.0 + 1e-17j]))
        path = tmp_path / "c.txt"
        path.write_text("".join(coefficients_text(f)), encoding="utf-8")
        g = read_coefficients(path)
        assert np.array_equal(f.coeffs, g.coeffs)

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("# leading comment\n1.0 0.0\n\n2.0 -1.0\n")
        g = read_coefficients(path)
        assert g.coeffs.tolist() == [1.0 + 0j, 2.0 - 1.0j]

    def test_rejects_malformed_line(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("1.0\n")
        with pytest.raises(ParameterError):
            read_coefficients(path)

    def test_rejects_empty_file(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("# nothing\n")
        with pytest.raises(ParameterError):
            read_coefficients(path)

    def test_text_has_no_numpy_reprs(self):
        pieces = list(coefficients_text(PowerSeries(np.asarray([0.5 + 2j]))))
        assert pieces == ["0.5 2.0\n"]
