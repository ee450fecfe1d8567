import cmath
import json
import math

import mpmath as mp
import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from cesaro import spaces
from cesaro.corpus import blaschke_factor, bounded_test_functions, dyadic_atoms
from cesaro.errors import NumericsError, ParameterError
from cesaro.measure import Lebesgue
from cesaro.series import PowerSeries, cesaro_mu, compose_mobius, kernel_series
from cesaro.spaces import (
    Mp,
    bloch_seminorm,
    circle_kernel_check,
    coeff_decay_test,
    hinf_norm,
    lambda_norm,
    qp_seminorm,
    two_kernel_check,
)


@pytest.fixture(scope="module")
def log_series():
    # coefficients 1/(n+1): the averaging transform of the constant 1
    return cesaro_mu(PowerSeries.constant(1.0), Lebesgue(), 400)


class TestMp:
    def test_r_zero_gives_constant_term(self):
        f = PowerSeries(np.asarray([3.0, 1.0, 2.0]))
        assert Mp(f, 0.0, 2.0) == pytest.approx(3.0, rel=1e-12)

    def test_parseval_at_p_two(self):
        coeffs = 0.7 ** np.arange(60)
        f = PowerSeries(coeffs)
        r = 0.5
        expected = math.sqrt(float(np.sum(coeffs ** 2 * r ** (2 * np.arange(60)))))
        assert Mp(f, r, 2.0) == pytest.approx(expected, rel=1e-12)

    def test_against_mpmath_quadrature_at_p_three(self):
        coeffs = 0.7 ** np.arange(60)
        f = PowerSeries(coeffs)
        mp.mp.dps = 30
        poly = [mp.mpf(0.7) ** n for n in range(60)][::-1]

        def integrand(theta):
            z = mp.mpf("0.5") * mp.e ** (1j * theta)
            return abs(mp.polyval(poly, z)) ** 3

        ref = float((mp.quad(integrand, [0, 2 * mp.pi]) / (2 * mp.pi)) ** (mp.mpf(1) / 3))
        assert Mp(f, 0.5, 3.0) == pytest.approx(ref, rel=1e-12)

    def test_rejects_radius_at_one(self):
        with pytest.raises(ParameterError):
            Mp(PowerSeries.constant(1.0), 1.0, 2.0)

    def test_rejects_p_below_one(self):
        with pytest.raises(ParameterError):
            Mp(PowerSeries.constant(1.0), 0.5, 0.5)


class TestBloch:
    def test_identity_function(self):
        # (1-r^2)*1 peaks at the origin, which the grid contains
        est = bloch_seminorm(PowerSeries.monomial(1))
        assert est.value == pytest.approx(1.0, rel=1e-12)
        assert est.converged

    def test_log_series_against_scalar_optimizer(self, log_series):
        # positive coefficients put the circle max on the positive real
        # axis, so a 1-d search over the radius is an independent oracle
        gd = log_series.derivative()
        c = gd.coeffs.real

        def neg(r):
            return -(1.0 - r * r) * float(np.polynomial.polynomial.polyval(r, c))

        res = minimize_scalar(
            neg, bounds=(0.0, 0.999999), method="bounded", options={"xatol": 1e-12}
        )
        oracle = -res.fun
        est = bloch_seminorm(log_series)
        assert est.converged
        # dyadic radii cannot exceed the true max and should come close
        assert est.value <= oracle * (1.0 + 1e-12)
        assert est.value >= oracle * 0.97

    def test_log_series_value_stays_below_two(self, log_series):
        # the untruncated function has seminorm approaching 2 at the
        # boundary; any truncation must stay strictly below
        est = bloch_seminorm(log_series)
        assert 1.8 < est.value < 2.0

    def test_unsettled_for_slowly_growing_series(self):
        # moments of the dyadic half-weight atoms decay like n^{-1/2},
        # so the derivative grows too fast for the trace to settle
        mu = dyadic_atoms(0.5)
        g = cesaro_mu(PowerSeries.constant(1.0), mu, 1 << 12)
        est = bloch_seminorm(g, depth=10)
        assert not est.converged

    def test_to_dict_is_json_ready(self):
        est = bloch_seminorm(PowerSeries.monomial(1))
        json.dumps(est.to_dict())


class TestQp:
    def test_identity_function_at_p_one(self):
        est = qp_seminorm(PowerSeries.monomial(1), 1.0)
        assert est.value == pytest.approx(0.5, rel=1e-6)
        assert est.converged

    def test_mobius_invariance(self, log_series):
        # the seminorm is invariant under disk automorphisms; composing
        # through an independent FFT pipeline must agree within 5%
        est = qp_seminorm(log_series, 1.0)
        composed = compose_mobius(log_series, 0.5)
        est_b = qp_seminorm(composed, 1.0)
        gap = abs(est.value - est_b.value) / max(est.value, est_b.value)
        assert est.converged and est_b.converged
        assert gap <= 0.05

    def test_monotone_in_p(self, log_series):
        # larger p weakens the weight, so the seminorm cannot grow by
        # more than the grid tolerance
        v1 = qp_seminorm(log_series, 1.0).value
        v15 = qp_seminorm(log_series, 1.5).value
        assert v15 <= 1.05 * v1

    def test_rejects_nonpositive_p(self):
        with pytest.raises(ParameterError):
            qp_seminorm(PowerSeries.monomial(1), 0.0)

    def test_identity_function_bounded(self):
        for p in (0.5, 1.0, 1.5):
            est = qp_seminorm(PowerSeries.monomial(1), p)
            assert est.converged and math.isfinite(est.value), p

    def test_all_ones_unsettled(self):
        # 1/(1-z) is not even Bloch: cut at order 1024 its trace is
        # still climbing at the deepest probed level
        est = qp_seminorm(PowerSeries(np.ones(1025)), 1.0)
        assert not est.converged
        assert est.trace[-1] > 1.3 * est.trace[-2]

    def test_constant_gives_zero_trace(self):
        est = qp_seminorm(PowerSeries.constant(2.0), 1.0)
        assert est.converged
        assert all(v == 0.0 for v in est.trace)

    @pytest.mark.parametrize("p", [0.05, 0.2, 0.4])
    def test_small_p_settles(self, log_series, p):
        est = qp_seminorm(log_series, p)
        assert est.converged
        assert math.isfinite(est.value) and est.value > 0.0

    def test_large_p_round_off_is_refused(self, log_series):
        # at p = 20 the FFT round-off swamps the deep probe energies, which
        # would otherwise come out near 1e19 instead of below sum |f'|^2 B
        with pytest.raises(NumericsError, match="round-off"):
            qp_seminorm(log_series, 20.0)

    def test_notes_give_length_and_tail(self, log_series):
        (note,) = qp_seminorm(log_series, 1.0).notes
        head, fraction = note.rsplit(" ", 1)
        assert head == "longest probe series 16384 terms; largest certified tail fraction"
        assert float(fraction) <= spaces.QP_TAIL_RTOL

    def test_uncertified_tail_is_not_converged(self, log_series, monkeypatch):
        # too short a cap for the deep probes: the trace still settles,
        # but the tails are not certified, so the estimate must say so
        monkeypatch.setattr(spaces, "QP_MAX_TERMS", 1024)
        est = qp_seminorm(log_series, 1.0)
        assert not est.converged
        assert est.notes[-1] == "tail not certified within 1024 terms at levels [5, 6, 7, 8]"


class TestQpOracles:
    """The coefficient-space probe energy against independent closed forms."""

    @pytest.mark.parametrize("p", [0.05, 0.5, 1.0, 1.95])
    def test_identity_probe_is_hypergeometric(self, p):
        # f = z: the energy is (1-|a|^2)^p 2F1(p, p; p+2; |a|^2) / (p+1)
        fd = PowerSeries.monomial(1).derivative().coeffs
        mp.mp.dps = 30
        for j in range(1, 9):
            r = 1.0 - 2.0 ** -j
            x = mp.mpf(r) ** 2
            want = float((1 - x) ** p * mp.hyp2f1(p, p, p + 2, x) / (p + 1))
            for theta in (0.0, 2.3):
                got, _, tail = spaces._qp_probe(fd, r * cmath.exp(1j * theta), p)
                assert got == pytest.approx(want, rel=1e-12), (j, theta)
                assert tail <= spaces.QP_TAIL_RTOL

    @pytest.mark.parametrize("p", [0.3, 1.0, 1.7])
    def test_polynomial_probe_matches_composition(self, p):
        # Parseval after composing with the disk automorphism: the probe
        # energy is sum n^2 |c_n|^2 B(n, p+1) for the coefficients c of f o sigma_a
        rng = np.random.default_rng(12)
        f = PowerSeries(rng.normal(size=13) + 1j * rng.normal(size=13))
        fd = f.derivative().coeffs
        n = np.arange(1, 1500)
        beta = np.asarray([float(mp.beta(int(k), p + 1)) for k in n])
        for a in (0.3, -0.6j, 0.9 * cmath.exp(1j * 1.1), 0.75 * cmath.exp(-2.0j)):
            c = compose_mobius(f, a, order=1499).coeffs[1:]
            want = float(np.sum(n ** 2 * np.abs(c) ** 2 * beta))
            got, _, _ = spaces._qp_probe(fd, complex(a), p)
            assert got == pytest.approx(want, rel=1e-10), a

    @pytest.mark.parametrize("p", [0.2, 1.0, 1.95, 5.0])
    def test_level_zero_is_parseval(self, log_series, p):
        mp.mp.dps = 30
        want = float(
            mp.fsum(
                n * n * abs(mp.mpc(b)) ** 2 * mp.beta(n, p + 1)
                for n, b in enumerate(log_series.coeffs)
                if n
            )
        )
        assert qp_seminorm(log_series, p).trace[0] == pytest.approx(want, rel=1e-12)


class TestLambda:
    def test_identity_function_value_one(self):
        # sup of (1-r)^{1-1/p} * 1 sits at r = 0, which the radius grid
        # must therefore include
        est = lambda_norm(PowerSeries.monomial(1), 2.0)
        assert est.value == pytest.approx(1.0, rel=1e-12)
        assert est.converged

    def test_log_series_settles_at_p_two(self, log_series):
        est = lambda_norm(log_series, 2.0)
        assert est.converged
        assert est.value > 0.0

    def test_rejects_p_at_one(self):
        with pytest.raises(ParameterError):
            lambda_norm(PowerSeries.monomial(1), 1.0)


class TestCoeffDecay:
    def test_log_series_bounded(self, log_series):
        rep = coeff_decay_test(log_series)
        assert rep.bounded
        # 2^j / (2^j + 1) -> 1 from below
        assert max(rep.values) < 1.0

    def test_all_ones_divergent_with_exponent_one(self):
        f = PowerSeries(np.ones(513))
        rep = coeff_decay_test(f)
        assert rep.verdict == "divergent"
        assert rep.exponent == pytest.approx(1.0, rel=1e-6)

    def test_geometric_decay_bounded(self):
        f = PowerSeries(0.5 ** np.arange(64))
        rep = coeff_decay_test(f)
        assert rep.bounded

    def test_kernel_of_half_weight_atoms_divergent(self):
        mu = dyadic_atoms(0.5)
        f = kernel_series(mu, 1.0, 1 << 12)
        rep = coeff_decay_test(f)
        assert rep.verdict == "divergent"
        assert rep.exponent == pytest.approx(0.5, abs=0.1)

    def test_rejects_non_monotone(self):
        coeffs = np.ones(20)
        coeffs[7] = 2.0
        with pytest.raises(ParameterError, match="nonincreasing"):
            coeff_decay_test(PowerSeries(coeffs))

    def test_rejects_complex_coefficients(self):
        with pytest.raises(ParameterError):
            coeff_decay_test(PowerSeries(np.full(20, 1.0 + 1.0j)))

    def test_rejects_short_series(self):
        with pytest.raises(ParameterError):
            coeff_decay_test(PowerSeries(np.ones(4)))


class TestHinf:
    def test_bounded_corpus_near_one(self):
        # all four reference functions have sup norm exactly 1; the
        # interior circle surrogate must land within 1e-3
        for name, f in bounded_test_functions():
            assert hinf_norm(f) == pytest.approx(1.0, abs=1e-3), name

    def test_blaschke_factor_is_inner(self):
        b = blaschke_factor(0.5)
        assert hinf_norm(b) <= 1.0 + 1e-12

    def test_scales_linearly(self):
        f = PowerSeries(np.asarray([0.0, 2.0]))
        assert hinf_norm(f) == pytest.approx(2.0 * (1.0 - 2.0 ** -12), rel=1e-12)

    def test_rejects_bad_radius(self):
        with pytest.raises(ParameterError):
            hinf_norm(PowerSeries.constant(1.0), radius=1.0)


class TestCircleKernel:
    def test_exponent_two_is_exact(self):
        # at beta = 1 the circle average has the closed form
        # (1-|z|^2)^{-1}, so the ratio must be 1 to quadrature accuracy
        for j in (2, 6, 10):
            chk = circle_kernel_check(1.0 - 2.0 ** -j, 1.0)
            assert chk.ratio == pytest.approx(1.0, rel=1e-5)

    def test_log_branch(self):
        chk = circle_kernel_check(1.0 - 2.0 ** -8, 0.0)
        assert chk.predicted == pytest.approx(math.log(2.0 / (1.0 - (1.0 - 2.0 ** -8) ** 2)))
        assert 1.0 / 20.0 <= chk.ratio <= 20.0

    def test_bounded_branch(self):
        chk = circle_kernel_check(1.0 - 2.0 ** -8, -0.5)
        assert chk.predicted == 1.0
        assert 1.0 / 20.0 <= chk.ratio <= 20.0

    def test_complex_argument(self):
        z = (1.0 - 2.0 ** -6) * cmath.exp(1j * 0.7)
        chk = circle_kernel_check(z, 0.5)
        assert 1.0 / 20.0 <= chk.ratio <= 20.0

    def test_rejects_boundary_point(self):
        with pytest.raises(ParameterError):
            circle_kernel_check(1.0, 1.0)


class TestTwoKernel:
    def test_origin_closed_form(self):
        # a = b = 0 reduces to the radial weight integral 1/(s+1)
        for s in (0.5, 1.0):
            chk = two_kernel_check(0.0, 0.0, s, 1.9, 1.9)
            assert chk.computed == pytest.approx(1.0 / (s + 1.0), rel=1e-6)
            assert chk.bound == 1.0

    def test_case_both_exponents_below_edge(self):
        b = 0.5 * cmath.exp(1j * cmath.pi / 4)
        for j in range(1, 7):
            a = 1.0 - 2.0 ** -j
            chk = two_kernel_check(a, b, 1.0, 1.9, 1.9)
            assert 0.25 <= chk.ratio <= 1.5

    def test_case_split_exponents(self):
        b = 0.5 * cmath.exp(1j * cmath.pi / 4)
        for j in range(1, 7):
            a = 1.0 - 2.0 ** -j
            chk = two_kernel_check(a, b, 1.0, 4.0, 1.5)
            assert 0.25 <= chk.ratio <= 1.5

    def test_computed_stays_below_bound_deep(self):
        # the bound is an upper estimate; at depth the ratio approaches
        # 1 from below in both regimes
        chk = two_kernel_check(1.0 - 2.0 ** -6, 0.5, 1.0, 1.9, 1.9)
        assert chk.ratio <= 1.0 + 0.02

    def test_rejects_trivial_bound_region(self):
        with pytest.raises(ParameterError):
            two_kernel_check(0.5, 0.5, 1.0, 1.0, 1.0)

    def test_rejects_unsupported_exponent_layout(self):
        # r and t both above 2+s is outside both cases
        with pytest.raises(ParameterError):
            two_kernel_check(0.5, 0.5, 0.0, 3.0, 3.0)

    def test_rejects_points_outside_disk(self):
        with pytest.raises(ParameterError):
            two_kernel_check(1.0, 0.5, 1.0, 1.9, 1.9)
