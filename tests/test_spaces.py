import cmath
import json
import math
import time

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from cesaro import spaces
from cesaro.cli import _record_dict
from cesaro.corpus import blaschke_factor, bounded_test_functions, dyadic_atoms, labeled_corpus
from cesaro.errors import NumericsError, ParameterError
from cesaro.measure import Lebesgue
from cesaro.numerics import dyadic_radii
from cesaro.series import PowerSeries, _horner, cesaro_mu, cesaro_mu_s, gamma_ratio, kernel_series
from cesaro.spaces import (
    SUP_CONVERGENCE_RTOL,
    Mp,
    SeminormEstimate,
    bloch_seminorm,
    coeff_decay_test,
    hinf_norm,
    lambda_norm,
    qp_seminorm,
)

import paper_checks
from paper_checks import circle_kernel_check, compose_mobius, two_kernel_check


@pytest.fixture(scope="module")
def log_series():
    # coefficients 1/(n+1): the averaging transform of the constant 1
    return cesaro_mu(PowerSeries.constant(1.0), Lebesgue(), 400)


def _mp_from_64(f, r, p):
    """``Mp`` as it sampled before its start followed the degree: 64 angles, doubled."""
    prev = est = None
    m = 64
    while m <= spaces.MP_MAX_ANGLES:
        modulus = np.abs(spaces._circle_samples(f.coeffs, r, m))
        with np.errstate(over="ignore", invalid="ignore"):
            top = float(np.max(modulus)) or 1.0
            new = top * float(np.mean((modulus / top) ** p) ** (1.0 / p))
        if not math.isfinite(new):
            raise NumericsError("not finite")
        if est is not None and abs(new - est) <= spaces.MP_RTOL * max(new, est):
            return new
        prev, est = est, new
        m *= 2
    raise NumericsError("unsettled", estimates=(prev, est))


def _running_sup_settled(trace: np.ndarray) -> bool:
    """The settle rule ``spaces`` applied before ``numerics.sup_rise`` took it over."""
    if trace.size < 2 or not np.all(np.isfinite(trace)):
        return False
    running = np.maximum.accumulate(trace)
    last, prev = float(running[-1]), float(running[-2])
    if last == 0.0:
        return True
    return (last - prev) <= SUP_CONVERGENCE_RTOL * last


class TestSettleRule:
    """``SeminormEstimate.converged`` is the old running-supremum rule at a window of 1."""

    samples = st.one_of(
        st.floats(min_value=0.0),  # includes +inf
        st.just(math.nan),
        # zeros, ties and rises on either side of 2%
        st.sampled_from([0.0, 1.0, 0.98, 0.9799, 0.9801, 1.0 / 0.98]),
    )

    @given(st.lists(samples, min_size=1, max_size=13), st.booleans())
    @example([0.0, 0.0], True)
    @example([1.0, 0.0], True)
    @example([0.98, 1.0], True)
    @example([49.0, 50.0], True)  # a rise of exactly 2% has settled
    @example([1.0, math.inf], True)
    @example([1.0, math.nan, 1.0], True)
    @example([3.0], True)
    def test_converged_matches_the_running_sup_rule(self, trace, certified):
        est = SeminormEstimate(tuple(trace), certified=certified)
        settled = _running_sup_settled(np.asarray(trace))
        # a one-level trace (only hinf's) has no rise: its certified flag decides alone,
        # where the old rule called it unsettled
        if len(trace) == 1:
            settled = math.isfinite(trace[0])
        assert est.converged == (settled and certified)
        assert est.converged == (est.rise <= SUP_CONVERGENCE_RTOL and certified)



class TestMp:
    @pytest.mark.parametrize("order, first", [(0, 1), (1, 2), (63, 64), (64, 128), (400, 512),
                                              (spaces.MP_MAX_ANGLES, spaces.MP_MAX_ANGLES // 2)])
    def test_first_angle_count_is_the_power_of_two_above_the_degree(self, monkeypatch, order,
                                                                    first):
        # capped at half of MP_MAX_ANGLES, so that one doubling is left to compare with
        counts, sample = [], spaces._circle_samples
        monkeypatch.setattr(spaces, "_circle_samples",
                            lambda c, r, m: counts.append(m) or sample(c, r, m))
        Mp(PowerSeries(0.9 ** np.arange(order + 1)), 0.5, 3.0)
        assert counts == [first << k for k in range(len(counts))] and len(counts) >= 2

    def test_degree_start_matches_the_start_at_64_schedule(self, monkeypatch):
        # the order-400 transforms of the four bounded functions against four
        # measures at s = 0.5 and 1, and the order-4096 necessity transform: the
        # same calls raise and the same traces settle.  A trace that moves by more
        # than 1e-10 must be the start-at-64 schedule's error: one does, by 1.003e-10
        # (blaschke_half against power_linear_at_2, s = 1, p = 1.6, r = 0.875), where
        # 64 doubled to too few angles and the new mean is the 65536-angle mean
        measures = [e.measure for e in labeled_corpus()[:4]]
        radii = [0.0] + dyadic_radii(spaces.LAMBDA_DEPTH)
        inputs = [cesaro_mu_s(f, mu, s) for _, f in bounded_test_functions()
                  for mu in measures for s in (0.5, 1.0)]
        inputs.append(cesaro_mu(PowerSeries.constant(1.0), dyadic_atoms(0.5), 1 << 12))

        def outcome(g, p):
            try:
                return lambda_norm(g, p)
            except NumericsError:
                return None

        for g in inputs:
            for p in (1.05, 1.2, 1.6, 2.0, 3.0, 4.0, 7.0):
                new = outcome(g, p)
                with monkeypatch.context() as patch:
                    patch.setattr(spaces, "Mp", _mp_from_64)
                    old = outcome(g, p)
                assert (new is None) == (old is None), p
                if new is None:
                    continue
                assert new.converged == old.converged, p
                for r, a, b in zip(radii, new.trace, old.trace):
                    if abs(a - b) > 1e-10 * b:
                        modulus = np.abs(spaces._circle_samples(g.derivative().coeffs, r, 1 << 16))
                        fine = (1.0 - r) ** (1.0 - 1.0 / p) * np.mean(modulus ** p) ** (1.0 / p)
                        assert a == pytest.approx(fine, rel=1e-13), (p, r)

    @pytest.mark.parametrize("p", [math.inf, math.nan, 0.5])
    def test_rejects_exponent_outside_range(self, p):
        with pytest.raises(ParameterError):
            Mp(PowerSeries(np.asarray([1.0, 1.0])), 0.5, p)

    def test_huge_p_gives_the_max_modulus(self):
        # every sample is scaled by the largest before the power, so no
        # power overflows and the mean tends to the max modulus 1 + 0.5
        assert Mp(PowerSeries(np.asarray([1.0, 1.0])), 0.5, 1e308) == 1.5

    def test_zero_function_gives_zero(self):
        assert Mp(PowerSeries(np.zeros(3)), 0.5, 3.0) == 0.0

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

    def test_against_mpmath_hypergeometric_at_p_one_point_two(self):
        # 2000 unit coefficients stand for 1/(1-z) to within r**2000 = 3e-18
        # at r = 0.98, and the mean of |1 - r e^{i theta}|**-p over the
        # circle is 2F1(p/2, p/2; 1; r**2); the samples fold modulo m
        f = PowerSeries(np.ones(2000))
        mp.mp.dps = 30
        ref = float(mp.hyp2f1(0.6, 0.6, 1, mp.mpf("0.98") ** 2) ** (1 / mp.mpf("1.2")))
        assert Mp(f, 0.98, 1.2) == pytest.approx(ref, rel=1e-10)

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
        est = bloch_seminorm(g)
        assert not est.converged

    def test_serializes_to_json(self):
        est = bloch_seminorm(PowerSeries.monomial(1))
        payload = json.loads(json.dumps(est, default=_record_dict))
        assert payload["value"] == est.value and payload["trace"] == list(est.trace)


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


def _probe(fd, a, p):
    # the probe at any a: the level kernel's angle-0 probe after turning f' by arg(a)
    turned = fd * np.exp(1j * cmath.phase(a) * np.arange(fd.size))
    return spaces._qp_level(turned, abs(a), p, 1)[0]


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
                got, _, tail = _probe(fd, r * cmath.exp(1j * theta), p)
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
            got, _, _ = _probe(fd, complex(a), p)
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

    @pytest.mark.parametrize("p", [0.3, 1.0, 1.7])
    def test_rolled_probes_equal_direct_convolutions(self, p):
        # probe j of a level rolls the spectrum of f' by j 2L/8 bins; each must
        # equal the energy of a direct convolution with (1 - conj(a) z)^-p at its angle
        rng = np.random.default_rng(31)
        fd = rng.normal(size=24) + 1j * rng.normal(size=24)
        for level in range(1, spaces.QP_DEPTH + 1):
            r = 1.0 - 2.0 ** -level
            probes = spaces._qp_level(fd, r, p, spaces.QP_ANGLES)
            assert len(probes) == spaces.QP_ANGLES
            for j, (got, length, tail) in enumerate(probes):
                k = np.arange(length, dtype=float)
                theta = 2.0 * math.pi * j / spaces.QP_ANGLES
                kern = gamma_ratio(k, p) * (r * np.exp(-1j * theta)) ** k
                h = np.convolve(fd, kern)[:length]
                beta = 1.0 / ((k + p + 1.0) * gamma_ratio(k, p + 1.0))
                want = (1.0 - r * r) ** p * float(np.sum(np.abs(h) ** 2 * beta))
                assert got == pytest.approx(want, rel=1e-12), (level, j)
                assert tail <= spaces.QP_TAIL_RTOL


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

    @pytest.mark.parametrize("p", [1.05, 1.2])
    def test_log_series_settles_just_above_one(self, log_series, p):
        # each circle mean settles within MP_MAX_ANGLES, so no NumericsError
        est = lambda_norm(log_series, p)
        assert est.converged
        assert all(math.isfinite(v) for v in est.trace)

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


def _circle(r, m):
    return r * np.exp(2j * np.pi * np.arange(m) / m)


class TestCircleSamples:
    """The folded FFT against Horner evaluation at the same points."""

    @pytest.mark.parametrize(
        "size, m",
        [(1, 64), (37, 64), (64, 64), (65, 64), (128, 64), (200, 64), (1000, 64),
         (100, 4096), (4096, 4096), (4097, 4096)],
    )
    def test_matches_horner(self, size, m):
        rng = np.random.default_rng(size)
        f = PowerSeries(rng.normal(size=size) + 1j * rng.normal(size=size))
        # the unit circle is test_long_series_against_mpmath's: there Horner at
        # the rounded points is off by about 1e-12 once the series is long
        for r in [1.0 - 2.0 ** -j for j in range(0, 13, 2)]:
            got, want = spaces._circle_samples(f.coeffs, r, m), f.eval(_circle(r, m))
            # relative to the largest sample: near a zero Horner's own error dominates
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), r

    def test_long_series_against_mpmath(self):
        # past a few thousand terms on |z| = 1, Horner at the rounded points
        # is itself off by about 1e-12, so check a long series against mpmath
        rng = np.random.default_rng(9)
        c = rng.normal(size=10000) + 1j * rng.normal(size=10000)
        m = spaces.HINF_ANGLES
        got = spaces._circle_samples(c, 1.0, m)
        mp.mp.dps = 30
        coeffs = [mp.mpc(x) for x in c[::-1]]
        for k in (0, 777, 2048, 4095):
            z = mp.expjpi(mp.mpf(2 * k) / m)
            want = complex(mp.polyval(coeffs, z))
            assert abs(got[k] - want) <= 1e-12 * np.max(np.abs(got)), k

    def test_bloch_and_hinf_match_horner(self):
        # the order-400 transforms of the four bounded test functions, and the
        # order-4096 image of the half-weight dyadic atoms (the Bloch necessity input)
        inputs = [cesaro_mu(f, Lebesgue(), 400) for _, f in bounded_test_functions()]
        for g in inputs + [cesaro_mu(PowerSeries.constant(1.0), dyadic_atoms(0.5), 1 << 12)]:
            fd = g.derivative()
            want = [
                (1.0 - r * r) * np.max(np.abs(fd.eval(_circle(r, spaces.BLOCH_ANGLES))))
                for r in [0.0] + [1.0 - 2.0 ** -j for j in range(1, spaces.BLOCH_DEPTH + 1)]
            ]
            np.testing.assert_allclose(bloch_seminorm(g).trace, want, rtol=1e-12)
        for g in inputs:
            # 16 angles per degree, rounded up to a power of two: 8192 on |z| = 1,
            # which PowerSeries.eval refuses, so Horner is called directly
            hinf = np.max(np.abs(_horner(g.coeffs, _circle(1.0, 8192))))
            assert hinf_norm(g).value == pytest.approx(hinf, rel=1e-12)

    def test_long_series_costs_one_fold_per_circle(self):
        # Horner evaluation took about 2.1 s (bloch) plus 0.65 s (hinf) at order 2^17
        # on a 2-core machine; the folded FFT takes under 0.1 s
        g = cesaro_mu(PowerSeries.constant(1.0), Lebesgue(), 1 << 17)
        start = time.perf_counter()
        bloch_seminorm(g)
        hinf_norm(g)
        assert time.perf_counter() - start < 1.0


class TestHinf:
    def test_bounded_corpus_near_one(self):
        # all four reference functions have sup norm exactly 1, attained on |z| = 1
        # up to the truncation of the two Blaschke series
        for name, f in bounded_test_functions():
            assert hinf_norm(f).value == pytest.approx(1.0, abs=1e-3), name

    def test_blaschke_factor_is_inner(self):
        b = blaschke_factor(0.5)
        assert hinf_norm(b).value <= 1.0 + 1e-12

    def test_scales_linearly(self):
        f = PowerSeries(np.asarray([0.0, 2.0]))
        assert hinf_norm(f).value == pytest.approx(2.0, rel=1e-12)

    def test_positive_coefficients_reach_their_sum(self):
        # every coefficient 1/(n+1) is positive, so the supremum is sum b_n at z = 1
        g = cesaro_mu(PowerSeries.constant(1.0), Lebesgue(), 1 << 12)
        est = hinf_norm(g)
        assert est.value == pytest.approx(math.fsum(np.abs(g.coeffs)), rel=1e-12)
        assert est.converged
        assert est.notes == ("65536 angles on |z| = 1; supremum at most 1.009748 times the "
                             "largest sample",)

    @pytest.mark.parametrize("degree", [400, 512])
    def test_maximum_between_samples_is_within_the_stated_factor(self, degree):
        # the Dirichlet polynomial sum (e^{i phi} z)^n peaks at degree + 1 where
        # z = e^{-i phi}; a half grid step puts that peak midway between two samples
        m = 8192
        phi = math.pi / m
        est = hinf_norm(PowerSeries(np.exp(1j * phi * np.arange(degree + 1))))
        factor = 1.0 / math.sqrt(math.cos(math.pi * degree / m))
        assert est.notes[0] == f"{m} angles on |z| = 1; supremum at most {factor:.6f} times " \
                               "the largest sample"
        assert est.value <= (degree + 1) * (1.0 + 1e-12)
        assert est.value * factor >= degree + 1
        assert est.value < (degree + 1) * (1.0 - 1e-4)  # the peak is missed, not sampled
        assert est.converged

    @pytest.mark.parametrize("degree, factor", [(spaces.MP_MAX_ANGLES // 16 + 1, "1.009748"),
                                                (spaces.MP_MAX_ANGLES // 2 + 1, "inf")])
    def test_past_the_angle_cap_is_unsettled(self, degree, factor):
        # 16 angles per degree would need more than MP_MAX_ANGLES; from half the
        # cap on, sec(pi deg / m) has no finite bound left to state
        est = hinf_norm(PowerSeries(np.ones(degree + 1)))
        assert est.value == pytest.approx(degree + 1.0, rel=1e-12)
        assert not est.converged
        assert est.notes == (
            f"{spaces.MP_MAX_ANGLES} angles on |z| = 1; supremum at most {factor} times the "
            "largest sample",
            f"degree {degree} needs {16 * degree} angles, past the cap {spaces.MP_MAX_ANGLES}",
        )


class TestCircleKernel:
    def test_exponent_two_is_exact(self):
        # at beta = 1 the circle average has the closed form
        # (1-|z|^2)^{-1}, so the ratio must be 1 to quadrature accuracy
        for j in (2, 6, 10):
            chk = circle_kernel_check(1.0 - 2.0 ** -j, 1.0)
            assert chk.ratio == pytest.approx(1.0, rel=1e-12)

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

    @pytest.mark.parametrize("beta", [-1.0, -2.0, math.inf, math.nan])
    def test_rejects_beta_outside_range(self, beta):
        with pytest.raises(ParameterError):
            circle_kernel_check(0.5, beta)

    def test_origin_is_one(self):
        assert circle_kernel_check(0.0, 0.5).computed == 1.0

    def test_uncertified_tail_is_refused(self, monkeypatch):
        monkeypatch.setattr(paper_checks, "CIRCLE_MAX_TERMS", 256)
        with pytest.raises(NumericsError, match="tail not certified within 256 terms"):
            circle_kernel_check(1.0 - 2.0 ** -8, 1.0)

    def test_overflow_is_refused(self):
        with pytest.raises(NumericsError, match="overflows"):
            circle_kernel_check(0.9, 1000.0)


class TestTwoKernel:
    def test_origin_closed_form(self):
        # a = b = 0 reduces to the radial weight integral 1/(s+1)
        for s in (0.5, 1.0):
            chk = two_kernel_check(0.0, 0.0, s, 1.9, 1.9)
            assert chk.computed == pytest.approx(1.0 / (s + 1.0), rel=1e-14)
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

    @pytest.mark.parametrize(
        "s, r, t", [(math.inf, 1.9, 1.9), (1.0, math.inf, 1.5), (1.0, 1.9, math.nan)]
    )
    def test_rejects_non_finite_exponents(self, s, r, t):
        with pytest.raises(ParameterError):
            two_kernel_check(0.5, 0.5, s, r, t)

    @pytest.mark.parametrize(
        "s, r, t", [(1.0, 1.9, 1.9), (1.0, 4.0, 1.5), (-0.5, 1.2, 1.2), (0.5, 3.0, 1.0)]
    )
    def test_single_singularity_is_hypergeometric(self, s, r, t):
        # b = 0: sum |F_n|^2 B(n+1, s+1) = 2F1(r/2, r/2; s+2; |a|^2) / (s+1)
        mp.mp.dps = 20
        for j in range(0, 11):
            a = 1.0 - 2.0 ** -j if j else 0.0
            want = float(mp.hyp2f1(r / 2, r / 2, s + 2, mp.mpf(a) ** 2) / (s + 1))
            got = two_kernel_check(a * cmath.exp(0.3j * j), 0.0, s, r, t).computed
            assert got == pytest.approx(want, rel=1e-12), j

    @staticmethod
    def _mp_parseval(a, b, s, r, t):
        # F_n by the recurrence that (1-conj(a)z)(1-conj(b)z) F' = (...) F gives,
        # summed against B(n+1, s+1) far past where |F_n|^2 B could matter
        mp.mp.dps = 20
        ca, cb = mp.conj(mp.mpc(a)), mp.conj(mp.mpc(b))
        rho = max(abs(a), abs(b))
        prev, cur = mp.mpc(0), mp.mpc(1)
        weight = 1 / mp.mpf(s + 1)
        total = mp.mpf(0)
        for n in range(int(40 / (1.0 - rho)) + 60):
            total += abs(cur) ** 2 * weight
            nxt = ((ca + cb) * n + r / 2 * ca + t / 2 * cb) * cur
            nxt -= ca * cb * (n - 1 + (r + t) / 2) * prev
            prev, cur = cur, nxt / (n + 1)
            weight *= mp.mpf(n + 1) / (n + s + 2)
        return float(total)

    @pytest.mark.parametrize("r, t", [(1.9, 1.9), (4.0, 1.5)])
    def test_two_singularities_against_mpmath_parseval(self, r, t):
        b = 0.5 * cmath.exp(1j * cmath.pi / 4)
        points = [1.0 - 2.0 ** -j for j in range(1, 5)] + [0.0, 0.3j, 0.9 * cmath.exp(-2.0j)]
        for a in points:
            want = self._mp_parseval(a, b, 1.0, r, t)
            assert two_kernel_check(a, b, 1.0, r, t).computed == pytest.approx(want, rel=1e-12), a

    def test_uncertified_tail_is_refused(self, monkeypatch):
        monkeypatch.setattr(paper_checks, "DISK_MAX_TERMS", 256)
        with pytest.raises(NumericsError, match="tail not certified within 256 terms"):
            two_kernel_check(1.0 - 2.0 ** -8, 0.5, 1.0, 1.9, 1.9)
