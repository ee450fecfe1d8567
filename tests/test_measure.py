import json
import math
import sys
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate

from cesaro.corpus import dyadic_atoms
from cesaro.errors import ParameterError
from cesaro.measure import (
    MAX_ORDER,
    Atomic,
    Lebesgue,
    Mixture,
    PowerDensity,
    check_order,
    load_measure,
    measure_from_dict,
    measure_to_dict,
    moment,
    moments_array,
    tail_mass,
    total_mass,
)

from conftest import any_measures


def _close_to_oracle(got: float, expected: float, alpha: float) -> bool:
    # rel 1e-13 to alpha = 10 and 1e-12 above, as far as normal floats reach
    rel = 1e-13 if alpha <= 10.0 else 1e-12
    return math.isclose(got, expected, rel_tol=rel, abs_tol=rel * sys.float_info.min)


class TestValidation:
    def test_atomic_rejects_point_at_one(self):
        with pytest.raises(ParameterError):
            Atomic((0.5, 1.0), (1.0, 1.0))

    def test_atomic_rejects_negative_point(self):
        with pytest.raises(ParameterError):
            Atomic((-0.1,), (1.0,))

    def test_atomic_rejects_nonpositive_weight(self):
        with pytest.raises(ParameterError):
            Atomic((0.5,), (0.0,))

    def test_atomic_rejects_duplicate_points(self):
        with pytest.raises(ParameterError):
            Atomic((0.5, 0.5), (1.0, 1.0))

    def test_atomic_rejects_length_mismatch(self):
        with pytest.raises(ParameterError):
            Atomic((0.5,), (1.0, 2.0))

    def test_power_density_rejects_alpha_at_minus_one(self):
        with pytest.raises(ParameterError):
            PowerDensity(-1.0)

    def test_power_density_rejects_nonpositive_scale(self):
        with pytest.raises(ParameterError):
            PowerDensity(0.5, scale=0.0)

    def test_mixture_rejects_empty(self):
        with pytest.raises(ParameterError):
            Mixture(())

    def test_measures_are_hashable(self):
        # scenario caching keys on the measure objects
        {Lebesgue(), PowerDensity(0.5), Atomic((0.1,), (1.0,))}


class TestMoments:
    def test_order_cap_is_inclusive(self):
        assert moments_array(Lebesgue(), MAX_ORDER).size == MAX_ORDER + 1

    @pytest.mark.parametrize("order", [-1, MAX_ORDER + 1, 10 ** 13, 2.0, True])
    def test_rejects_orders_outside_range(self, order):
        with pytest.raises(ParameterError, match=r"order must be an integer in \[0, 1048576\]"):
            moments_array(Lebesgue(), order)

    @pytest.mark.parametrize("order", [np.int64(5), np.int32(5), np.uint8(5)])
    def test_accepts_numpy_integers(self, order):
        # check_order takes anything with __index__, as NumPy's integer types have
        assert check_order(order) == 5 and type(check_order(order)) is int
        assert moments_array(Lebesgue(), order).size == 6

    def test_lebesgue_closed_form(self):
        seq = moments_array(Lebesgue(), 10)
        for n in range(11):
            assert seq[n] == pytest.approx(1.0 / (n + 1), abs=1e-15)

    def test_atomic_exact(self):
        mu = Atomic((0.25, 0.75), (2.0, 1.0))
        for n in range(6):
            expected = 2.0 * 0.25 ** n + 0.75 ** n
            assert moments_array(mu, n)[-1] == pytest.approx(expected, rel=1e-15)

    def test_atomic_matches_power_table(self):
        # the per-atom sum against the (order+1) x atoms table it replaced;
        # only the summation order differs, so rtol is atoms * eps
        mu = dyadic_atoms(0.5)
        n = np.arange(4097, dtype=float)
        table = (np.asarray(mu.points)[None, :] ** n[:, None]) @ np.asarray(mu.weights)
        rtol = len(mu.points) * np.finfo(float).eps
        np.testing.assert_allclose(moments_array(mu, 4096), table, rtol=rtol, atol=0.0)

    def test_atomic_memory_is_a_few_order_length_arrays(self):
        # a power table of 512 atoms at order 2**15 would be 134 MB
        order, atoms = 1 << 15, 512
        mu = Atomic(tuple(np.linspace(0.0, 0.999, atoms)), (1.0 / atoms,) * atoms)
        tracemalloc.start()
        try:
            moments_array(mu, order)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 8 * (order + 1)

    def test_point_mass_at_zero(self):
        mu = Atomic((0.0,), (3.0,))
        assert moments_array(mu, 0)[-1] == 3.0
        assert moments_array(mu, 1)[-1] == 0.0
        assert moments_array(mu, 7)[-1] == 0.0

    def test_power_density_against_beta_function(self):
        # mu_n = scale * B(n+1, alpha+1), checked in high precision
        mp.mp.dps = 40
        for alpha in (-0.5, 0.0, 1.0, 2.5):
            mu = PowerDensity(alpha, scale=1.5)
            for n in (0, 1, 5, 20, 50):
                expected = float(mp.mpf("1.5") * mp.beta(n + 1, mp.mpf(alpha) + 1))
                assert moments_array(mu, n)[-1] == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("alpha", [-0.95, -0.5, 0.0, 0.5, 1.5, 3.7, 40.0])
    def test_power_density_deep_moments_against_mpmath(self, alpha):
        mp.mp.dps = 40
        arr = moments_array(PowerDensity(alpha), 2 ** 20)
        for n in (0, 1, 7, 9, 10, 100, 2 ** 10 + 3, 2 ** 14 - 1, 2 ** 14, 99_991,
                  2 ** 19 + 1, 2 ** 20):
            expected = float(mp.beta(n + 1, mp.mpf(alpha) + 1))
            assert _close_to_oracle(arr[n], expected, alpha), n

    @pytest.mark.parametrize(
        "alpha", [-0.99, -0.9, -0.5, 0.0, 0.9091146638988871, 1.5, 3.7, 10.0, 40.0, 49.0]
    )
    def test_power_density_rule_against_mpmath_to_two_to_the_52(self, alpha):
        # mpmath forms n + alpha + 2 itself: the float sum is 1e-10 off at n = 2**20
        mp.mp.dps = 40
        mu = PowerDensity(alpha, scale=1.5)
        for j in range(53):
            n = 1 << j
            expected = float(mp.mpf("1.5") * mp.beta(n + 1, mp.mpf(alpha) + 1))
            assert _close_to_oracle(moment(mu, n), expected, alpha), j

    @given(st.floats(-0.999, 60.0), st.floats(0.1, 5.0), st.integers(0, 52))
    def test_power_density_rule_against_mpmath(self, alpha, scale, j):
        mp.mp.dps = 40
        mu = PowerDensity(alpha, scale)
        assert moment(mu, 0) == moments_array(mu, 0)[0] == scale / (alpha + 1.0)
        n = 1 << j
        expected = float(mp.mpf(scale) * mp.beta(n + 1, mp.mpf(alpha) + 1))
        assert _close_to_oracle(moment(mu, n), expected, alpha), n

    def test_huge_alpha_stays_finite(self):
        arr = moments_array(PowerDensity(1e308), 4)
        assert arr[0] == pytest.approx(1e-308, rel=1e-12)
        assert np.all(arr[1:] == 0.0)

    def test_power_density_against_direct_quadrature(self):
        mu = PowerDensity(-0.5)
        for n in (0, 3, 10):
            val, err = integrate.quad(
                lambda x, n=n: x ** n, 0.0, 1.0, weight="alg", wvar=(0.0, -0.5)
            )
            assert moments_array(mu, n)[-1] == pytest.approx(val, rel=1e-10)

    def test_mixture_adds(self):
        mix = Mixture((Lebesgue(), Atomic((0.5,), (1.0,))))
        for n in range(5):
            assert moments_array(mix, n)[-1] == pytest.approx(1.0 / (n + 1) + 0.5 ** n, rel=1e-14)

    def test_moments_array_matches_scalar(self):
        mu = PowerDensity(0.5, scale=2.0)
        arr = moments_array(mu, 8)
        for n in range(9):
            assert arr[n] == pytest.approx(moments_array(mu, n)[-1], rel=1e-15)

    def test_rejects_negative_order(self):
        with pytest.raises(ParameterError):
            moments_array(Lebesgue(), -1)

    @given(any_measures(), st.integers(0, 200))
    def test_moments_nonincreasing_and_bounded(self, mu, order):
        arr = moments_array(mu, order)
        assert np.all(arr >= 0.0)
        assert np.all(arr[1:] <= arr[:-1] * (1.0 + 1e-12) + 1e-300)
        assert arr[0] == pytest.approx(total_mass(mu), rel=1e-12)


class TestTailMass:
    def test_lebesgue(self):
        assert tail_mass(Lebesgue(), 0.25) == 0.75

    def test_atomic_counts_boundary_point(self):
        mu = Atomic((0.25, 0.5), (1.0, 2.0))
        assert tail_mass(mu, 0.5) == 2.0
        assert tail_mass(mu, 0.51) == 0.0

    def test_power_density_closed_form(self):
        mu = PowerDensity(-0.5, scale=3.0)
        t = 0.75
        expected = 3.0 * (1 - t) ** 0.5 / 0.5
        assert tail_mass(mu, t) == pytest.approx(expected, rel=1e-14)

    def test_rejects_cut_at_one(self):
        with pytest.raises(ParameterError):
            tail_mass(Lebesgue(), 1.0)

    @given(any_measures(), st.floats(0.0, 0.999))
    def test_tail_below_total(self, mu, t):
        assert 0.0 <= tail_mass(mu, t) <= total_mass(mu) * (1.0 + 1e-12)

    @given(any_measures())
    def test_tail_matches_power_sum_limit(self, mu):
        # total mass is both tail at 0 and the 0th moment
        assert total_mass(mu) == pytest.approx(moments_array(mu, 0)[-1], rel=1e-12)


class TestSerialization:
    @given(any_measures())
    def test_round_trip(self, mu):
        assert measure_from_dict(measure_to_dict(mu)) == mu

    def test_file_round_trip(self, tmp_path):
        mu = Mixture((PowerDensity(1.5, scale=0.5), Atomic((0.1, 0.9), (1.0, 2.0))))
        path = tmp_path / "m.json"
        path.write_text(json.dumps(measure_to_dict(mu)), encoding="utf-8")
        assert load_measure(path) == mu

    def test_rejects_unknown_type(self):
        with pytest.raises(ParameterError):
            measure_from_dict({"type": "gaussian"})

    def test_rejects_unknown_field(self):
        with pytest.raises(ParameterError):
            measure_from_dict({"type": "lebesgue", "mass": 2})

    def test_committed_files_load(self):
        import pathlib

        root = pathlib.Path(__file__).resolve().parents[1] / "measures"
        leb = load_measure(root / "lebesgue.json")
        assert leb == Lebesgue()
        half = load_measure(root / "power_density_half.json")
        assert half == PowerDensity(-0.5, scale=1.0)
        atoms = load_measure(root / "dyadic_atoms.json")
        assert isinstance(atoms, Atomic)
        assert len(atoms.points) == 26
        assert atoms.weights[0] == 0.5

    def test_dict_form_is_json_ready(self):
        d = measure_to_dict(Atomic((0.5,), (1.0,)))
        json.dumps(d)


def test_total_mass_of_committed_dyadic_atoms():
    import pathlib

    root = pathlib.Path(__file__).resolve().parents[1] / "measures"
    atoms = load_measure(root / "dyadic_atoms.json")
    assert total_mass(atoms) == pytest.approx(1.0 - 2.0 ** -26, rel=1e-15)
