"""Every real argument with a stated range is held to it by ``check_real``,
and every integer argument by ``check_int``.

Each real argument gets NaN, both infinities and the excluded end of its
interval, and must raise ``ParameterError`` naming the argument; each
integer argument gets a bool, a float, a string, NaN and the integers just
past both ends of its range.  A value that is not a real number (a bool, a
string, a list, an int past float range) is refused and shown as given.  An
out-of-range or non-numeric measure file is one ``error:`` line and exit 2.
"""

import math
import re

import numpy as np
import pytest

from cesaro import carleson, spaces
from cesaro.cli import main
from cesaro.corpus import blaschke_factor
from cesaro.errors import ParameterError, check_real
from cesaro.measure import MAX_ORDER, Atomic, Lebesgue, PowerDensity, moments_array, tail_mass
from cesaro.numerics import quad_measure, sup_on_dyadic_boundary
from cesaro.series import PowerSeries, gamma_ratio

from paper_checks import circle_kernel_check, compose_mobius, integral_rep_eval, two_kernel_check

F = PowerSeries(np.asarray([0.0, 1.0, 0.5]))

# (argument name, call with the argument as x, the excluded end of its interval)
CASES = {
    "box_test.s": ("s", lambda x: carleson.box_test(Lebesgue(), x), 0.0),
    "integral_test_real.t": ("t", lambda x: carleson.integral_test_real(Lebesgue(), 1.0, t=x), 0.0),
    "integral_test_real.r": ("r", lambda x: carleson.integral_test_real(Lebesgue(), 1.0, r=x), 1.0),
    "Mp.r": ("r", lambda x: spaces.Mp(F, x, 2.0), 1.0),
    "Mp.p": ("p", lambda x: spaces.Mp(F, 0.5, x), 0.5),
    "qp_seminorm.p": ("p", lambda x: spaces.qp_seminorm(F, x), 0.0),
    "lambda_norm.p": ("p", lambda x: spaces.lambda_norm(F, x), 1.0),
    "circle_kernel_check.z": ("|z|", lambda x: circle_kernel_check(x, 0.5), 1.0),
    "circle_kernel_check.beta": ("beta", lambda x: circle_kernel_check(0.5, x), -1.0),
    "two_kernel_check.a": ("|a|", lambda x: two_kernel_check(x, 0.3, 0.0, 1.5, 1.5), 1.0),
    "two_kernel_check.b": ("|b|", lambda x: two_kernel_check(0.5, x, 0.0, 1.5, 1.5), 1.0),
    "two_kernel_check.s": ("s", lambda x: two_kernel_check(0.5, 0.3, x, 1.5, 1.5), -1.0),
    "two_kernel_check.t": ("t", lambda x: two_kernel_check(0.5, 0.3, 0.0, 1.5, x), 2.0),
    # r may sit on either side of 2 + s, but not on it
    "two_kernel_check.r": ("r", lambda x: two_kernel_check(0.5, 0.3, 0.0, x, 1.5), 2.0),
    "gamma_ratio.s": ("s", lambda x: gamma_ratio(np.arange(3), x), 0.0),
    # every finite exponent is allowed (a divergent integral is exit 3), so no finite
    # end is excluded and the end row repeats NaN
    "quad_measure.singular_exponent": (
        "singular_exponent",
        lambda x: quad_measure(lambda us: [1.0] * len(us), Lebesgue(), singular_exponent=x),
        math.nan),
    "integral_rep_eval.s": ("s", lambda x: integral_rep_eval(F, Lebesgue(), x, 0.5), 0.0),
    "integral_rep_eval.z": ("|z|", lambda x: integral_rep_eval(F, Lebesgue(), 1.0, x), 1.0),
    "compose_mobius.b": ("|b|", lambda x: compose_mobius(F, x), 1.0),
    "PowerSeries.eval": ("|z|", lambda x: F.eval(np.asarray([0.1, x])), 1.0),
    "Atomic.points": ("points", lambda x: Atomic((x,), (1.0,)), 1.0),
    "Atomic.weights": ("weights", lambda x: Atomic((0.5,), (x,)), 0.0),
    "PowerDensity.alpha": ("alpha", lambda x: PowerDensity(x), -1.0),
    "PowerDensity.scale": ("scale", lambda x: PowerDensity(0.0, scale=x), 0.0),
    "tail_mass.t": ("t", lambda x: tail_mass(Lebesgue(), x), 1.0),
    "blaschke_factor.a": ("|a|", blaschke_factor, 1.0),
}


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, "end"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_out_of_range_argument_is_refused(case, x):
    name, call, end = CASES[case]
    x = end if x == "end" else x
    with pytest.raises(ParameterError, match=rf"^{re.escape(name)} must lie in [\[(]"):
        call(x)


# (argument name, call with the argument as n, its range)
INT_CASES = {
    "moments_array.order": ("order", lambda n: moments_array(Lebesgue(), n), (0, MAX_ORDER)),
    "box_test.depth": ("probe depth", lambda n: carleson.box_test(Lebesgue(), 1.0, depth=n),
                       carleson.DEPTH_RANGE),
    "sup_on_dyadic_boundary.angles": (
        "angles", lambda n: sup_on_dyadic_boundary(lambda a: 1.0, depth=6, angles=n),
        (1, math.inf)),
}


@pytest.mark.parametrize("case, n", [
    (case, n) for case, (_, _, (lo, hi)) in sorted(INT_CASES.items())
    # no integer lies past an infinite end
    for n in (True, 5.0, "5", math.nan, lo - 1, hi + 1) if n != math.inf
])
def test_out_of_range_integer_is_refused(case, n):
    name, call, (lo, hi) = INT_CASES[case]
    with pytest.raises(ParameterError, match=rf"^{re.escape(name)} must be an integer in "
                                             rf"\[{lo}, {hi}\], got {re.escape(repr(n))}$"):
        call(n)


@pytest.mark.parametrize("case", sorted(INT_CASES))
def test_numpy_integer_is_accepted(case):
    name, call, (lo, hi) = INT_CASES[case]
    call(np.int64(max(lo, 8)))


def test_two_kernel_check_needs_a_positive_gap():
    # each exponent in range, but r + t - s - 2 = 0 leaves no bound to compare with
    with pytest.raises(ParameterError, match=r"^r \+ t - s - 2 must lie in \(0, inf\), got 0\.0$"):
        two_kernel_check(0.5, 0.3, 0.5, 1.0, 1.5)


def test_check_real_interval_ends():
    assert check_real("x", 0, 0, 1, closed=True) == 0.0
    assert isinstance(check_real("x", np.float32(0.5), 0, 1), float)
    with pytest.raises(ParameterError, match=r"^x must lie in \(0, 1\), got 0\.0$"):
        check_real("x", 0, 0, 1)
    with pytest.raises(ParameterError, match=r"^x must lie in \[0, inf\), got nan$"):
        check_real("x", math.nan, 0, closed=True)


@pytest.mark.parametrize(
    "call, x",
    [(lambda x: check_real("s", x, 0), x) for x in ("0.5", True, b"0.5", [0.5], 10 ** 400, None)]
    + [(PowerDensity, True)],
    ids=["str", "bool", "bytes", "list", "huge_int", "none", "PowerDensity_bool"],
)
def test_non_real_is_refused_as_given(call, x):
    # JSON booleans are ints to Python and float() takes strings; neither is a number here
    with pytest.raises(ParameterError, match=rf"must lie in .*, got {re.escape(repr(x))}$"):
        call(x)


@pytest.mark.parametrize(
    "text, says",
    [
        ('{"type": "power_density", "alpha": -1}', "alpha must lie in (-1, inf), got -1.0"),
        ('{"type": "atomic", "points": [1.0], "weights": [1.0]}',
         "points must lie in [0, 1), got 1.0"),
        ('{"type": "power_density", "alpha": "0.5"}', "alpha must lie in (-1, inf), got '0.5'"),
        ('{"type": "atomic", "points": [true], "weights": [1.0]}',
         "points must lie in [0, 1), got True"),
        ('{"type": "atomic", "points": [0.5], "weights": [[1]]}',
         "weights must lie in (0, inf), got [1]"),
        ('{"type": "power_density", "alpha": 0, "scale": 1%s}' % ("0" * 399),
         "scale must lie in (0, inf), got 1%s" % ("0" * 399)),
    ],
    ids=["alpha_minus_1", "atom_at_1", "alpha_string", "atom_bool", "weight_list",
         "scale_400_digits"],
)
def test_measure_file_out_of_range_is_one_line_exit_two(text, says, tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(text)
    assert main(["moments", "--measure", str(path), "--n", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {says}\n"
