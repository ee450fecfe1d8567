"""Every real argument with a stated range is held to it by ``check_real``.

Each function gets NaN, both infinities and the excluded end of its
interval, and must raise ``ParameterError`` naming the argument; an
out-of-range measure file is one ``error:`` line and exit 2.
"""

import math
import re

import numpy as np
import pytest

from cesaro import carleson, spaces
from cesaro.cli import main
from cesaro.corpus import blaschke_factor
from cesaro.errors import ParameterError, check_real
from cesaro.measure import Atomic, Lebesgue, PowerDensity, tail_mass
from cesaro.series import PowerSeries, compose_mobius, gamma_ratio, integral_rep_eval

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
    "circle_kernel_check.z": ("|z|", lambda x: spaces.circle_kernel_check(x, 0.5), 1.0),
    "circle_kernel_check.beta": ("beta", lambda x: spaces.circle_kernel_check(0.5, x), -1.0),
    "two_kernel_check.a": ("|a|", lambda x: spaces.two_kernel_check(x, 0.3, 0.0, 1.5, 1.5), 1.0),
    "two_kernel_check.b": ("|b|", lambda x: spaces.two_kernel_check(0.5, x, 0.0, 1.5, 1.5), 1.0),
    "two_kernel_check.s": ("s", lambda x: spaces.two_kernel_check(0.5, 0.3, x, 1.5, 1.5), -1.0),
    "two_kernel_check.t": ("t", lambda x: spaces.two_kernel_check(0.5, 0.3, 0.0, 1.5, x), 2.0),
    # r may sit on either side of 2 + s, but not on it
    "two_kernel_check.r": ("r", lambda x: spaces.two_kernel_check(0.5, 0.3, 0.0, x, 1.5), 2.0),
    "gamma_ratio.s": ("s", lambda x: gamma_ratio(np.arange(3), x), 0.0),
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


def test_two_kernel_check_needs_a_positive_gap():
    # each exponent in range, but r + t - s - 2 = 0 leaves no bound to compare with
    with pytest.raises(ParameterError, match=r"^r \+ t - s - 2 must lie in \(0, inf\), got 0\.0$"):
        spaces.two_kernel_check(0.5, 0.3, 0.5, 1.0, 1.5)


def test_check_real_interval_ends():
    assert check_real("x", 0, 0, 1, closed=True) == 0.0
    assert isinstance(check_real("x", np.float32(0.5), 0, 1), float)
    with pytest.raises(ParameterError, match=r"^x must lie in \(0, 1\), got 0\.0$"):
        check_real("x", 0, 0, 1)
    with pytest.raises(ParameterError, match=r"^x must lie in \[0, inf\), got nan$"):
        check_real("x", math.nan, 0, closed=True)


@pytest.mark.parametrize(
    "text, says",
    [
        ('{"type": "power_density", "alpha": -1}', "alpha must lie in (-1, inf), got -1.0"),
        ('{"type": "atomic", "points": [1.0], "weights": [1.0]}',
         "points must lie in [0, 1), got 1.0"),
    ],
    ids=["alpha_minus_1", "atom_at_1"],
)
def test_measure_file_out_of_range_is_one_line_exit_two(text, says, tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(text)
    assert main(["moments", "--measure", str(path), "--n", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {says}\n"
