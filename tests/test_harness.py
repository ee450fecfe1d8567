import json
import math
import warnings

import numpy as np
import pytest

from cesaro.cli import _record_dict, main
from cesaro.errors import ParameterError
from cesaro.measure import Lebesgue, load_measure, moments_array
from cesaro.series import PowerSeries, cesaro_mu, cesaro_mu_s, coefficients_text
from cesaro.spaces import MP_MAX_ANGLES
from cesaro.harness import (
    DIVERGENT_R_VALUES,
    DIVERGENT_S,
    DIVERGENT_T,
    LAMBDA_CASES,
    LOG_SERIES_ORDER,
    QP_P_VALUES,
    SCENARIOS,
    CheckRecord,
    ScenarioReport,
    TraceRecord,
    run_all,
    run_divergent_integral,
    run_log_series,
)


def _assert_round_trips(rep: ScenarioReport) -> None:
    # the CLI writes the record's fields; every value must survive JSON unchanged
    payload = json.loads(json.dumps(rep, default=_record_dict, allow_nan=False))
    assert (payload["scenario"], payload["claim"], payload["pass"]) == (
        rep.scenario, rep.claim, rep.passed
    )
    assert payload["inputs"] == rep.inputs
    assert len(payload["checks"]) == len(rep.checks)
    for check, record in zip(payload["checks"], rep.checks):
        assert (check["name"], check["pass"]) == (record.name, record.passed)
        assert check["expected"] == record.expected
        assert check["observed"] == record.observed
        assert check["band"] == (None if record.band is None else list(record.band))
        assert check["margin"] == record.margin
    assert len(payload["traces"]) == len(rep.traces)
    for trace, record in zip(payload["traces"], rep.traces):
        assert trace["name"] == record.name
        assert trace["levels"] == list(record.levels)
        assert trace["values"] == list(record.values)


class TestReportTypes:
    def _sample_report(self) -> ScenarioReport:
        return ScenarioReport(
            scenario="log-series",
            claim="checks a closed-form identity",
            inputs={"order": 400},
            checks=(
                CheckRecord("first", expected=1.0, observed=1.0),
                CheckRecord("second", expected="bounded", observed="bounded"),
                CheckRecord("third", expected=[0.4, 0.6], observed=[0.5, 0.55], band=(0.4, 0.6)),
            ),
            traces=(TraceRecord("t", levels=(1, 2), values=(0.5, 0.25)),),
        )

    def test_round_trip(self):
        _assert_round_trips(self._sample_report())

    @pytest.mark.parametrize(
        "inputs, observed",
        [({"x": math.nan}, 1.0), ({1: 2}, 1.0), ({"pair": (1, 2)}, 1.0), ({}, (1.0, 2.0))],
        ids=["nan", "int-key", "tuple-input", "tuple-observed"],
    )
    def test_round_trip_catches_non_json_values(self, inputs, observed):
        rep = ScenarioReport("x", "claim", inputs, (CheckRecord("c", observed, observed),))
        with pytest.raises((AssertionError, ValueError)):
            _assert_round_trips(rep)

    def test_serializes_to_json(self):
        payload = json.loads(json.dumps(self._sample_report(), default=_record_dict))
        assert payload["pass"] is True
        assert [c["name"] for c in payload["checks"]] == ["first", "second", "third"]


# one NaN object on both sides: Python's list == takes it as equal to itself
_NAN = float("nan")


@pytest.mark.parametrize(
    "expected, observed, band, passed, margin",
    [
        (math.nan, math.nan, None, False, None),
        (0.5, math.nan, (0.0, 1.0), False, None),
        (0.5, math.inf, (0.0, 1.0), False, None),
        (0.5, -math.inf, (0.0, 1.0), False, None),
        (0.5, 0.0, (0.0, 1.0), True, 0.0),
        (0.5, 1.0, (0.0, 1.0), True, 0.0),
        (0.5, 0.5, (0.0, 1.0), True, 1.0),
        (0.0, 2e-12, (-1e-12, 1e-12), False, -1.0),
        ([0.0, 1.0], [0.25, 0.5], (0.0, 1.0), True, 0.5),
        ([0.0, 1.0], [0.5, 1.5, 0.5], (0.0, 1.0), False, -1.0),
        ([0.0, 1.0], [0.5, math.nan], (0.0, 1.0), False, None),
        (1.0, 1.0, None, True, None),
        (0.5, "0.5", None, False, None),
        ([True, True], [True, True], None, True, None),
        ([True, True], [True, False], None, False, None),
        ("bounded", "bounded", None, True, None),
        ("divergent", "bounded", None, False, None),
        (True, True, None, True, None),
        (False, True, None, False, None),
        (_NAN, _NAN, None, False, None),
        ([_NAN], [_NAN], None, False, None),
        ([_NAN], [float("nan")], None, False, None),
    ],
    ids=["nan-equal", "nan-band", "inf", "minus-inf", "low-end", "high-end", "centre",
         "outside", "list", "list-outlier", "list-nan", "equal", "str-vs-float", "bools",
         "bools-differ", "str", "str-differ", "bool", "bool-differ", "same-nan",
         "same-nan-in-lists", "nan-in-lists"],
)
def test_one_pass_rule(expected, observed, band, passed, margin):
    check = CheckRecord("c", expected, observed, band)
    assert check.passed is passed
    assert check.margin == (None if margin is None else pytest.approx(margin, abs=1e-12))
    json.dumps(check.margin, allow_nan=False)  # a margin never makes the JSON invalid


class TestScenarioRegistry:
    def test_registry_names(self):
        assert list(SCENARIOS) == [
            "equivalence",
            "divergent-integral",
            "log-series",
            "kernel-membership",
            "qp-range",
            "lambda-range",
        ]

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ParameterError):
            run_all(("bogus",))

    def test_run_all_validates_names(self):
        with pytest.raises(ParameterError):
            run_all(("log-series", "bogus"))


class TestScenarioValidation:
    """The fixed scenario inputs stay inside the ranges the claims are stated for."""

    def test_divergent_integral_r_values_reach_s(self):
        # r < s is the convergent regime; the scenario is about r >= s
        assert all(r >= DIVERGENT_S for r in DIVERGENT_R_VALUES)

    def test_divergent_integral_s_and_t_positive(self):
        assert DIVERGENT_S > 0.0 and DIVERGENT_T > 0.0

    def test_log_series_needs_room_for_energy_blocks(self):
        assert LOG_SERIES_ORDER >= 256

    def test_qp_range_exponents_above_zero(self):
        assert min(QP_P_VALUES) > 0.0

    def test_qp_range_exponents_below_two(self):
        assert max(QP_P_VALUES) < 2.0

    def test_lambda_range_exponents_exceed_max_one_over_s(self):
        assert all(s > 0.0 and p > max(1.0, 1.0 / s) for s, p in LAMBDA_CASES)


class TestScenarioRuns:
    def test_log_series_passes_and_round_trips(self):
        rep = run_log_series()
        assert rep.passed
        assert rep.scenario == "log-series"
        _assert_round_trips(rep)
        names = [c.name for c in rep.checks]
        assert "coefficients_equal_reciprocals" in names
        assert "energy_increments_near_log2" in names

    def test_divergent_integral_passes(self):
        rep = run_divergent_integral()
        assert rep.passed
        assert any(c.name.startswith("inner_integral_diverges") for c in rep.checks)

    def test_repeated_runs_identical(self):
        a, b = (json.dumps(run_log_series(), default=_record_dict, sort_keys=True) for _ in "ab")
        assert a == b


import pathlib

MEASURES = str(pathlib.Path(__file__).resolve().parents[1] / "measures")


def _nested_mixture(levels: int) -> str:
    text = '{"type": "lebesgue"}'
    for _ in range(levels):
        text = '{"type": "mixture", "components": [' + text + "]}"
    return text


class TestCli:
    def test_transform_of_one_prints_the_moments(self, capsys):
        code = main(["transform", "--measure", f"{MEASURES}/lebesgue.json", "--constant", "1",
                     "--order", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert out == "1.0 0.0\n0.5 0.0\n0.3333333333333333 0.0\n0.25 0.0\n0.2 0.0\n"

    @pytest.mark.parametrize("order", [0, 16, 70_000])  # 70_000 lines span two pieces
    @pytest.mark.parametrize("name", ["lebesgue", "dyadic_atoms", "power_density_half"])
    def test_transform_text_matches_one_string_format(self, name, order, tmp_path, capsys):
        # the reference builds the whole text as one string, so a line dropped or
        # repeated at a piece edge shows; at s = 1 the transform of 1 is exactly
        # the moment table
        path = f"{MEASURES}/{name}.json"
        mu = load_measure(path)
        g = cesaro_mu_s(PowerSeries.constant(1.0), mu, 1.0, order)
        want = "".join(f"{float(c.real)!r} {float(c.imag)!r}\n" for c in g.coeffs)
        assert np.array_equal(g.coeffs, moments_array(mu, order))
        out = tmp_path / "g.txt"
        argv = ["transform", "--measure", path, "--constant", "1", "--order", str(order)]
        assert main(argv) == 0
        assert main([*argv, "--out", str(out)]) == 0
        assert capsys.readouterr().out == want
        assert out.read_bytes() == want.encode("utf-8")

    @pytest.mark.parametrize(
        "argv, code",
        [(["--measure", "{M}/lebesgue.json", "--constant", "1e308", "--s", "3"], 3),
         (["--measure", "{bad}", "--constant", "1"], 2)],
        ids=["overflow", "bad_measure"],
    )
    def test_refused_transform_leaves_out_alone(self, argv, code, tmp_path, capsys):
        bad = tmp_path / "m.json"
        bad.write_text('{"type": "power_density", "alpha": -1}')
        out = tmp_path / "g.txt"
        out.write_bytes(b"kept\n")
        argv = [arg.replace("{M}", MEASURES).replace("{bad}", str(bad)) for arg in argv]
        assert main(["transform", *argv, "--out", str(out)]) == code
        assert out.read_bytes() == b"kept\n"

    def test_moments_is_no_command(self, capsys):
        assert main(["moments", "--measure", f"{MEASURES}/lebesgue.json", "--n", "3"]) == 2
        assert "invalid choice: 'moments'" in capsys.readouterr().err

    def test_transform_round_trips_through_files(self, tmp_path, capsys):
        out_file = tmp_path / "g.txt"
        code = main(
            [
                "transform",
                "--measure",
                f"{MEASURES}/lebesgue.json",
                "--constant",
                "1",
                "--order",
                "8",
                "--out",
                str(out_file),
            ]
        )
        assert code == 0
        from cesaro.series import read_coefficients

        g = read_coefficients(out_file)
        assert g.coeffs.real == pytest.approx(
            [1.0 / (n + 1) for n in range(9)], rel=1e-15
        )

    def test_transform_requires_exactly_one_source(self, capsys):
        code = main(
            ["transform", "--measure", f"{MEASURES}/lebesgue.json"]
        )
        assert code == 2

    def test_carleson_json_and_exit_zero_on_not_carleson(self, capsys):
        code = main(
            ["carleson", "--measure", f"{MEASURES}/lebesgue.json", "--s", "2",
             "--depth", "10",]
        )
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == 1
        assert payload["consensus"] == "not_carleson"

    def test_carleson_traces_in_json(self, tmp_path, capsys):
        out = tmp_path / "v.json"
        code = main(
            ["carleson", "--measure", f"{MEASURES}/lebesgue.json", "--s", "1",
             "--depth", "10", "--out", str(out)]
        )
        assert code == 0
        reports = json.loads(out.read_text())["reports"]
        assert sorted(reports) == [
            "box", "disk_kernel", "integral_complex", "integral_real", "moment",
        ]
        assert reports["box"]["levels"][0] == 1
        assert reports["box"]["values"][0] == 1.0

    @pytest.mark.parametrize("argv", [
        ["carleson", "--measure", f"{MEASURES}/lebesgue.json", "--s", "1"],
        ["seminorm", "--space", "bloch", "--input", "f.txt"],
        ["verify", "--scenario", "divergent-integral"],
    ])
    def test_trace_dir_is_refused(self, argv, tmp_path, capsys):
        # traces leave only in the JSON record; the flag is a usage error
        trace_dir = tmp_path / "traces"
        assert main([*argv, "--trace-dir", str(trace_dir)]) == 2
        assert capsys.readouterr().out == ""
        assert not trace_dir.exists()

    def test_seminorm_bloch(self, tmp_path, capsys):
        coeff = tmp_path / "f.txt"
        coeff.write_text("0.0 0.0\n1.0 0.0\n")
        code = main(["seminorm", "--space", "bloch", "--input", str(coeff)])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == pytest.approx(1.0)
        assert payload["converged"] is True
        assert payload["schema"] == 1

    def test_seminorm_hinf(self, tmp_path, capsys):
        coeff = tmp_path / "f.txt"
        coeff.write_text("0.5 0.0\n")
        code = main(["seminorm", "--space", "hinf", "--input", str(coeff)])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["value"] == pytest.approx(0.5)
        assert payload["trace"] == [payload["value"]]

    def test_seminorm_hinf_past_the_angle_cap_exits_three(self, tmp_path, capsys):
        # a degree past MP_MAX_ANGLES / 16 gets no 16 angles per degree: unsettled
        coeff = tmp_path / "f.txt"
        coeff.write_text("1 0\n" * (MP_MAX_ANGLES // 16 + 2))
        code = main(["seminorm", "--space", "hinf", "--input", str(coeff)])
        payload = json.loads(capsys.readouterr().out)
        assert code == 3
        assert payload["converged"] is False
        assert payload["value"] == pytest.approx(MP_MAX_ANGLES // 16 + 2, rel=1e-12)

    def test_seminorm_qp_requires_p(self, tmp_path, capsys):
        coeff = tmp_path / "f.txt"
        coeff.write_text("0.0 0.0\n1.0 0.0\n")
        assert main(["seminorm", "--space", "qp", "--input", str(coeff)]) == 2

    def test_seminorm_bloch_rejects_p(self, tmp_path, capsys):
        coeff = tmp_path / "f.txt"
        coeff.write_text("0.0 0.0\n1.0 0.0\n")
        assert (
            main(["seminorm", "--space", "bloch", "--p", "1", "--input", str(coeff)])
            == 2
        )

    @pytest.mark.parametrize(
        "flags, message",
        [(["qp"], "--space qp requires --p"), (["bloch", "--p", "1"], "--space bloch does not take --p")],
        ids=["qp_without_p", "bloch_with_p"],
    )
    def test_seminorm_flags_are_refused_before_the_input_is_read(
        self, flags, message, tmp_path, capsys
    ):
        missing = tmp_path / "missing.txt"
        assert main(["seminorm", "--space", *flags, "--input", str(missing)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "space, text",
        [
            (["hinf"], "1e308 0\n1e308 0\n"),
            (["qp", "--p", "1"], "0 0\n1e300 0\n1e300 0\n"),
            (["bloch"], "1e307 0\n" * 10),
            (["lambda", "--p", "2"], "1e307 0\n" * 10),
            (["qp", "--p", "1"], "1e307 0\n" * 10),
        ],
        ids=["hinf", "qp", "bloch_ten_lines", "lambda_ten_lines", "qp_ten_lines"],
    )
    def test_seminorm_overflow_is_exit_three(self, space, text, tmp_path, capsys):
        coeff = tmp_path / "f.txt"
        coeff.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["seminorm", "--space", *space, "--input", str(coeff)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("numerics: ") and captured.err.count("\n") == 1

    def test_seminorm_lambda_just_above_one_is_exit_zero(self, tmp_path, capsys):
        coeff = tmp_path / "g.txt"
        assert main(["transform", "--measure", f"{MEASURES}/lebesgue.json", "--constant", "1",
                     "--order", "400", "--out", str(coeff)]) == 0
        code = main(["seminorm", "--space", "lambda", "--p", "1.2", "--input", str(coeff)])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["converged"] is True

    def test_seminorm_qp_small_p_is_exit_zero(self, tmp_path, capsys):
        coeff = tmp_path / "g.txt"
        g = cesaro_mu(PowerSeries.constant(1.0), Lebesgue(), 400)
        coeff.write_text("".join(coefficients_text(g)))
        code = main(["seminorm", "--space", "qp", "--p", "0.2", "--input", str(coeff)])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["converged"] is True

    @pytest.mark.parametrize(
        "text",
        [
            "{",
            _nested_mixture(5000),
            _nested_mixture(33),
            '{"type": "power_density", "alpha": "0.5"}',
            '{"type": "power_density", "alpha": 0.5, "scale": true}',
            '{"type": "atomic", "points": [0.1, "0.2"], "weights": [1, 1]}',
            '{"type": "atomic", "points": [0.1, 0.2], "weights": [1e308, 1e308]}',
        ],
        ids=[
            "malformed",
            "nested_5000",
            "nested_33",
            "string_alpha",
            "bool_scale",
            "string_point",
            "overflowing_mass",
        ],
    )
    def test_bad_measure_json_is_exit_two(self, text, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["transform", "--measure", str(path), "--constant", "1", "--order", "3"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("space", ["qp", "lambda"])
    def test_seminorm_nan_p_is_exit_two(self, space, tmp_path, capsys):
        coeff = tmp_path / "f.txt"
        coeff.write_text("0.0 0.0\n1.0 0.0\n")
        assert main(["seminorm", "--space", space, "--p", "nan", "--input", str(coeff)]) == 2

    @pytest.mark.parametrize("depth, code", [("3", 2), ("53", 2), ("52", 0)])
    def test_carleson_depth_range(self, depth, code, capsys):
        argv = ["carleson", "--measure", f"{MEASURES}/lebesgue.json", "--s", "1",
                "--depth", depth]
        assert main(argv) == code

    @pytest.mark.parametrize(
        "argv, code, says",
        [
            (["carleson", "--measure", "{M}/lebesgue.json", "--s", "60"], 2, "float range"),
            (["carleson", "--measure", "{M}/power_density_half.json", "--s", "20", "--depth", "52"],
             2, "float range"),
            (["carleson", "--measure", "{M}/lebesgue.json", "--s", "1", "--t", "1000"],
             2, "float range"),
            (["seminorm", "--space", "lambda", "--p", "inf", "--input", "{g}"], 2,
             "p must lie in (1, inf), got inf"),
            (["seminorm", "--space", "qp", "--p", "inf", "--input", "{g}"], 2,
             "p must lie in (0, inf), got inf"),
            (["transform", "--measure", "{M}/lebesgue.json", "--constant", "1", "--s", "inf"],
             2, "s must lie in (0, inf), got inf"),
            (["carleson", "--measure", "{M}/lebesgue.json", "--s", "nan"], 2,
             "s must lie in (0, inf), got nan"),
            (["carleson", "--measure", "{M}/lebesgue.json", "--s", "1", "--r", "1"], 2,
             "r must lie in [0, 1.0), got 1.0"),
            (["seminorm", "--space", "qp", "--p", "nan", "--input", "{g}"], 2,
             "p must lie in (0, inf), got nan"),
            (["seminorm", "--space", "lambda", "--p", "1", "--input", "{g}"], 2,
             "p must lie in (1, inf), got 1.0"),
            (["transform", "--measure", "{M}/lebesgue.json", "--constant", "1", "--s", "-1"], 2,
             "s must lie in (0, inf), got -1.0"),
            (["transform", "--measure", "{M}/lebesgue.json", "--constant", "1", "--s", "1e308"],
             3, "overflow"),
            (["transform", "--measure", "{M}/lebesgue.json", "--constant", "1e308", "--s", "3"],
             3, "overflow"),
            (["transform", "--measure", "{M}/lebesgue.json", "--constant", "1",
              "--order", "10000000000000"], 2, "order must be an integer in [0, 1048576]"),
        ],
        ids=[
            "carleson_s_60",
            "carleson_s_20_depth_52",
            "carleson_t_1000",
            "lambda_p_inf",
            "qp_p_inf",
            "transform_s_inf",
            "carleson_s_nan",
            "carleson_r_1",
            "qp_p_nan",
            "lambda_p_1",
            "transform_s_negative",
            "transform_s_huge",
            "transform_constant_huge",
            "transform_huge_order",
        ],
    )
    def test_out_of_range_arguments_exit_with_one_line(self, argv, code, says, tmp_path, capsys):
        coeff = tmp_path / "g.txt"
        g = cesaro_mu(PowerSeries.constant(1.0), Lebesgue(), 400)
        coeff.write_text("".join(coefficients_text(g)))
        argv = [arg.replace("{M}", MEASURES).replace("{g}", str(coeff)) for arg in argv]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        prefix = "error: " if code == 2 else "numerics: "
        assert captured.err.startswith(prefix) and captured.err.count("\n") == 1
        assert says in captured.err

    @pytest.mark.parametrize(
        "argv",
        [["seminorm", "--space", "bloch", "--input", "{bad}"],
         ["transform", "--measure", "{M}/lebesgue.json", "--input", "{bad}"]],
        ids=["seminorm", "transform"],
    )
    def test_non_utf8_coefficient_file_is_exit_two(self, argv, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff\xfe\x001 0\n")
        assert main([arg.replace("{M}", MEASURES).replace("{bad}", str(bad)) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {bad}: not UTF-8") and captured.err.count("\n") == 1

    def test_missing_measure_file_is_exit_two(self, capsys):
        assert main(["carleson", "--measure", "/nope.json", "--s", "1"]) == 2

    def test_bad_scenario_is_exit_two(self, capsys):
        # ``run_all`` is the one validator of ids: one line that lists the known ones
        for bad in ("bogus", "ALL", ""):
            assert main(["verify", "--scenario", bad]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            (line,) = captured.err.splitlines()
            assert line == f"error: unknown scenario {bad!r}; known: {', '.join(SCENARIOS)}"

    def test_usage_error_is_exit_two(self, capsys):
        assert main(["carleson"]) == 2
        assert main([]) == 2

    def test_help_is_exit_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_verify_single_scenario_writes_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["verify", "--scenario", "log-series", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == 1
        assert payload["pass"] is True
        assert [r["scenario"] for r in payload["reports"]] == ["log-series"]
        traces = {trace["name"]: trace for trace in payload["reports"][0]["traces"]}
        for name in ("coefficient_decay", "energy_partial_sums"):
            assert len(traces[name]["levels"]) == len(traces[name]["values"]) > 0

    def test_verify_repeat_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["verify", "--scenario", "divergent-integral", "--out", str(a)]) == 0
        assert main(["verify", "--scenario", "divergent-integral", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
