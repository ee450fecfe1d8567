import json
import warnings

import pytest

from cesaro.cli import main
from cesaro.errors import ParameterError
from cesaro.measure import Lebesgue
from cesaro.series import PowerSeries, cesaro_mu, write_coefficients
from cesaro.harness import (
    SCENARIOS,
    CheckRecord,
    ScenarioReport,
    TraceRecord,
    run_all,
    run_divergent_integral,
    run_lambda_range,
    run_log_series,
    run_qp_range,
    run_scenario,
)


class TestReportTypes:
    def _sample_report(self) -> ScenarioReport:
        return ScenarioReport(
            scenario="log-series",
            claim="checks a closed-form identity",
            inputs={"order": 400},
            checks=(
                CheckRecord("first", expected=1.0, observed=1.0, passed=True),
                CheckRecord("second", expected="bounded", observed="bounded", passed=True),
            ),
            passed=True,
            traces=(TraceRecord("t", levels=(1, 2), values=(0.5, 0.25)),),
        )

    def test_round_trip(self):
        rep = self._sample_report()
        assert ScenarioReport.from_dict(rep.to_dict()) == rep

    def test_dict_form_is_json_ready(self):
        json.dumps(self._sample_report().to_dict())

    def test_pass_flag_must_match_checks(self):
        with pytest.raises(ValueError):
            ScenarioReport(
                scenario="x",
                claim="c",
                inputs={},
                checks=(CheckRecord("a", True, False, False),),
                passed=True,
            )

    def test_trace_round_trip_coerces_types(self):
        tr = TraceRecord.from_dict({"name": "t", "levels": [1.0, 2.0], "values": [1, 2]})
        assert tr.levels == (1, 2)
        assert tr.values == (1.0, 2.0)


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
            run_scenario("bogus")

    def test_run_all_validates_names(self):
        with pytest.raises(ParameterError):
            run_all(("log-series", "bogus"))


class TestScenarioValidation:
    def test_divergent_integral_rejects_r_below_s(self):
        # r < s is the convergent regime; the scenario is about r >= s
        with pytest.raises(ParameterError):
            run_divergent_integral(s=0.5, r_values=(0.25,))

    def test_divergent_integral_rejects_nonpositive_s(self):
        with pytest.raises(ParameterError):
            run_divergent_integral(s=0.0)

    def test_log_series_needs_room_for_energy_blocks(self):
        with pytest.raises(ParameterError):
            run_log_series(order=128)

    def test_qp_range_rejects_p_zero(self):
        with pytest.raises(ParameterError, match="p = 0"):
            run_qp_range(p_values=(0.0,))

    def test_qp_range_rejects_p_two(self):
        with pytest.raises(ParameterError):
            run_qp_range(p_values=(2.0,))

    def test_lambda_range_rejects_small_p(self):
        with pytest.raises(ParameterError):
            run_lambda_range(cases=((0.5, 1.5),))
        with pytest.raises(ParameterError):
            run_lambda_range(cases=((1.0, 1.0),))


class TestScenarioRuns:
    def test_log_series_passes_and_round_trips(self):
        rep = run_log_series()
        assert rep.passed
        assert rep.scenario == "log-series"
        assert ScenarioReport.from_dict(rep.to_dict()) == rep
        names = [c.name for c in rep.checks]
        assert "coefficients_equal_reciprocals" in names
        assert "energy_increments_near_log2" in names

    def test_divergent_integral_passes(self):
        rep = run_divergent_integral()
        assert rep.passed
        assert any(c.name.startswith("inner_integral_diverges") for c in rep.checks)

    def test_repeated_runs_identical(self):
        a = run_log_series().to_dict()
        b = run_log_series().to_dict()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


import pathlib

MEASURES = str(pathlib.Path(__file__).resolve().parents[1] / "measures")


def _nested_mixture(levels: int) -> str:
    text = '{"type": "lebesgue"}'
    for _ in range(levels):
        text = '{"type": "mixture", "components": [' + text + "]}"
    return text


class TestCli:
    def test_moments_csv(self, capsys):
        code = main(["moments", "--measure", f"{MEASURES}/lebesgue.json", "--n", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert out == "0,1.0\n1,0.5\n2,0.3333333333333333\n3,0.25\n4,0.2\n"

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

    def test_carleson_trace_dir(self, tmp_path, capsys):
        trace_dir = tmp_path / "traces"
        code = main(
            ["carleson", "--measure", f"{MEASURES}/lebesgue.json", "--s", "1",
             "--depth", "10", "--out", str(tmp_path / "v.json"),
             "--trace-dir", str(trace_dir)]
        )
        assert code == 0
        files = sorted(p.name for p in trace_dir.iterdir())
        assert files == [
            "carleson.box.csv",
            "carleson.disk_kernel.csv",
            "carleson.integral_complex.csv",
            "carleson.integral_real.csv",
            "carleson.moment.csv",
        ]
        first = (trace_dir / "carleson.box.csv").read_text().splitlines()
        assert first[0] == "level,value"
        assert first[1] == "1,1.0"

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
        "space, text",
        [(["hinf"], "1e308 0\n1e308 0\n"), (["qp", "--p", "1"], "0 0\n1e300 0\n1e300 0\n")],
        ids=["hinf", "qp"],
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

    def test_seminorm_qp_small_p_is_exit_zero(self, tmp_path, capsys):
        coeff = tmp_path / "g.txt"
        write_coefficients(cesaro_mu(PowerSeries.constant(1.0), Lebesgue(), 400), coeff)
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
            code = main(["moments", "--measure", str(path), "--n", "3"])
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

    def test_missing_measure_file_is_exit_two(self, capsys):
        assert main(["carleson", "--measure", "/nope.json", "--s", "1"]) == 2

    def test_bad_scenario_is_exit_two(self, capsys):
        assert main(["verify", "--scenario", "bogus"]) == 2

    def test_usage_error_is_exit_two(self, capsys):
        assert main(["carleson"]) == 2
        assert main([]) == 2

    def test_help_is_exit_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_verify_single_scenario_writes_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        trace_dir = tmp_path / "traces"
        code = main(
            ["verify", "--scenario", "log-series", "--out", str(out),
             "--trace-dir", str(trace_dir)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == 1
        assert payload["pass"] is True
        assert [r["scenario"] for r in payload["reports"]] == ["log-series"]
        names = sorted(p.name for p in trace_dir.iterdir())
        assert "log-series.coefficient_decay.csv" in names
        assert "log-series.energy_partial_sums.csv" in names

    def test_verify_repeat_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["verify", "--scenario", "divergent-integral", "--out", str(a)]) == 0
        assert main(["verify", "--scenario", "divergent-integral", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
