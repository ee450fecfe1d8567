"""The JSON contract of the result records the CLI prints.

``cli._record_dict`` is the one serializer: a record is written as its
dataclass fields, keyed by field name, with ``passed`` written as
``"pass"``.  Derived fields are computed by the record itself and are
not constructor arguments:

* ``GrowthReport``: ``exponent = slope / log 2``, ``verdict`` bounded iff
  ``slope < GROWTH_THRESHOLD``, ``threshold = GROWTH_THRESHOLD``, and
  ``(rise, rise_level)`` from ``sup_rise(values, rise_window)`` with
  ``rise_window = RISE_WINDOW``
* ``SeminormEstimate``: ``levels`` numbers the trace from 0, ``value = max(trace)``,
  ``(rise, rise_level)`` from ``sup_rise(trace, 1)``, and ``converged``
  iff ``rise <= SUP_CONVERGENCE_RTOL`` and ``certified``
* ``CarlesonVerdict``: ``consensus`` from the reports' bounded flags
* ``ScenarioReport``: ``passed`` is the conjunction of its checks
"""

import dataclasses
import json
import math
from pathlib import Path

import pytest

from cesaro.carleson import CARLESON, DISAGREEMENT, NOT_CARLESON, CarlesonVerdict
from cesaro.cli import _record_dict, main
from cesaro.corpus import LabeledMeasure
from cesaro.harness import CheckRecord, ScenarioReport, TraceRecord
from cesaro.measure import Atomic, Lebesgue
from cesaro.numerics import (
    BOUNDED,
    DIVERGENT,
    GROWTH_THRESHOLD,
    RISE_WINDOW,
    SUP_CONVERGENCE_RTOL,
    GrowthReport,
    classify_growth,
    sup_rise,
)
from cesaro.spaces import SeminormEstimate

MEASURES = Path(__file__).resolve().parents[1] / "measures"


def _keys(record_type) -> set:
    return {"pass" if f.name == "passed" else f.name for f in dataclasses.fields(record_type)}


def _printed(argv, capsys):
    code = main(argv)
    return code, json.loads(capsys.readouterr().out)


def _check_growth(rep: dict) -> None:
    assert set(rep) == _keys(GrowthReport)
    assert rep["exponent"] == rep["slope"] / math.log(2.0)
    assert rep["threshold"] == GROWTH_THRESHOLD
    assert rep["verdict"] == (BOUNDED if rep["slope"] < GROWTH_THRESHOLD else DIVERGENT)
    assert rep["rise_window"] == RISE_WINDOW
    rise, k = sup_rise(rep["values"], RISE_WINDOW)
    assert (rep["rise"], rep["rise_level"]) == (rise, rep["levels"][k])


def _consensus(reports: dict) -> str:
    flags = {rep["verdict"] == BOUNDED for rep in reports.values()}
    return CARLESON if flags == {True} else NOT_CARLESON if flags == {False} else DISAGREEMENT


@pytest.mark.parametrize(
    "measure, s", [("lebesgue", "1"), ("lebesgue", "2"), ("dyadic_atoms", "0.5"),
                   ("power_density_half", "0.5")]
)
def test_carleson_verdict(measure, s, capsys):
    code, payload = _printed(
        ["carleson", "--measure", str(MEASURES / f"{measure}.json"), "--s", s, "--depth", "10"],
        capsys,
    )
    assert code == 0
    assert set(payload) == _keys(CarlesonVerdict) | {"schema"}
    for rep in payload["reports"].values():
        _check_growth(rep)
    assert payload["consensus"] == _consensus(payload["reports"])


@pytest.fixture(scope="module")
def coeffs_file(tmp_path_factory):
    # the order-64 transform of the constant 1 against Lebesgue measure
    path = tmp_path_factory.mktemp("records") / "g.txt"
    path.write_text("".join(f"{1.0 / (n + 1)!r} 0.0\n" for n in range(65)))
    return str(path)


@pytest.mark.parametrize(
    "space", [["bloch"], ["hinf"], ["qp", "--p", "1"], ["lambda", "--p", "2"]], ids=lambda s: s[0]
)
def test_seminorm_estimate(space, coeffs_file, capsys):
    code, payload = _printed(["seminorm", "--space", *space, "--input", coeffs_file], capsys)
    assert code == 0
    assert set(payload) == _keys(SeminormEstimate) | {"schema", "space"}
    assert payload["value"] == max(payload["trace"])
    assert payload["levels"] == list(range(len(payload["trace"])))
    rise, k = sup_rise(payload["trace"], 1)
    assert (payload["rise"], payload["rise_level"]) == (rise, k)
    assert payload["converged"] == (rise <= SUP_CONVERGENCE_RTOL and payload["certified"])


@pytest.mark.parametrize("scenario", ["divergent-integral", "log-series"])
def test_scenario_report(scenario, capsys):
    code, payload = _printed(["verify", "--scenario", scenario], capsys)
    assert code == 0
    assert set(payload) == {"schema", "pass", "reports"}
    for report in payload["reports"]:
        assert set(report) == _keys(ScenarioReport)
        assert all(set(check) == _keys(CheckRecord) for check in report["checks"])
        assert all(set(trace) == _keys(TraceRecord) for trace in report["traces"])
        assert report["pass"] == all(check["pass"] for check in report["checks"])
    assert payload["pass"] == all(report["pass"] for report in payload["reports"])


@pytest.mark.parametrize(
    "values", [[1.0, 2.0, math.inf, 4.0], [0.0, -1.0, 0.0, -2.0], [1.0, 2.0, 4.0, 8.0, 16.0],
               [3.0] * 12],
    ids=["infinite", "nonpositive", "growing", "constant"],
)
def test_growth_report_branches(values):
    _check_growth(json.loads(json.dumps(classify_growth(values), default=_record_dict)))


def test_consensus_of_mixed_reports_is_disagreement():
    reports = {"up": classify_growth([1.0, 2.0, 4.0, 8.0]), "flat": classify_growth([1.0] * 4)}
    verdict = CarlesonVerdict(order=1.0, reports=reports, diagnostics={})
    assert verdict.consensus == DISAGREEMENT
    assert CarlesonVerdict(1.0, {"flat": reports["flat"]}, {}).consensus == CARLESON
    assert CarlesonVerdict(1.0, {"up": reports["up"]}, {}).consensus == NOT_CARLESON


def test_scenario_report_fails_with_any_check():
    checks = [CheckRecord("ok", 1, 1), CheckRecord("bad", 1, 2)]
    assert not ScenarioReport("x", "claim", {}, checks).passed
    assert ScenarioReport("x", "claim", {}, checks[:1]).passed


@pytest.mark.parametrize(
    "build",
    [
        lambda: GrowthReport((1,), (1.0,), 0.0, exponent=0.0),
        lambda: GrowthReport((1,), (1.0,), 0.0, verdict=BOUNDED),
        lambda: SeminormEstimate((1.0,), True, value=1.0),
        lambda: SeminormEstimate((1.0,), True, levels=(0,)),
        lambda: SeminormEstimate((1.0,), converged=True),
        lambda: SeminormEstimate((1.0,), rise=0.0),
        lambda: GrowthReport((1,), (1.0,), 0.0, rise_window=1),
        lambda: CarlesonVerdict(1.0, {}, {}, consensus=CARLESON),
        lambda: ScenarioReport("x", "claim", {}, (), passed=True),
        lambda: CheckRecord("c", 1.0, 1.0, passed=True),
        lambda: CheckRecord("c", 1.0, 1.0, (0.0, 2.0), margin=1.0),
    ],
    ids=["exponent", "verdict", "value", "levels", "converged", "rise", "rise-window",
         "consensus", "passed", "check-passed", "check-margin"],
)
def test_derived_fields_are_not_arguments(build):
    with pytest.raises(TypeError):
        build()


@pytest.mark.parametrize(
    "value", [object(), Atomic((0.5,), (1.0,)), LabeledMeasure("x", Lebesgue(), 1.0, True)],
    ids=["object", "measure", "labeled-measure"],
)
def test_serializer_refuses_other_objects(value):
    # measures are dataclasses too, but are written by measure_to_dict with a "type" key
    with pytest.raises(TypeError):
        json.dumps({"x": value}, default=_record_dict)
