"""The benchmark's tracer still finds the layer functions it wraps by name.

``bench/tracer.py`` replaces ``src`` functions by attribute name and
refuses to run when one is missing or re-bound; this runs it end to end
in fresh processes so a renamed function fails here, not in a traced
benchmark run.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "argv, spans",
    [
        (
            ["carleson", "--measure", str(ROOT / "measures" / "lebesgue.json"), "--s", "1",
             "--depth", "8"],
            ["carleson.integral_test_complex", "carleson.disk_kernel_test",
             "numerics.quad_measure"],
        ),
        (["verify", "--scenario", "divergent-integral"], ["numerics.quad_measure"]),
        (["verify", "--scenario", "equivalence"], ["carleson.is_s_carleson"]),
        # ``harness`` binds these layer names per scenario; the tracer must still reach them
        (
            ["verify", "--scenario", "lambda-range"],
            ["series.cesaro_mu_s", "series.kernel_series", "spaces.lambda_norm",
             "spaces.bloch_seminorm"],
        ),
        # ``cli`` binds these layer names per call; the tracer must still reach them
        (
            ["transform", "--measure", str(ROOT / "measures" / "lebesgue.json"),
             "--input", "{tmp}/f.txt"],
            ["measure.load_measure", "series.read_coefficients", "series.cesaro_mu_s"],
        ),
        (
            ["seminorm", "--space", "hinf", "--input", "{tmp}/f.txt"],
            ["series.read_coefficients", "spaces.hinf_norm"],
        ),
    ],
    ids=["carleson", "divergent-integral", "equivalence", "lambda-range", "transform",
         "seminorm-hinf"],
)
def test_traced_call_reaches_wrapped_functions(tmp_path, argv, spans):
    (tmp_path / "f.txt").write_text("1.0 0.0\n0.5 0.0\n")
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    out = tmp_path / "spans.json"
    run = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "tracer.py"), str(out), *argv],
        capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    stats = json.loads(out.read_text(encoding="utf-8"))["stats"]
    for name in spans:
        assert stats[name]["calls"] > 0, name
