"""What a fresh ``cesaro`` process loads on start-up, and what it can run without."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = (
    "import os, sys, cesaro.cli; "
    "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); "
    "print(os.environ['OPENBLAS_NUM_THREADS'])"
)


def _fresh_run(code: str, threads: str | None = None) -> list[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env.pop("OPENBLAS_NUM_THREADS", None)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stderr
    return run.stdout.splitlines()


def test_cli_import_loads_no_scipy():
    # scipy.special alone would roughly double every CLI call's start-up
    scipy_modules, threads = _fresh_run(PROBE)
    assert scipy_modules == "[]"
    assert threads == "1"


@pytest.mark.parametrize("threads", ["2", "4"])
def test_openblas_threads_set_by_caller_win(threads):
    assert _fresh_run(PROBE, threads)[1] == threads


def test_kernel_checks_run_without_scipy():
    # sys.modules["scipy"] = None makes every scipy import fail
    (line,) = _fresh_run(
        "import sys; sys.modules['scipy'] = None; "
        "from cesaro import circle_kernel_check, two_kernel_check; "
        "print(circle_kernel_check(0.75, 1.0).ratio, "
        "two_kernel_check(0.5, 0.25j, 1.0, 1.9, 1.9).ratio)"
    )
    circle_ratio, two_ratio = map(float, line.split())
    assert circle_ratio == pytest.approx(1.0, rel=1e-12)
    assert 0.25 <= two_ratio <= 1.5
