"""What a fresh ``cesaro`` CLI process loads on start-up."""

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


def _fresh_import(threads: str | None) -> list[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env.pop("OPENBLAS_NUM_THREADS", None)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    run = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stderr
    return run.stdout.splitlines()


def test_cli_import_loads_no_scipy():
    # scipy.special alone would roughly double every CLI call's start-up
    scipy_modules, threads = _fresh_import(None)
    assert scipy_modules == "[]"
    assert threads == "1"


@pytest.mark.parametrize("threads", ["2", "4"])
def test_openblas_threads_set_by_caller_win(threads):
    assert _fresh_import(threads)[1] == threads
