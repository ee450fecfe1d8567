"""Fresh ``cesaro`` processes: what start-up loads and freezes, what a call
can run without, the process entry, and what a call holds in memory."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from cesaro import cli
from cesaro.harness import SCENARIOS

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
TESTS = ROOT / "tests"
MEASURES = ROOT / "measures"

PROBE = (
    "import gc, os, sys, cesaro.cli; "
    "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); "
    "print(os.environ['OPENBLAS_NUM_THREADS']); "
    "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial'))); "
    "print(gc.get_freeze_count()); "
    "print(sorted(m for m in sys.modules if m in ('cesaro.harness', 'cesaro.corpus')))"
)


def _env(threads: str | None = None) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env.pop("OPENBLAS_NUM_THREADS", None)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    return env


def _fresh_run(code: str, threads: str | None = None) -> list[str]:
    run = subprocess.run(
        [sys.executable, "-c", code], env=_env(threads), capture_output=True, text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    return run.stdout.splitlines()


def test_cli_import_loads_no_scipy():
    # scipy.special alone would roughly double every CLI call's start-up
    scipy_modules, threads = _fresh_run(PROBE)[:2]
    assert scipy_modules == "[]"
    assert threads == "1"


def test_cli_import_loads_no_polynomial_and_freezes_nothing():
    # numpy.polynomial only builds the quadrature rule, on the first integral;
    # importing the library has no process-wide effect, only the entry freezes
    polynomial_modules, frozen = _fresh_run(PROBE)[2:4]
    assert polynomial_modules == "[]"
    assert frozen == "0"


def test_cli_import_loads_no_scenario_harness():
    # only ``verify`` runs scenarios, and it imports the harness (and corpus) itself
    assert _fresh_run(PROBE)[4] == "[]"


@pytest.mark.parametrize("threads", ["2", "4"])
def test_openblas_threads_set_by_caller_win(threads):
    assert _fresh_run(PROBE, threads)[1] == threads


def test_kernel_checks_run_without_scipy():
    # sys.modules["scipy"] = None makes every scipy import fail
    (line,) = _fresh_run(
        f"import sys; sys.modules['scipy'] = None; sys.path.insert(0, {str(TESTS)!r}); "
        "from paper_checks import circle_kernel_check, two_kernel_check; "
        "print(circle_kernel_check(0.75, 1.0).ratio, "
        "two_kernel_check(0.5, 0.25j, 1.0, 1.9, 1.9).ratio)"
    )
    circle_ratio, two_ratio = map(float, line.split())
    assert circle_ratio == pytest.approx(1.0, rel=1e-12)
    assert 0.25 <= two_ratio <= 1.5


@pytest.mark.parametrize(
    "argv, code",
    [
        (["carleson", "--measure", str(MEASURES / "lebesgue.json"), "--s", "1"], 0),
        (["seminorm", "--space", "qp", "--input", "{tmp}/missing.txt"], 2),
        (["seminorm", "--space", "hinf", "--input", "{tmp}/overflow.txt"], 3),
        (["verify", "--scenario", "log-series"], 0),
    ],
    ids=["exit0", "exit2", "exit3", "verify"],
)
def test_module_entry_matches_in_process_main(argv, code, tmp_path, capsys):
    (tmp_path / "overflow.txt").write_text("1e308 0\n1e308 0\n")
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    assert cli.main(argv) == code
    captured = capsys.readouterr()
    run = subprocess.run(
        [sys.executable, "-m", "cesaro.cli", *argv], env=_env(), capture_output=True, timeout=120
    )
    assert run.returncode == code
    assert run.stdout == captured.out.encode("utf-8")
    assert run.stderr == captured.err.encode("utf-8")


def test_both_launchers_freeze_the_import_heap_through_one_entry():
    # the console script names the same function that ``python -m`` runs
    scripts = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    (target,) = re.findall(r'^cesaro = "cesaro\.cli:(\w+)"$', scripts, re.MULTILINE)
    assert getattr(cli, target) is cli.run
    (line,) = _fresh_run(
        "import contextlib, gc, io, runpy, sys; sys.argv = ['cesaro', '--help']; "
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        "    try:\n"
        "        runpy.run_module('cesaro.cli', run_name='__main__')\n"
        "    except SystemExit as exc:\n"
        "        code = exc.code\n"
        "print(code, out.getvalue().startswith('usage: cesaro'), gc.get_freeze_count())"
    )
    code, printed_help, frozen = line.split()
    assert (code, printed_help) == ("0", "True")
    assert int(frozen) > 1000


# the scenarios that run only the criterion battery, without NumPy
BATTERY_SCENARIOS = ("equivalence", "divergent-integral")

# what start-up can load: NumPy and every layer that imports it
HEAVY = {"numpy", "measure", "numerics", "series", "carleson", "spaces", "harness", "corpus"}
# what a command loads through its layers and a bare ``cli`` never needs
# (``dataclasses`` imports ``inspect``)
STDLIB = {"dataclasses", "inspect", "json"}


def _entry_run(argv: list[str], entry: str = "run()") -> tuple[int, int, set[str]]:
    """Exit code, freeze count and loaded heavy modules of one call of ``cesaro.cli``'s
    ``entry`` in a fresh process, with the collector off so no collection moves the count."""
    (line,) = _fresh_run(
        "import contextlib, gc, io, sys; gc.disable(); import cesaro.cli\n"
        f"sys.argv = ['cesaro', *{argv!r}]\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        f"    code = cesaro.cli.{entry}\n"
        "print(code, gc.get_freeze_count(), *sorted(m.removeprefix('cesaro.') for m in sys.modules))"
    )
    code, frozen, *modules = line.split()
    return int(code), int(frozen), (HEAVY | STDLIB).intersection(modules)


@pytest.fixture(scope="module")
def coeffs_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("footprint") / "f.txt"
    path.write_text("1.0 0.0\n0.5 0.0\n")
    return str(path)


LEBESGUE = str(MEASURES / "lebesgue.json")


@pytest.mark.parametrize(
    "argv, code, loads",
    [
        (["--help"], 0, set()),
        (["transform", "--help"], 0, set()),
        (["carleson", "--measure", LEBESGUE], 2, set()),
        (["carleson", "--measure", LEBESGUE, "--s", "1", "--depth", "8"], 0,
         {"measure", "numerics", "carleson"} | STDLIB),
        (["transform", "--measure", LEBESGUE, "--constant", "1"], 0,
         {"numpy", "measure", "numerics", "series"} | STDLIB),
        (["seminorm", "--space", "hinf", "--input", "{coeffs}"], 0,
         {"numpy", "measure", "numerics", "series", "spaces"} | STDLIB),
        (["verify", "--scenario", "equivalence"], 0,
         {"measure", "numerics", "carleson", "corpus", "harness"} | STDLIB),
        (["verify", "--scenario", "divergent-integral"], 0,
         {"measure", "numerics", "carleson", "corpus", "harness"} | STDLIB),
        (["verify", "--scenario", "log-series"], 0, HEAVY | STDLIB),
    ],
    ids=["help", "transform-help", "usage-error", "carleson", "transform", "seminorm",
         "verify-equivalence", "verify-divergent-integral", "verify-log-series"],
)
def test_each_call_loads_only_its_command_layers(argv, code, loads, coeffs_file):
    # --help and usage errors run no layer and load neither dataclasses nor json;
    # carleson skips NumPy, spaces, series and the harness, transform skips spaces
    # and carleson, seminorm skips carleson; the two battery scenarios skip NumPy,
    # series and spaces, which log-series runs
    argv = [arg.replace("{coeffs}", coeffs_file) for arg in argv]
    assert _entry_run(argv)[::2] == (code, loads)


def _import_time_modules(path: Path) -> list[str]:
    """Modules a file imports when it is imported: every import statement outside
    function bodies, including those in class bodies and ``if``/``try`` blocks."""
    names, stack = [], [ast.parse(path.read_text(encoding="utf-8"))]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.append(node.module)
        stack.extend(ast.iter_child_nodes(node))
    return names


@pytest.mark.parametrize("layer", ["measure", "numerics", "carleson", "harness", "corpus"])
def test_battery_layers_import_no_numpy_at_module_level(layer):
    # the carleson command loads only the first three; NumPy may load inside a
    # function that only other commands call (measure.moments_array).  The
    # harness and corpus reach NumPy only inside the functions that need it
    imported = _import_time_modules(SRC / "cesaro" / f"{layer}.py")
    assert "errors" in imported
    assert [name for name in imported if name.split(".")[0] == "numpy"] == []


@pytest.mark.parametrize("layer", ["harness", "corpus"])
def test_scenario_layers_import_no_series_or_spaces_at_module_level(layer):
    # both load NumPy; a scenario binds what it reads of them when it runs
    imported = _import_time_modules(SRC / "cesaro" / f"{layer}.py")
    assert {"series", "spaces"}.intersection(imported) == set()


@pytest.mark.parametrize("scenario", list(SCENARIOS))
def test_each_scenario_runs_when_called_directly(scenario):
    # one fresh process per scenario, called without run_all: a name the
    # scenario reads but does not bind fails here, whatever ran before it in-process
    (line,) = _fresh_run(
        "import sys; from cesaro import harness\n"
        f"report = harness.SCENARIOS[{scenario!r}]()\n"
        "print(report.scenario, report.passed, 'numpy' in sys.modules)"
    )
    assert line.split() == [scenario, "True", str(scenario not in BATTERY_SCENARIOS)]


def test_cli_imports_no_dataclasses_or_json_at_module_level():
    # a bare --help needs neither; the commands that write JSON load both through their layers
    imported = _import_time_modules(SRC / "cesaro" / "cli.py")
    assert "errors" in imported
    assert STDLIB.intersection(imported) == set()


def test_serializer_refuses_a_non_record_without_loading_a_layer():
    (line,) = _fresh_run(
        "import sys, cesaro.cli\n"
        "try:\n"
        "    cesaro.cli._record_dict(object())\n"
        "except TypeError:\n"
        "    print(*sorted(m.removeprefix('cesaro.') for m in sys.modules))"
    )
    assert HEAVY.intersection(line.split()) == set()


def test_a_command_freezes_its_layers_and_main_freezes_nothing():
    # the entry freezes after binding the command's layers, so a transform call
    # freezes NumPy's objects beyond what --help freezes; a log-series scenario
    # loads NumPy as it runs, and the entry freezes again when the command
    # returns, so that no exit collection walks it; in-process main freezes none
    (numpy_objects,) = _fresh_run(
        "import gc; gc.disable(); import cesaro.cli; cesaro.cli._build_parser(); gc.freeze(); "
        "before = gc.get_freeze_count(); import numpy; gc.freeze(); "
        "print(gc.get_freeze_count() - before)"
    )
    transform = ["transform", "--measure", LEBESGUE, "--constant", "1"]
    help_frozen = _entry_run(["--help"])[1]
    assert _entry_run(transform)[1] - help_frozen >= int(numpy_objects)
    log_series = ["verify", "--scenario", "log-series"]
    assert _entry_run(log_series)[1] - help_frozen >= int(numpy_objects)
    assert _entry_run(transform, f"main({transform!r})")[:2] == (0, 0)


def _peak_rss_mb(argv: list[str]) -> float:
    # a child's peak RSS includes its launcher's at the fork, so a bare
    # interpreter launches the call, not this test process
    (line,) = _fresh_run(
        "import os, subprocess, sys\n"
        f"proc = subprocess.Popen([sys.executable, '-m', 'cesaro.cli', *{argv!r}], "
        "stdout=subprocess.DEVNULL)\n"
        "_, status, usage = os.wait4(proc.pid, 0)\n"
        "proc.returncode = os.waitstatus_to_exitcode(status)\n"
        "print(proc.returncode, usage.ru_maxrss)"
    )
    code, maxrss = line.split()
    assert code == "0"
    return int(maxrss) / 1024.0  # kilobytes on Linux


@pytest.mark.parametrize("name", ["lebesgue.json", "power_density_half.json"])
def test_transform_text_is_written_without_holding_it(name):
    # 2**20 + 1 lines are about 27 MB of text, written 65,536 lines at a time;
    # the moments multiply into the convolution in place, so the call peaks
    # inside np.convolve, which casts its float kernel to complex: under
    # seven order-length float arrays (56 MB) above a tiny call
    measure = str(MEASURES / name)
    argv = ["transform", "--measure", measure, "--constant", "1", "--order"]
    big = _peak_rss_mb([*argv, str(1 << 20)])
    small = _peak_rss_mb([*argv, "16"])
    assert big - small < 56.0, (big, small)
