"""Fuzz of the input boundaries: files through ``moments`` and ``seminorm``,
flags through ``moments``, ``carleson``, ``transform``, ``seminorm`` and
``verify``.

Generated measure JSON (nested mixtures, wrong types, huge, NaN or
negative numbers, missing fields) must either print finite moments and
exit 0, or exit 2 or 3 with a one-line message.  Generated coefficient
files (huge, tiny, negative, ``nan`` and ``inf`` tokens, wrong token
counts, blank lines, comments, bytes that are not UTF-8) must exit 0
with a converged, finite estimate, or 2 or 3 with at most one line on
stderr.  Generated command lines (every numeric flag at 0, negative,
tiny, huge, ``inf`` or ``nan``, orders past the cap) must exit 0, 2 or 3
with at most one line on stderr, and ``converged: true`` only with
finite values.  ``verify`` command lines (bad or repeated scenario ids,
unwritable outputs, stray flags) may also exit 1, but only with a report
that says ``"pass": false``.  No input may raise out of ``main`` or emit
a warning.
"""

import contextlib
import io
import json
import math
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cesaro.cli import main

numbers = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-1.0, 1.0),
    st.sampled_from([0, 1, -1, 1e308, -1e308, 5e-324, -0.9999999999999999, 10 ** 400]),
    st.integers(-(10 ** 30), 10 ** 30),
)
junk = st.one_of(st.text(max_size=4), st.booleans(), st.none(), st.just({}))
values = st.one_of(numbers, junk, st.lists(st.one_of(numbers, junk), max_size=4))
number_lists = st.one_of(st.lists(numbers, max_size=5), values)


def _optional(fields: dict) -> st.SearchStrategy:
    return st.fixed_dictionaries({}, optional=fields)


leaves = st.one_of(
    st.just({"type": "lebesgue"}),
    _optional({"points": number_lists, "weights": number_lists}).map(
        lambda d: {"type": "atomic", **d}
    ),
    _optional({"alpha": values, "scale": values}).map(lambda d: {"type": "power_density", **d}),
    _optional({"type": values, "mass": values}),
)
measures = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3).map(lambda parts: {"type": "mixture", "components": parts}),
        inner.map(lambda part: {"type": "mixture", "components": part}),
    ),
    max_leaves=8,
)


def _wrap(measure, levels: int):
    for _ in range(levels):
        measure = {"type": "mixture", "components": [measure]}
    return measure


@settings(max_examples=400)
@given(measure=measures, levels=st.sampled_from([0, 0, 0, 1, 31, 32, 40]))
def test_moments_on_generated_measure_json(measure, levels, tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "m.json"
    path.write_text(json.dumps(_wrap(measure, levels)))
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(["moments", "--measure", str(path), "--n", "3"])
    assert code in (0, 2, 3)
    if code == 0:
        rows = out.getvalue().splitlines()
        assert len(rows) == 4
        assert all(math.isfinite(float(row.split(",")[1])) for row in rows)
    else:
        assert out.getvalue() == ""
        assert err.getvalue().count("\n") == 1


# ---- coefficient files through ``seminorm`` ----

tokens = st.one_of(
    st.floats(-2.0, 2.0).map(repr),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["1e307", "-1e308", "1e300", "5e-324", "-0.0", "nan", "inf", "-inf", "1e400", "x"]),
)
pair = st.tuples(tokens, tokens).map(" ".join)
odd = st.lists(tokens, max_size=3).filter(lambda parts: len(parts) != 2).map(" ".join)
blank_or_comment = st.sampled_from(["", "   ", "# comment"])
coefficient_files = st.one_of(
    st.lists(st.one_of(pair, pair, blank_or_comment), min_size=1, max_size=16),
    st.lists(st.one_of(pair, odd, blank_or_comment), min_size=1, max_size=16),
)
# raw bytes before or after the text: often none, else a UTF-16 byte-order mark or any bytes
raw_bytes = st.one_of(
    st.just(b""), st.just(b""), st.just(b"\xff\xfe\x00"), st.binary(min_size=1, max_size=4)
)
spaces = st.sampled_from(
    [["bloch"], ["hinf"], ["qp", "--p", "0.5"], ["qp", "--p", "1.5"], ["lambda", "--p", "1.2"], ["lambda", "--p", "3"]]
)


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


@settings(max_examples=150)
@given(lines=coefficient_files, raw=raw_bytes, raw_first=st.booleans(), space=spaces)
def test_seminorm_on_generated_coefficient_files(lines, raw, raw_first, space, tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "f.txt"
    text = ("\n".join(lines) + "\n").encode()
    path.write_bytes(raw + text if raw_first else text + raw)
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(["seminorm", "--space", *space, "--input", str(path)])
    assert code in (0, 2, 3)
    assert err.getvalue().count("\n") <= 1
    assert "Traceback" not in err.getvalue() and "Warning" not in err.getvalue()
    if code == 0:
        payload = json.loads(out.getvalue(), parse_constant=_reject_constant)
        assert payload["converged"] is True
        assert all(math.isfinite(v) for v in [payload["value"], *payload["trace"]])


# ---- command lines through ``main`` ----

MEASURES = Path(__file__).resolve().parents[1] / "measures"
measure_files = st.sampled_from(
    [str(MEASURES / f"{name}.json") for name in ("lebesgue", "power_density_half", "dyadic_atoms")]
)
# two draws in three are ordinary values; shrinking heads toward them
ordinary = st.floats(0.05, 4.0).map(repr)
reals = st.one_of(
    ordinary,
    ordinary,
    st.sampled_from(["0", "-1", "1e-300", "5e-324", "1e308", "-1e308", "inf", "-inf", "nan"]),
    st.floats(-5.0, 80.0).map(repr),
)
# 1048577 is one past the order cap
orders = st.sampled_from(
    ["0", "1", "9", "400", "-1", "1048577", str(1 << 40), "10000000000000", str(10 ** 30), "inf"]
)
depths = st.sampled_from(["4", "10", "18", "52", "0", "-1", "3", "53", str(10 ** 30), "nan"])


def _flag(name: str, values: st.SearchStrategy) -> st.SearchStrategy:
    # --name=value, so that argparse takes "-inf" as a value, not an option
    return st.one_of(st.just([]), values.map(lambda v: [f"{name}={v}"]))


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(["moments", "carleson", "transform", "seminorm"]))
    measure = ["--measure", draw(measure_files)]
    if command == "moments":
        return [command, *measure, f"--n={draw(orders)}"]
    if command == "carleson":
        return [
            command,
            *measure,
            f"--s={draw(reals)}",
            *draw(_flag("--t", reals)),
            *draw(_flag("--r", reals)),
            *draw(_flag("--depth", depths)),
        ]
    if command == "transform":
        source = draw(
            st.one_of(st.just(["--input", "{coeffs}"]), reals.map(lambda v: [f"--constant={v}"]))
        )
        return [
            command, *measure, *source, *draw(_flag("--s", reals)), *draw(_flag("--order", orders))
        ]
    space = draw(st.sampled_from(["bloch", "hinf", "qp", "lambda"]))
    return [command, f"--space={space}", *draw(_flag("--p", reals)), "--input", "{coeffs}"]


@pytest.fixture(scope="module")
def coeffs_file(tmp_path_factory):
    # the order-64 transform of the constant 1 against Lebesgue measure
    path = tmp_path_factory.mktemp("argv") / "g.txt"
    path.write_text("".join(f"{1.0 / (n + 1)!r} 0.0\n" for n in range(65)))
    return str(path)


def _finite_numbers(text: str) -> bool:
    return all(math.isfinite(float(tok)) for tok in text.replace(",", " ").split())


@settings(max_examples=80)
@given(argv=command_lines())
def test_command_lines_with_edge_values(argv, coeffs_file):
    argv = [arg.replace("{coeffs}", coeffs_file) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    assert code in (0, 2, 3)
    lines = err.getvalue().splitlines()
    if lines and lines[0].startswith("usage: "):  # argparse: usage text, then one error line
        lines = lines[-1:]
    assert len(lines) <= 1
    text = out.getvalue()
    if argv[0] in ("moments", "transform"):
        assert code != 0 or _finite_numbers(text)
    elif text:
        payload = json.loads(text)
        if payload.get("converged") is True:
            assert all(math.isfinite(v) for v in [payload["value"], *payload["trace"]])


# ---- command lines through ``verify`` ----

# only the two cheapest scenarios run, in about half the draws; every other id is refused
runnable = st.sampled_from(["divergent-integral", "log-series"])
scenario_ids = st.one_of(
    runnable, runnable, runnable, st.sampled_from(["", "bogus", "ALL", "log_series", "-1", "nan"])
)
outputs = st.sampled_from([[], [], ["--out", "{out}"], ["--out", "{missing}/r.json"]])
trace_dirs = st.sampled_from([[], [], ["--trace-dir", "{traces}"], ["--trace-dir", "{file}"]])
strays = st.sampled_from([[]] * 5 + [["--s=1"], ["--depth", "3"], ["extra"], ["--scenario"]])


@st.composite
def verify_lines(draw):
    # usually one --scenario, sometimes none or a repeated one
    count = draw(st.sampled_from([1, 1, 1, 1, 0, 2]))
    return [
        "verify",
        *(f"--scenario={draw(scenario_ids)}" for _ in range(count)),
        *draw(outputs),
        *draw(trace_dirs),
        *draw(strays),
    ]


@pytest.fixture(scope="module")
def verify_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("verify")
    (root / "file").write_text("")
    return {"out": str(root / "r.json"), "missing": str(root / "missing"),
            "traces": str(root / "traces"), "file": str(root / "file")}


@settings(max_examples=60)
@given(argv=verify_lines())
def test_verify_command_lines(argv, verify_paths):
    argv = [arg.format(**verify_paths) for arg in argv]
    out_file = Path(verify_paths["out"])
    out_file.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue() and "Warning" not in err.getvalue()
    lines = err.getvalue().splitlines()
    if lines and lines[0].startswith("usage: "):  # argparse: usage text, then one error line
        lines = lines[-1:]
    assert len(lines) <= 1
    text = out.getvalue() or (out_file.read_text() if out_file.exists() else "")
    if code == 0:
        assert json.loads(text)["pass"] is True
    elif code == 1:
        assert json.loads(text)["pass"] is False
