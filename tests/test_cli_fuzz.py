"""Fuzz of the measure-file boundary through the ``moments`` subcommand.

Generated measure JSON (nested mixtures, wrong types, huge, NaN or
negative numbers, missing fields) must either print finite moments and
exit 0, or exit 2 or 3 with a one-line message; no input may raise out
of ``main`` or emit a warning.
"""

import contextlib
import io
import json
import math
import warnings

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
