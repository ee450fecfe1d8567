"""CLI outputs held to the golden files in ``tests/golden/``.

Every call runs in-process through ``cli.main``.  Exit codes, strings,
ints and bools must match exactly and floats to a relative 1e-12.  A
change that moves an output on purpose rewrites the files with
``tests/golden/regen.py`` and names what moved in CHANGES.md.
"""

import math

import pytest

from golden.regen import CALLS, added, load, moves, run_calls

RTOL = 1e-12


@pytest.mark.parametrize("name", sorted(CALLS))
def test_outputs_match_golden(name, tmp_path):
    golden = load(name)
    assert [call["argv"] for call in golden] == CALLS[name]
    moved = [
        (" ".join(after["argv"]), path, move)
        for before, after in zip(golden, run_calls(CALLS[name], tmp_path))
        for path, move in moves(before, after)
        if move > RTOL
    ]
    assert not moved, moved[:10]


def test_added_key_is_listed_and_still_a_move():
    old = {"reports": [{"a": 1.0}, {"a": 2.0}], "k": "x"}
    new = {"reports": [{"a": 1.0, "b": 0.0}, {"a": 2.0, "b": 0.5}], "k": "x", "c": {"d": 1}}
    assert sorted(added(old, new)) == ["c", "reports.b", "reports.b"]
    # the golden test stays as strict: every added key is still a move of inf
    assert sorted(moves(old, new)) == [("c", math.inf)] + [("reports.b", math.inf)] * 2
