"""CLI outputs held to the golden files in ``tests/golden/``.

Every call runs in-process through ``cli.main``.  Exit codes, strings,
ints and bools must match exactly and floats to a relative 1e-12.  A
change that moves an output on purpose rewrites the files with
``tests/golden/regen.py`` and names what moved in CHANGES.md.
"""

import pytest

from golden.regen import CALLS, load, moves, run_calls

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
