"""Rewrite the golden CLI outputs in this folder and print what moved.

Run from the repository root::

    PYTHONPATH=src python tests/golden/regen.py

Each ``<name>.json`` is a list of CLI calls, one per line, each with its
exit code and its parsed output: the JSON a command writes, or the
``[re, im]`` pairs of a ``transform``.  ``tests/test_golden.py`` runs the
same calls in-process and holds them to these files.  Before it rewrites a
file, the script prints, for each field path that moved, the largest
relative move, how many calls it moved in and the call where it was
largest.  A change that moves outputs on purpose pastes that listing into
CHANGES.md.
"""

from __future__ import annotations

import io
import json
import math
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from cesaro.cli import main
from cesaro.corpus import bounded_test_functions
from cesaro.series import coefficients_text

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = Path(__file__).resolve().parent


def _carleson_calls() -> list[list[str]]:
    return [
        ["carleson", "--measure", f"{{root}}/measures/{path.name}", "--s", s, *variant]
        for path in sorted((ROOT / "measures").glob("*.json"))
        for s in ("0.5", "1", "2")
        for variant in ([], ["--t", "2"], ["--r", "0.1", "--depth", "30"])
    ]


def _range_calls() -> list[list[str]]:
    # transforms of the bounded functions, then seminorms of each image;
    # ``{work}/<name>.txt`` holds the function, ``{work}/<name>.g.txt`` its image
    names = [name for name, _ in bounded_test_functions()]
    calls = [
        ["transform", "--measure", "{root}/measures/lebesgue.json", "--order", "400",
         "--input", f"{{work}}/{name}.txt", "--out", f"{{work}}/{name}.g.txt"]
        for name in names
    ]
    calls += [
        ["seminorm", "--space", *space, "--input", f"{{work}}/{name}.g.txt"]
        for name in names
        for space in (["bloch"], ["hinf"], ["lambda", "--p", "2"])
    ]
    calls.append(["seminorm", "--space", "qp", "--p", "1.5",
                  "--input", "{work}/blaschke_half.g.txt"])
    return calls


CALLS = {
    "carleson": _carleson_calls(),
    "verify": [["verify", "--scenario", "all"]],
    "range": _range_calls(),
}


def run_calls(argvs: list[list[str]], work: Path) -> list[dict]:
    """Each call run through ``cli.main`` with its exit code and parsed output.

    ``{root}`` in an argument is the repository root and ``{work}`` the
    folder ``work``, where the bounded test functions are written first.
    The output is what the call wrote to ``--out``, or else to stdout.
    """
    for name, f in bounded_test_functions():
        (work / f"{name}.txt").write_text("".join(coefficients_text(f)), encoding="utf-8")
    results = []
    for argv in argvs:
        args = [arg.format(root=ROOT, work=work) for arg in argv]
        stdout = io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
            code = main(args)
        text = stdout.getvalue()
        if "--out" in args:
            text = Path(args[args.index("--out") + 1]).read_text(encoding="utf-8")
        if argv[0] == "transform":
            output = [[float(x) for x in line.split()] for line in text.splitlines()]
        else:
            output = json.loads(text) if text else None
        results.append({"argv": argv, "exit": code, "output": output})
    return results


def moves(old, new, path: str = ""):
    """``(field path, relative move)`` for each leaf where ``new`` differs from ``old``.

    List indices are left out of the path.  Two floats move by
    ``|new - old| / max(|old|, |new|)``; any other difference (a string, an
    int, a bool, a type, a length, a key, an infinity) is a move of ``inf``.
    """
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            sub = f"{path}.{key}" if path else key
            if key in old and key in new:
                yield from moves(old[key], new[key], sub)
            else:
                yield sub, math.inf
    elif isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            yield path, math.inf
        for a, b in zip(old, new):
            yield from moves(a, b, path)
    elif type(old) is float and type(new) is float:
        if old != new and not (math.isnan(old) and math.isnan(new)):
            gap = abs(new - old)
            yield path, gap / max(abs(old), abs(new)) if math.isfinite(gap) else math.inf
    elif type(old) is not type(new) or old != new:
        yield path, math.inf


def load(name: str) -> list[dict]:
    return json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))


def _dump(calls: list[dict]) -> str:
    lines = (json.dumps(call, separators=(",", ":"), sort_keys=True) for call in calls)
    return "[\n" + ",\n".join(lines) + "\n]\n"


def _report(name: str, old: list[dict], new: list[dict]) -> None:
    largest: dict[str, tuple[float, int, str]] = {}
    for before, after in zip(old, new):
        call = " ".join(after["argv"]).replace("{root}/", "")
        in_call: dict[str, float] = {}
        for path, move in moves(before, after):
            in_call[path] = max(move, in_call.get(path, move))
        for path, move in in_call.items():
            top, count, where = largest.get(path, (-1.0, 0, ""))
            largest[path] = (move, count + 1, call) if move > top else (top, count + 1, where)
    if len(old) != len(new):
        print(f"{name}: {len(old)} calls before, {len(new)} now")
    for path, (move, count, call) in sorted(largest.items()):
        print(f"{name}: {path}  largest relative move {move:.2g}  in {count} calls, "
              f"largest in: {call}")


def regenerate() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for name, argvs in CALLS.items():
            new = run_calls(argvs, Path(tmp))
            target = GOLDEN / f"{name}.json"
            if target.exists():
                _report(name, load(name), new)
            else:
                print(f"{name}: new file, {len(new)} calls")
            target.write_text(_dump(new), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(regenerate())
