"""Benchmark of the cesaro command line, one workload per run.

    python3 bench/run.py --workload {battery,range,verify} --seed N --seconds S --trace {0,1}

Every operation is one fresh-process CLI call, ``python -m cesaro.cli
...`` against ``src/``, made one at a time by this one process: a
closed loop with one client, the way a user of the CLI waits for each
answer.  A run repeats whole passes over the workload's calls until one
more pass would take the calls' summed wall time past ``--seconds``
(always at least one pass).  One untimed ``cesaro --help`` warms the
interpreter and the file cache first.  Set-up is timed as ``cesaro
--help``, sampled at evenly spaced points of the first pass so that it
sees the same machine as the calls.  After each pass the outputs are
checked against ``oracles``.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics, each the median over the run's passes:

    setup_s         median wall time of ``python -m cesaro.cli --help``
    wall_s          summed wall time of the pass's calls
    slowest_call_s  median wall time of the pass's slowest kind of call
    cpu_s           user plus system CPU of the pass's child processes
    peak_rss_mb     largest max-RSS of any child in the pass (from wait4)

With ``--trace 1`` the same calls run through ``tracer.py`` and the line
carries the per-layer metrics instead.  An operation fails when it exits
with a code other than the one the paper's theorem predicts or when its
output fails its check; ``correct`` is false when an operation that
exited as predicted printed a wrong answer.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 8
CALL_TIMEOUT_S = 170

@dataclass
class Result:
    rc: int
    wall: float
    cpu: float
    rss_mb: float


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def spawn(argv: list[str], stdout: Path, env: dict[str, str]) -> Result:
    """Run one child to completion; wall time, CPU and max-RSS come from wait4."""
    with open(stdout, "wb") as out, open(stdout.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=env)
        timer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Result(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def time_setup(env: dict[str, str], work: Path) -> float:
    """Time to start the interpreter, import cesaro and build the parser."""
    out = work / "help.txt"
    res = spawn([sys.executable, "-m", "cesaro.cli", "--help"], out, env)
    if res.rc != 0 or b"usage:" not in out.read_bytes():
        raise SystemExit(f"error: `cesaro --help` exited {res.rc}; is src/cesaro intact?")
    return res.wall


@dataclass
class Pass:
    results: list[Result]
    failed: list[str]
    wrong: list[str]
    spans: list[dict]
    setup: list[float]


def run_pass(
    calls: list[workloads.Call], env: dict[str, str], trace: bool, setup_samples: int = 0
) -> Pass:
    """One pass over ``calls``, with ``setup_samples`` set-up timings spread through it."""
    results, spans, setup = [], [], []
    slots = [j * len(calls) // setup_samples for j in range(setup_samples)]
    for i, call in enumerate(calls):
        setup.extend(time_setup(env, call.stdout.parent) for _ in range(slots.count(i)))
        if trace:
            span_file = call.stdout.with_suffix(f".spans{i}.json")
            argv = [sys.executable, str(Path(__file__).with_name("tracer.py")), str(span_file)]
        else:
            argv = [sys.executable, "-m", "cesaro.cli"]
        results.append(spawn(argv + call.args, call.stdout, env))
        if trace and span_file.is_file():
            spans.append(json.loads(span_file.read_text(encoding="utf-8")))
    failed, wrong = [], []
    for call, res in zip(calls, results):
        if res.rc != call.expect_rc:
            err = call.stdout.with_suffix(".err").read_text(encoding="utf-8", errors="replace")
            last = err.strip().splitlines()[-1:] or [""]
            failed.append(f"{call.name}: exit {res.rc}, expected {call.expect_rc}: {last[0]}")
            continue
        try:
            problems = call.check()
        except Exception as exc:  # malformed output: report it, keep measuring
            problems = [f"unreadable output ({type(exc).__name__}: {exc})"]
        if problems:
            wrong.append(f"{call.name}: " + "; ".join(problems[:3]))
    return Pass(results, failed, wrong, spans, setup)


def slowest_call(calls: list[workloads.Call], results: list[Result]) -> float:
    """Median wall time of the slowest kind of call; calls of one name are one kind."""
    walls: dict[str, list[float]] = {}
    for call, res in zip(calls, results):
        walls.setdefault(call.name, []).append(res.wall)
    return max(statistics.median(w) for w in walls.values())


def end_to_end(calls: list[workloads.Call], passes: list[Pass]) -> dict[str, float]:
    setup_s = statistics.median(t for p in passes for t in p.setup)
    per_pass = {
        "wall_s": [sum(r.wall for r in p.results) for p in passes],
        "slowest_call_s": [slowest_call(calls, p.results) for p in passes],
        "cpu_s": [sum(r.cpu for r in p.results) for p in passes],
        "peak_rss_mb": [max(r.rss_mb for r in p.results) for p in passes],
    }
    return {"setup_s": setup_s, **{name: statistics.median(v) for name, v in per_pass.items()}}


def per_layer(passes: list[Pass]) -> dict[str, float]:
    lines = tracer.source_lines()
    rows = []
    for p in passes:
        row = tracer.layer_metrics(p.spans)
        row["trace.wall_s"] = sum(r.wall for r in p.results)
        row["src.lines"] = lines
        rows.append(row)
    return {name: statistics.median(row[name] for row in rows) for name in rows[0]}


def metric_units(kind: str) -> dict[str, str]:
    """Name and unit of each ``end_to_end`` or ``per_layer`` metric in BENCHMARK.json."""
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in config[kind]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cesaro" / "cli.py").is_file():
        print(f"error: no cesaro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # a TERM ends the run through the same clean-up as an error: the
    # running child is killed and waited for, and the work files go
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    env = _child_env()
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        calls = workloads.WORKLOADS[args.workload](args.seed, work)
        time_setup(env, work)  # warm-up, not reported
        passes: list[Pass] = []
        measured = 0.0
        while True:
            samples = 0 if passes or args.trace else SETUP_SAMPLES
            passes.append(run_pass(calls, env, bool(args.trace), samples))
            measured += sum(r.wall for r in passes[-1].results)
            if measured * (len(passes) + 1) / len(passes) > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    failed = [msg for p in passes for msg in p.failed]
    wrong = [msg for p in passes for msg in p.wrong]
    for msg in failed + wrong:
        print(f"FAILED {msg}", file=sys.stderr)
    units = metric_units("per_layer" if args.trace else "end_to_end")
    computed = per_layer(passes) if args.trace else end_to_end(calls, passes)
    values = {name: computed[name] for name in units}
    print(
        f"{args.workload} seed {args.seed}: {len(passes)} pass(es) of {len(calls)} calls, "
        f"{len(failed) + len(wrong)} failed"
    )
    for name, value in values.items():
        print(f"  {name:42s} {value:14.6g} {units[name]}")
    result = {
        "correct": not wrong,
        "attempted": len(passes) * len(calls),
        "failed": len(failed) + len(wrong),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
