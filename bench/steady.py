"""Steadiness of the end-to-end metrics across seeds.

    python3 bench/steady.py --workload battery --seeds 1-10

Runs the command of ``BENCHMARK.json`` once per seed, one run at a
time, for ``run_seconds`` each, and prints for every end-to-end metric
the median, the first and third quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and their distance as
a share of the median.  The bounds in ``BENCHMARK.json`` are set from
this output.  A set is steady when every spread but that of ``setup_s``
stays within its metric's bound, and two sets of the same code are
steady against each other when their medians agree within the bounds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    args = parser.parse_args()
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m.get("bound") for m in config["end_to_end"]}

    values: dict[str, list[float]] = {}
    shares = set()
    for seed in args.seeds:
        cmd = [*config["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(config["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        shares.add(result["failed"] / result["attempted"])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        shown = " ".join(f"{name}={vals[-1]:.4g}" for name, vals in list(values.items())[:5])
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']} "
              f"correct {result['correct']} {shown}", flush=True)

    print(f"\n{args.workload}, {len(args.seeds)} runs, failed share(s) {sorted(shares)}")
    print(f"{'metric':42s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        print(f"{name:42s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.2%} "
              f"{'' if bound is None else f'{bound:.2f}':>6s}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
