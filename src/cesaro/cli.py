"""Command-line front end.

Subcommands::

    moments    tabulate measure moments as CSV
    carleson   run the criterion battery on a measure file
    transform  apply the averaging transform to a coefficient file
    seminorm   estimate a growth-space seminorm of a coefficient file
    verify     run named scenarios and emit a JSON report

Exit codes: 0 success, 1 scenario failure, 2 usage or validation error,
3 numeric non-convergence (including a battery disagreement).

JSON goes to stdout unless ``--out`` names a file; ``--trace-dir``
additionally writes one ``level,value`` CSV per trace.  All output is
deterministic: repeated runs with the same inputs are byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import json
import sys
from pathlib import Path
from typing import Sequence

from .carleson import DISAGREEMENT, CarlesonVerdict, is_s_carleson
from .errors import NumericsError, ParameterError
from .measure import load_measure, moments_array
from .numerics import GrowthReport
from .series import (
    DEFAULT_ORDER,
    PowerSeries,
    cesaro_mu_s,
    coefficients_text,
    read_coefficients,
)
from .spaces import SeminormEstimate, bloch_seminorm, hinf_norm, lambda_norm, qp_seminorm

__all__ = ["main", "run"]

SCHEMA_VERSION = 1


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _record_dict(record) -> dict:
    """A result record as JSON: its fields by name, with ``passed`` written as ``"pass"``."""
    if not isinstance(record, (GrowthReport, SeminormEstimate, CarlesonVerdict)):
        # only ``verify`` makes scenario records, so other calls never load the harness
        from .harness import CheckRecord, ScenarioReport, TraceRecord

        if not isinstance(record, (CheckRecord, TraceRecord, ScenarioReport)):
            raise TypeError(f"{type(record).__name__} is not a result record")
    return {"pass" if f.name == "passed" else f.name: getattr(record, f.name)
            for f in dataclasses.fields(record)}


def _emit_json(payload: dict, out: str | None) -> None:
    _emit(json.dumps(payload, indent=2, sort_keys=True, default=_record_dict) + "\n", out)


def _trace_csv(levels: Sequence[int], values: Sequence[float]) -> str:
    lines = ["level,value"]
    lines.extend(f"{lvl},{val!r}" for lvl, val in zip(levels, values))
    return "\n".join(lines) + "\n"


def _write_traces(trace_dir: str, named: Sequence[tuple[str, Sequence[int], Sequence[float]]]) -> None:
    root = Path(trace_dir)
    root.mkdir(parents=True, exist_ok=True)
    for name, levels, values in named:
        (root / f"{name}.csv").write_text(_trace_csv(levels, values), encoding="utf-8")


def _cmd_moments(args: argparse.Namespace) -> int:
    mu = load_measure(args.measure)
    values = moments_array(mu, args.n)
    rows = 1 << 16  # CSV rows per write: the text in memory stays a few MB at any --n
    with (contextlib.nullcontext(sys.stdout) if args.out is None
          else open(args.out, "w", encoding="utf-8")) as stream:
        for start in range(0, values.size, rows):
            chunk = values[start:start + rows].tolist()
            stream.write("".join(f"{n},{v!r}\n" for n, v in enumerate(chunk, start)))
    return 0


def _cmd_carleson(args: argparse.Namespace) -> int:
    mu = load_measure(args.measure)
    verdict = is_s_carleson(mu, args.s, depth=args.depth, t=args.t, r=args.r)
    _emit_json({**_record_dict(verdict), "schema": SCHEMA_VERSION}, args.out)
    if args.trace_dir is not None:
        _write_traces(
            args.trace_dir,
            [
                (f"carleson.{crit}", rep.levels, rep.values)
                for crit, rep in verdict.reports.items()
            ],
        )
    return 3 if verdict.consensus == DISAGREEMENT else 0


def _cmd_transform(args: argparse.Namespace) -> int:
    mu = load_measure(args.measure)
    if args.input is not None:
        f = read_coefficients(args.input)
    else:
        f = PowerSeries.constant(args.constant)
    g = cesaro_mu_s(f, mu, args.s, args.order)
    _emit(coefficients_text(g), args.out)
    return 0


def _cmd_seminorm(args: argparse.Namespace) -> int:
    space = args.space
    if space in ("qp", "lambda") and args.p is None:
        raise ParameterError(f"--space {space} requires --p")
    if space in ("bloch", "hinf") and args.p is not None:
        raise ParameterError(f"--space {space} does not take --p")
    f = read_coefficients(args.input)
    if space == "bloch":
        est = bloch_seminorm(f)
    elif space == "qp":
        est = qp_seminorm(f, args.p)
    elif space == "lambda":
        est = lambda_norm(f, args.p)
    else:
        est = hinf_norm(f)
    _emit_json({**_record_dict(est), "schema": SCHEMA_VERSION, "space": space}, args.out)
    if args.trace_dir is not None:
        _write_traces(args.trace_dir, [(f"seminorm.{space}", est.levels, est.trace)])
    return 0 if est.converged else 3


def _cmd_verify(args: argparse.Namespace) -> int:
    from . import harness  # the scenarios and the corpus they read load for ``verify`` only

    reports = harness.run_all(None if args.scenario == "all" else (args.scenario,))
    passed = all(r.passed for r in reports)
    _emit_json({"schema": SCHEMA_VERSION, "pass": passed, "reports": reports}, args.out)
    if args.trace_dir is not None:
        named = [
            (f"{rep.scenario}.{trace.name}", trace.levels, trace.values)
            for rep in reports
            for trace in rep.traces
        ]
        _write_traces(args.trace_dir, named)
    return 0 if passed else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cesaro",
        description="Averaging transforms, tail criteria, and growth-space seminorms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_mom = sub.add_parser("moments", help="tabulate measure moments as CSV")
    p_mom.add_argument("--measure", required=True, help="measure JSON file")
    p_mom.add_argument("--n", type=int, required=True, help="highest moment index")
    p_mom.add_argument("--out", help="write CSV here instead of stdout")
    p_mom.set_defaults(func=_cmd_moments)

    p_car = sub.add_parser("carleson", help="run the tail-criterion battery")
    p_car.add_argument("--measure", required=True, help="measure JSON file")
    p_car.add_argument("--s", type=float, required=True, help="tail-condition order")
    p_car.add_argument("--t", type=float, default=1.0, help="kernel strengthening exponent")
    p_car.add_argument(
        "--r",
        type=float,
        default=None,
        help="interior singularity exponent for the real kernel (default s/2)",
    )
    p_car.add_argument("--depth", type=int, default=18, help="dyadic probe depth, 4 to 52")
    p_car.add_argument("--out", help="write JSON here instead of stdout")
    p_car.add_argument("--trace-dir", help="write per-criterion CSV traces here")
    p_car.set_defaults(func=_cmd_carleson)

    p_tr = sub.add_parser("transform", help="apply the order-s averaging transform")
    p_tr.add_argument("--measure", required=True, help="measure JSON file")
    p_tr.add_argument("--s", type=float, default=1.0, help="transform order")
    p_tr.add_argument("--order", type=int, default=DEFAULT_ORDER, help="truncation order")
    src = p_tr.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="coefficient file, one '<re> <im>' pair per line")
    src.add_argument(
        "--constant", type=float, help="use the constant series with this value"
    )
    p_tr.add_argument("--out", help="write coefficients here instead of stdout")
    p_tr.set_defaults(func=_cmd_transform)

    p_sem = sub.add_parser("seminorm", help="estimate a growth-space seminorm")
    p_sem.add_argument(
        "--space", required=True, choices=("bloch", "qp", "lambda", "hinf")
    )
    p_sem.add_argument("--p", type=float, default=None, help="space exponent")
    p_sem.add_argument("--input", required=True, help="coefficient file")
    p_sem.add_argument("--out", help="write JSON here instead of stdout")
    p_sem.add_argument("--trace-dir", help="write the level trace as CSV here")
    p_sem.set_defaults(func=_cmd_seminorm)

    p_ver = sub.add_parser("verify", help="run scenario checks")
    p_ver.add_argument("--scenario", required=True, help="scenario id, or 'all'")
    p_ver.add_argument("--out", help="write JSON here instead of stdout")
    p_ver.add_argument("--trace-dir", help="write scenario traces as CSV here")
    p_ver.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numerics: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


def run() -> int:
    """Process entry of ``python -m cesaro.cli`` and the ``cesaro`` script.

    Everything imported so far lives until exit, so it is frozen out of the
    collector: no later collection, and none at interpreter shutdown, walks
    it again.  ``main`` itself stays free of process-wide side effects.
    """
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(run())
