"""Command-line front end.

Subcommands::

    carleson   run the criterion battery on a measure file
    transform  apply the averaging transform to a coefficient file or a constant
    seminorm   estimate a growth-space seminorm of a coefficient file
    verify     run named scenarios and emit a JSON report

Exit codes: 0 success, 1 scenario failure, 2 usage or validation error,
3 numeric non-convergence (including a battery disagreement).

Output goes to stdout unless ``--out`` names a file.  All output is
deterministic: repeated runs with the same inputs are byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import sys
from typing import Sequence

from .binding import layer_binding
from .errors import NumericsError, ParameterError

__all__ = ["main", "run"]

SCHEMA_VERSION = 1

# the layer each name the commands read comes from; a call binds only the
# names its command reads, so ``--help`` and usage errors load no layer
_LAYER = {
    **dict.fromkeys(("DEFAULT_ORDER", "load_measure"), "measure"),
    **dict.fromkeys(("DISAGREEMENT", "is_s_carleson"), "carleson"),
    **dict.fromkeys(("PowerSeries", "cesaro_mu_s", "coefficients_text", "read_coefficients"),
                    "series"),
    **dict.fromkeys(("bloch_seminorm", "hinf_norm", "lambda_norm", "qp_seminorm"), "spaces"),
    "run_all": "harness",
}

# the six result records by defining module and name; an instance's layer is
# loaded already, so telling a record apart loads nothing
_RECORDS = {
    ("cesaro.numerics", "GrowthReport"),
    ("cesaro.spaces", "SeminormEstimate"),
    ("cesaro.carleson", "CarlesonVerdict"),
    ("cesaro.harness", "CheckRecord"),
    ("cesaro.harness", "TraceRecord"),
    ("cesaro.harness", "ScenarioReport"),
}


_bind, __getattr__ = layer_binding(globals(), _LAYER)


def _output(out: str | None):
    """stdout, or the file ``out`` opened for writing, as a context manager."""
    return contextlib.nullcontext(sys.stdout) if out is None else open(out, "w", encoding="utf-8")


def _emit(text: str, stream) -> None:  # stdout or --out; bench/tracer.py counts the bytes
    stream.write(text)


def _record_dict(record) -> dict:
    """A result record as JSON: its fields by name, with ``passed`` written as ``"pass"``."""
    if not any((cls.__module__, cls.__qualname__) in _RECORDS for cls in type(record).__mro__):
        raise TypeError(f"{type(record).__name__} is not a result record")
    import dataclasses  # loaded by every layer that defines a record; --help skips it
    return {"pass" if f.name == "passed" else f.name: getattr(record, f.name)
            for f in dataclasses.fields(record)}


def _emit_json(payload: dict, out: str | None) -> None:
    import json  # loaded already by every command that writes JSON; --help skips it
    text = json.dumps(payload, indent=2, sort_keys=True, default=_record_dict) + "\n"
    with _output(out) as stream:
        _emit(text, stream)


def _cmd_carleson(args: argparse.Namespace) -> int:
    mu = load_measure(args.measure)
    verdict = is_s_carleson(mu, args.s, depth=args.depth, t=args.t, r=args.r)
    _emit_json({**_record_dict(verdict), "schema": SCHEMA_VERSION}, args.out)
    return 3 if verdict.consensus == DISAGREEMENT else 0


def _cmd_transform(args: argparse.Namespace) -> int:
    mu = load_measure(args.measure)
    if args.input is not None:
        f = read_coefficients(args.input)
    else:
        f = PowerSeries.constant(args.constant)
    order = DEFAULT_ORDER if args.order is None else args.order
    g = cesaro_mu_s(f, mu, args.s, order)  # before --out opens, so a refusal leaves it alone
    with _output(args.out) as stream:
        for piece in coefficients_text(g):
            _emit(piece, stream)
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
    return 0 if est.converged else 3


def _cmd_verify(args: argparse.Namespace) -> int:
    reports = run_all(None if args.scenario == "all" else (args.scenario,))
    passed = all(r.passed for r in reports)
    _emit_json({"schema": SCHEMA_VERSION, "pass": passed, "reports": reports}, args.out)
    return 0 if passed else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cesaro",
        description="Averaging transforms, tail criteria, and growth-space seminorms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

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
    p_car.add_argument("--depth", type=int, default=18, help="dyadic probe depth, 4 to 52 "
                       "(the moment trace always has the 15 levels n = 2^0 .. 2^14)")
    p_car.add_argument("--out", help="write JSON here instead of stdout")
    p_car.set_defaults(func=_cmd_carleson)

    p_tr = sub.add_parser("transform", help="apply the order-s averaging transform")
    p_tr.add_argument("--measure", required=True, help="measure JSON file")
    p_tr.add_argument("--s", type=float, default=1.0, help="transform order")
    p_tr.add_argument("--order", type=int, help="truncation order")
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
    p_sem.set_defaults(func=_cmd_seminorm)

    p_ver = sub.add_parser("verify", help="run scenario checks")
    p_ver.add_argument("--scenario", required=True, help="scenario id, or 'all'")
    p_ver.add_argument("--out", help="write JSON here instead of stdout")
    p_ver.set_defaults(func=_cmd_verify)

    return parser


def _parse(argv: Sequence[str] | None) -> argparse.Namespace | int:
    """The parsed call with the layer names its command reads bound, or the
    exit code of a parse that ends the call (``--help``, a usage error)."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    # a command's body reads its layer names directly, none inside a comprehension
    _bind(args.func.__code__.co_names)
    return args


def _dispatch(args: argparse.Namespace) -> int:
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


def main(argv: Sequence[str] | None = None) -> int:
    args = _parse(argv)
    return args if isinstance(args, int) else _dispatch(args)


def run() -> int:
    """Process entry of ``python -m cesaro.cli`` and the ``cesaro`` script.

    Everything imported by the time the command runs, its layers included,
    lives until exit, so it is frozen out of the collector: no later
    collection, and none at interpreter shutdown, walks it again.  What the
    command still holds when it returns, such as the layers a ``verify``
    scenario binds as it runs, is frozen then for the same reason.  ``main``
    itself stays free of process-wide side effects.
    """
    args = _parse(None)
    gc.freeze()
    code = args if isinstance(args, int) else _dispatch(args)
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
