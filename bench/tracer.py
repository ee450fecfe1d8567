"""Traced launcher: one cesaro CLI call with its layer functions timed.

    python bench/tracer.py SPANS.json <cesaro arguments>

The launcher imports ``cesaro.cli`` from ``src/``, replaces each layer
function at every name its callers look it up under (``carleson.
quad_measure``, ``harness.quad_measure`` and ``series.quad_measure`` all
wrap ``numerics.quad_measure``), then calls ``cesaro.cli.main(argv)``.
Nothing in ``src/`` changes.

Spans are named ``<module>.<function>`` after the defining module and
know their parent span.  They stay in memory: when a span closes, its
duration and self time (duration minus the time its direct children
cover) are folded into per-name totals, which are written to SPANS.json
when the call ends.  ``layer_metrics`` turns the totals of one pass into
the per-layer metrics.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# scenario ids of ``cesaro verify`` and the harness function behind each
SCENARIO_FUNCTIONS = {
    "equivalence": "run_criterion_equivalence",
    "divergent-integral": "run_divergent_integral",
    "log-series": "run_log_series",
    "lambda-range": "run_lambda_range",
}
LAYERS = ("measure", "series", "numerics", "carleson", "spaces", "harness", "cli")


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []  # open spans: [name, child seconds]
        self.depth: dict[str, int] = {}  # open spans per name, to spot recursion
        self.stats: dict[str, dict] = {}
        self.counts: dict[str, float] = {}

    def add(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def parent_name(self) -> str | None:
        return self.stack[-1][0] if self.stack else None

    def wrap(self, name: str, fn, on_call=None):
        """``fn`` timed as span ``name``; ``on_call(tracer, *args, **kwargs)`` counts work."""
        stack, depth = self.stack, self.depth
        stat = self.stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "errors": 0})
        tracer = self

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(tracer, *args, **kwargs)
            parent = stack[-1] if stack else None
            span = [name, 0.0]
            outermost = not depth.get(name)
            depth[name] = depth.get(name, 0) + 1
            stack.append(span)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                if outermost:
                    stat["errors"] += 1
                raise
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                depth[name] -= 1
                if parent is not None:
                    parent[1] += elapsed
                stat["self_s"] += elapsed - span[1]
                # recursive calls (mixtures) count once, at the outermost span
                if outermost:
                    stat["calls"] += 1
                    stat["s"] += elapsed

        return traced


def _count_rule(tracer: Tracer, order, alpha) -> None:
    tracer.add("quad_rounds")
    tracer.add("quad_nodes", order)


def _count_horner(tracer: Tracer, coeffs, z) -> None:
    size = z.size
    tracer.add("horner_points", size)
    tracer.add("horner_terms", size * len(coeffs))
    parent = tracer.parent_name()
    if parent == "spaces.qp_seminorm":
        tracer.add("qp_probes")
    elif parent == "spaces.Mp":
        tracer.add("mp_angles", size)


def _count_emit(tracer: Tracer, text, out) -> None:
    tracer.add("output_bytes", len(text.encode("utf-8")))


def _sweep_counter(fn):
    signature = inspect.signature(fn)

    def count(tracer: Tracer, *args, **kwargs) -> None:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        tracer.add("sweep_probes", (a["depth"] - a["start_level"] + 1) * a["angles"])

    return count


def install(tracer: Tracer) -> None:
    """Wrap every traced function at each module that looks it up."""
    from cesaro import carleson, cli, harness, measure, numerics, series, spaces

    def at(modules, attr, name, on_call=None):
        fn = getattr(modules[0], attr)
        traced = tracer.wrap(name, fn, on_call)
        for module in modules:
            if getattr(module, attr) is not fn:
                raise RuntimeError(f"{module.__name__}.{attr} is not {name}")
            setattr(module, attr, traced)

    at([cli], "load_measure", "measure.load_measure")
    at([measure, carleson, series], "moments_array", "measure.moments_array")
    at([measure, carleson], "tail_mass", "measure.tail_mass")

    at([series, spaces], "_horner", "series._horner", _count_horner)
    at([cli, harness], "cesaro_mu_s", "series.cesaro_mu_s")
    at([harness], "cesaro_mu", "series.cesaro_mu")
    at([harness], "kernel_series", "series.kernel_series")
    at([cli], "read_coefficients", "series.read_coefficients")

    at([numerics, carleson, harness, series], "quad_measure", "numerics.quad_measure")
    at([numerics], "_jacobi_rule", "numerics._jacobi_rule", _count_rule)
    at([numerics], "roots_jacobi", "numerics.roots_jacobi")
    build = numerics.DiskGrid.build.__func__
    numerics.DiskGrid.build = classmethod(tracer.wrap("numerics.DiskGrid.build", build))
    at([numerics, carleson, spaces], "classify_growth", "numerics.classify_growth")
    at(
        [numerics, carleson],
        "sup_on_dyadic_boundary",
        "numerics.sup_on_dyadic_boundary",
        _sweep_counter(numerics.sup_on_dyadic_boundary),
    )

    for test in ("moment_test", "integral_test_real", "integral_test_complex", "disk_kernel_test"):
        at([carleson], test, f"carleson.{test}")
    at([carleson, harness], "box_test", "carleson.box_test")
    at([cli, harness], "is_s_carleson", "carleson.is_s_carleson")

    for fn in ("qp_seminorm", "bloch_seminorm", "lambda_norm"):
        at([spaces, cli, harness], fn, f"spaces.{fn}")
    at([spaces], "Mp", "spaces.Mp")
    at([spaces, cli], "hinf_norm", "spaces.hinf_norm")
    at([spaces, harness], "coeff_decay_test", "spaces.coeff_decay_test")

    for scenario, fn in list(harness.SCENARIOS.items()):
        harness.SCENARIOS[scenario] = tracer.wrap(f"harness.{fn.__name__}", fn)

    at([cli], "_emit", "cli._emit", _count_emit)


def main(argv: list[str]) -> int:
    out = Path(argv[0])
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import cesaro.cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    install(tracer)
    run = tracer.wrap("cli.main", cesaro.cli.main)
    try:
        return run(argv[1:])
    finally:
        info = cesaro.harness._corpus_verdict.cache_info()
        payload = {
            "import_s": import_s,
            "stats": tracer.stats,
            "counts": tracer.counts,
            "battery_cache": {"hits": info.hits, "misses": info.misses},
        }
        out.write_text(json.dumps(payload), encoding="utf-8")


# ---------------------------------------------------------------- aggregation

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one pass from the span totals of its calls.

    Times and counts are summed over the pass's calls; ``cli.import_s``
    is the median import time of one call.  A layer that does not run
    on a workload reads 0.
    """
    stats: dict[str, dict] = {}
    counts: dict[str, float] = {}
    hits = misses = 0
    for run in spans:
        for name, st in run["stats"].items():
            into = stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "errors": 0})
            for key, value in st.items():
                into[key] += value
        for key, value in run["counts"].items():
            counts[key] = counts.get(key, 0) + value
        hits += run["battery_cache"]["hits"]
        misses += run["battery_cache"]["misses"]

    def get(name: str, key: str = "s") -> float:
        return stats.get(name, {}).get(key, 0)

    imports = sorted(run["import_s"] for run in spans)
    rounds = counts.get("quad_rounds", 0)
    terms = counts.get("horner_terms", 0)
    qp_probes = counts.get("qp_probes", 0)
    m = {
        "measure.load_measure.s": get("measure.load_measure"),
        "measure.moments_array.calls": get("measure.moments_array", "calls"),
        "measure.moments_array.s": get("measure.moments_array"),
        "measure.tail_mass.calls": get("measure.tail_mass", "calls"),
        "measure.tail_mass.s": get("measure.tail_mass"),
        "series.horner.calls": get("series._horner", "calls"),
        "series.horner.points": counts.get("horner_points", 0),
        "series.horner.terms": terms,
        "series.horner.s": get("series._horner"),
        "series.horner.ns_per_term": _ratio(get("series._horner") * 1e9, terms),
        "series.transform.s": sum(
            get(f"series.{fn}") for fn in ("cesaro_mu", "cesaro_mu_s", "kernel_series")
        ),
        "series.read_coefficients.s": get("series.read_coefficients"),
        "numerics.quad_measure.calls": get("numerics.quad_measure", "calls"),
        "numerics.quad_measure.s": get("numerics.quad_measure"),
        "numerics.quad_measure.failed": get("numerics.quad_measure", "errors"),
        "numerics.quad_measure.nodes": counts.get("quad_nodes", 0),
        "numerics.quad_measure.rounds": rounds,
        "numerics.rules_built": get("numerics.roots_jacobi", "calls"),
        "numerics.rule_build_s": get("numerics.roots_jacobi"),
        "numerics.rule_hit_ratio": _ratio(rounds - get("numerics.roots_jacobi", "calls"), rounds),
        "numerics.disk_grid.builds": get("numerics.DiskGrid.build", "calls"),
        "numerics.disk_grid.build_s": get("numerics.DiskGrid.build"),
        "numerics.classify_growth.calls": get("numerics.classify_growth", "calls"),
        "numerics.classify_growth.s": get("numerics.classify_growth"),
        "numerics.sup_on_dyadic_boundary.probes": counts.get("sweep_probes", 0),
        "numerics.sup_on_dyadic_boundary.s": get("numerics.sup_on_dyadic_boundary"),
        "carleson.box_test.s": get("carleson.box_test"),
        "carleson.moment_test.s": get("carleson.moment_test"),
        "carleson.integral_test_real.s": get("carleson.integral_test_real"),
        "carleson.integral_test_complex.s": get("carleson.integral_test_complex"),
        "carleson.disk_kernel_test.s": get("carleson.disk_kernel_test"),
        "carleson.is_s_carleson.calls": get("carleson.is_s_carleson", "calls"),
        "spaces.qp_seminorm.s": get("spaces.qp_seminorm"),
        "spaces.qp_seminorm.probes": qp_probes,
        "spaces.qp_seminorm.s_per_probe": _ratio(get("spaces.qp_seminorm"), qp_probes),
        "spaces.bloch_seminorm.s": get("spaces.bloch_seminorm"),
        "spaces.lambda_norm.s": get("spaces.lambda_norm"),
        "spaces.Mp.calls": get("spaces.Mp", "calls"),
        "spaces.Mp.angles": counts.get("mp_angles", 0),
        "spaces.hinf_norm.s": get("spaces.hinf_norm"),
        "spaces.coeff_decay_test.s": get("spaces.coeff_decay_test"),
        "harness.battery_cache_hit_ratio": _ratio(hits, hits + misses),
        "cli.import_s": imports[len(imports) // 2] if imports else 0.0,
        "cli.main.s": get("cli.main"),
        "cli.emit.s": get("cli._emit"),
        "cli.output_bytes": counts.get("output_bytes", 0),
    }
    for scenario, fn in SCENARIO_FUNCTIONS.items():
        m[f"harness.scenario.{scenario}.s"] = get(f"harness.{fn}")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(
            st["self_s"] for name, st in stats.items() if name.split(".", 1)[0] == layer
        )
    return m


def source_lines() -> int:
    return sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted((ROOT / "src" / "cesaro").glob("*.py"))
    )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
