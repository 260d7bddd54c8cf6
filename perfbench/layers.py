"""Which plskit stages the traced run wraps, and the per-layer metrics.

Each stage is named after the package module that implements it and is
wrapped where its caller looks it up.  Times are self times (span
duration minus child spans) in seconds per request, scaled to the
reference host speed; counts are per request, so runs with different
request counts compare directly.
"""

from __future__ import annotations

from stats import highest_tail


def _symbols(pls) -> int:
    return len({t.sym for t in pls.triples})


def _count(key: str):
    return lambda tracer, args, kwargs, result: tracer.count(key)


def _count_splits(tracer, args, kwargs, result) -> None:
    tracer.count("builder.splits", _symbols(result) - _symbols(args[0]))


def _count_components(tracer, args, kwargs, result) -> None:
    tracer.count("matching.components", len(result))


class SweepKeys:
    """Distinct canonical prescriptions the sweep hands to the oracle.

    The oracle matches parameter lists as multisets, so a prescription's
    canonical form sorts each list.
    """

    def __init__(self) -> None:
        self.keys: set = set()
        self.calls = 0

    def __call__(self, tracer, args, kwargs, result) -> None:
        canonical = lambda value: tuple(sorted(value)) if isinstance(value, tuple) else value  # noqa: E731
        named = sorted((name, canonical(value)) for name, value in kwargs.items() if name != "budget")
        key = (tuple(canonical(value) for value in args), tuple(named))
        self.keys.add((tracer.request, key))
        self.calls += 1


def stages(sweep_keys: SweepKeys):
    """(span name or None, lookup target, attribute, after-hook) rows."""
    return (
        # Builders, as the builder module and the CLI look them up.
        ("feasibility.check", "plskit.builder", "check_construction", None),
        ("feasibility.check", "plskit.builder", "check_row_params", None),
        ("feasibility.check", "plskit.builder", "check_sizes", None),
        ("feasibility.dominance", "plskit.feasibility", "dominance_check", None),
        ("feasibility.dominance", "plskit.realization", "dominance_check", None),
        ("realization.realize", "plskit.builder", "realize_degree_matrix", None),
        ("realization.rebalance", "plskit.builder", "rebalance_columns", None),
        ("builder.peel", "plskit.builder", "fill_symbols", None),
        (None, "plskit.builder", "iter_symbol_layers", _count("builder.layers")),
        ("builder.split", "plskit.builder", "split_symbols", _count_splits),
        ("matching.saturate", "plskit.builder", "saturating_matching", None),
        ("matching.merge", "plskit.builder", "merge_matchings", None),
        (None, "plskit.matching", "symmetric_difference_components", _count_components),
        ("core.validate", "plskit.builder", "validate", None),
        ("core.normalize", "plskit.builder", "normalize", None),
        ("core.validate", "plskit.core.PartialLatinSquare", "__post_init__",
         _count("core.squares_validated")),
        # The sweeps.
        ("oracle.exists", "plskit.sweep", "exists_full", sweep_keys),
        ("sweep.predicate", "plskit.sweep", "check_construction", None),
        ("sweep.predicate", "plskit.sweep", "check_row_params", None),
        ("sweep.predicate", "plskit.sweep", "check_sizes", None),
        # The command line, called in-process through plskit.cli.run.
        ("cli.dispatch", "plskit.cli", "run", None),
        ("builder.build", "plskit.cli", "build_theorem", None),
        ("builder.build", "plskit.cli", "build_proposition", None),
        ("builder.build", "plskit.cli", "build_corollary", None),
        ("feasibility.check", "plskit.cli", "check_construction", None),
        ("feasibility.check", "plskit.cli", "check_row_params", None),
        ("feasibility.check", "plskit.cli", "check_sizes", None),
        ("oracle.exists", "plskit.cli", "exists_full", None),
        ("core.parameters", "plskit.cli", "parameters_of", None),
        ("core.validate", "plskit.formats", "validate", None),
        ("formats.serialize", "plskit.cli.PlsDocument", "from_pls", None),
        ("formats.serialize", "plskit.cli.PlsDocument", "to_json", None),
        ("formats.serialize", "plskit.cli", "render_grid", None),
        ("formats.parse", "plskit.cli.PlsDocument", "from_json", None),
        ("formats.parse", "plskit.cli.SpecDocument", "from_json", None),
    )


# metric -> the span whose self time (or call count) it reports
SELF_TIMES = {
    "feasibility.dominance_s": "feasibility.dominance",
    "feasibility.self_s": "feasibility.check",
    "realization.realize_s": "realization.realize",
    "realization.rebalance_s": "realization.rebalance",
    "builder.peel_s": "builder.peel",
    "builder.split_s": "builder.split",
    "matching.saturate_s": "matching.saturate",
    "matching.merge_s": "matching.merge",
    "core.validate_s": "core.validate",
    "core.normalize_s": "core.normalize",
    "oracle.exists_s": "oracle.exists",
    "sweep.predicate_s": "sweep.predicate",
    "cli.dispatch_s": "cli.dispatch",
    "formats.serialize_s": "formats.serialize",
    "formats.parse_s": "formats.parse",
}
CALLS = {
    "feasibility.dominance_calls": "feasibility.dominance",
    "matching.saturate_calls": "matching.saturate",
    "oracle.calls": "oracle.exists",
}
COUNTS = ("builder.layers", "builder.splits", "matching.components", "core.squares_validated")


def per_layer_metrics(tracer, sweep_keys: SweepKeys, scales: list[float]) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as (value, unit); stages never reached read 0.

    ``scales[r]`` converts request r's wall times to reference-speed times.
    """
    requests = max(tracer.requests, 1)
    table = tracer.stage_table(scales)
    metrics = {}
    for metric, span in SELF_TIMES.items():
        metrics[metric] = (table.get(span, {}).get("self_s", 0.0) / requests, "s/req")
    for metric, span in CALLS.items():
        metrics[metric] = (table.get(span, {}).get("calls", 0) / requests, "1/req")
    for key in COUNTS:
        metrics[key] = (tracer.counts[key] / requests, "1/req")
    durations = tracer.durations("oracle.exists", scales)
    tail_ms = highest_tail(durations)[1] * 1000 if durations else 0.0
    metrics["oracle.call_tail_ms"] = (tail_ms, "ms")
    budget = tracer.errors[("oracle.exists", "BudgetExceeded")]
    metrics["oracle.budget_exceeded"] = (budget / requests, "1/req")
    distinct = len(sweep_keys.keys) / sweep_keys.calls if sweep_keys.calls else 0.0
    metrics["sweep.distinct_frac"] = (distinct, "frac")
    return metrics
