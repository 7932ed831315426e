"""Which gaplab functions the traced passes wrap, and the per-layer metrics
derived from their spans.

Span names are `<module>.<function>`, named after the module that defines
the function; the wrap happens where the caller looks the name up.
"""

from __future__ import annotations

from bench_trace import (Patches, Tracer, fanout_efficiency, resolve_owner, timed_pool_class,
                         trace_attr)

# (where the caller looks the name up, attribute, span name)
ENTRY_POINTS = (
    ("gaplab.cli", "estimate_failure_prob", "mc_harness.estimate_failure_prob"),
    ("gaplab.cli", "sample_complexity_search", "mc_harness.sample_complexity_search"),
    ("gaplab.cli", "lower_bound_experiment", "mc_harness.lower_bound_experiment"),
    ("gaplab.cli", "ks_statistics_experiment", "mc_harness.ks_statistics_experiment"),
    ("gaplab.cli", "no_gap_experiment", "mc_harness.no_gap_experiment"),
)

# The units of work a worker pool fans out; their serial busy time is the
# numerator of fanout_efficiency.
TRIAL_PATH = (
    ("gaplab.mc_harness", "_run_chunk", "mc_harness.trial_path"),
    ("gaplab.mc_harness", "_ks_chunk", "mc_harness.trial_path"),
)

LAYER_FUNCTIONS = (
    ("gaplab.mc_harness", "sample_bit_matrix", "distributions.sample_bit_matrix"),
    ("gaplab.mc_harness", "sample_coordinate_columns", "distributions.sample_coordinate_columns"),
    ("gaplab.mc_harness", "sample_support_indices", "distributions.sample_support_indices"),
    ("gaplab.distributions:PneFamily", "member", "distributions.PneFamily.member"),
    ("gaplab.distributions:RngSeed", "generator", "distributions.RngSeed.generator"),
    ("gaplab.mc_harness", "missing_mass_fraction", "distributions.missing_mass_fraction"),
    ("gaplab.distributions", "pack_bit_rows", "concepts.pack_bit_rows"),
    ("gaplab.concepts", "pack_bit_rows", "concepts.pack_bit_rows"),
    ("gaplab.learners:LabeledSample", "column_match_mask",
     "learners.LabeledSample.column_match_mask"),
    ("gaplab.mc_harness", "erm", "learners.erm"),
    ("gaplab.mc_harness", "consistent_memorizer", "learners.consistent_memorizer"),
    ("gaplab.learners:LabeledSample", "from_points", "learners.LabeledSample.from_points"),
    ("gaplab.mc_harness", "disagreement_exact_projections",
     "metric_cover.disagreement_exact_projections"),
    ("gaplab.mc_harness", "pne_small_cover", "metric_cover.pne_small_cover"),
    ("gaplab.mc_harness", "run_trial", "mc_harness.run_trial"),
    ("gaplab.mc_harness", "posterior_rule_error", "mc_harness.posterior_rule_error"),
)

# The span around each in-process call of gaplab.cli.main.
CLI_SPAN = "cli"
POOL_SPAN = "mc_harness.pool"

# span name -> statistics reported from the fully traced serial pass
SPAN_STATS = (
    ("distributions.sample_bit_matrix", ("calls", "busy_s", "self_s")),
    ("distributions.sample_coordinate_columns", ("calls", "busy_s")),
    ("distributions.sample_support_indices", ("calls", "busy_s")),
    ("distributions.PneFamily.member", ("calls", "busy_s")),
    ("distributions.RngSeed.generator", ("calls", "busy_s")),
    ("distributions.missing_mass_fraction", ("calls", "busy_s")),
    ("concepts.pack_bit_rows", ("calls", "busy_s")),
    ("learners.LabeledSample.column_match_mask", ("calls", "busy_s")),
    ("learners.erm", ("calls", "self_s")),
    ("learners.consistent_memorizer", ("calls", "busy_s")),
    ("learners.LabeledSample.from_points", ("calls", "busy_s")),
    ("metric_cover.disagreement_exact_projections", ("calls", "busy_s")),
    ("metric_cover.pne_small_cover", ("calls", "busy_s")),
    ("mc_harness.run_trial", ("calls", "self_s")),
    ("mc_harness.posterior_rule_error", ("calls", "busy_s")),
    ("mc_harness.no_gap_experiment", ("self_s",)),
    ("mc_harness.ks_statistics_experiment", ("busy_s",)),
    (CLI_SPAN, ("self_s",)),
)

# name -> (unit, better) for every per-layer metric, in report order
PER_LAYER = {
    **{f"{span}.{stat}": ("count" if stat == "calls" else "s", "lower")
       for span, stats in SPAN_STATS for stat in stats},
    "distributions.sample_bit_matrix.bytes_computed": ("B", "lower"),
    "mc_harness.search.points": ("count", "lower"),
    "mc_harness.search.trials": ("count", "lower"),
    "mc_harness.search.decided_share": ("share", "higher"),
    "mc_harness.pool.starts": ("count", "lower"),
    "mc_harness.pool.busy_s": ("s", "lower"),
    "mc_harness.pool.worker_s": ("s", "lower"),
    "mc_harness.trial_path.busy_s": ("s", "lower"),
    "mc_harness.fanout_efficiency": ("ratio", "higher"),
    "trace.untraced_wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def _bytes_drawn(dist, m, gen) -> int:
    """Doubles drawn by sample_bit_matrix: 8 bytes per coordinate per row."""
    return 8 * m * dist.n


def _record_search(tracer: Tracer):
    def on_result(result) -> None:
        tracer.counters["mc_harness.search.points"] += len(result.per_m)
        tracer.counters["mc_harness.search.trials"] += sum(e.estimate.trials for e in result.per_m)
        tracer.counters["mc_harness.search.decided"] += sum(
            e.status in ("success", "fail") for e in result.per_m)
    return on_result


def trace_light(tracer: Tracer, patches: Patches) -> None:
    """Spans only where few calls happen: harness entry points and trial chunks."""
    for spec in ENTRY_POINTS + TRIAL_PATH:
        trace_attr(tracer, patches, *spec)


def trace_full(tracer: Tracer, patches: Patches) -> None:
    """Spans around the entry points and every per-layer function."""
    hooks = {
        "mc_harness.sample_complexity_search": {"on_result": _record_search(tracer)},
        "distributions.sample_bit_matrix": {"count": _bytes_drawn},
    }
    for where, attr, name in ENTRY_POINTS + LAYER_FUNCTIONS:
        trace_attr(tracer, patches, where, attr, name, **hooks.get(name, {}))


def trace_fanout(tracer: Tracer, patches: Patches) -> None:
    """Only the process pools the harness starts, timed from the parent."""
    harness = resolve_owner("gaplab.mc_harness")
    patches.replace(harness, "ProcessPoolExecutor",
                    timed_pool_class(tracer, harness.ProcessPoolExecutor, POOL_SPAN))


def layer_metrics(light: Tracer, full: Tracer, fan: Tracer,
                  light_wall_s: float, full_wall_s: float) -> dict[str, float]:
    """Per-layer metrics from the three traced passes.

    `light` is the serial pass with coarse spans, `full` the serial pass with
    every span, `fan` the pass at full width with only the pool timed.
    """
    spans = full.totals()
    zero = {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
    out = {f"{span}.{stat}": spans.get(span, zero)[stat]
           for span, stats in SPAN_STATS for stat in stats}
    c = full.counters
    out["distributions.sample_bit_matrix.bytes_computed"] = c[
        "distributions.sample_bit_matrix.bytes_computed"]
    points = c["mc_harness.search.points"]
    out["mc_harness.search.points"] = points
    out["mc_harness.search.trials"] = c["mc_harness.search.trials"]
    out["mc_harness.search.decided_share"] = (
        c["mc_harness.search.decided"] / points if points else 0.0)
    pool = fan.totals().get(POOL_SPAN, zero)
    worker_s = fan.counters[f"{POOL_SPAN}.worker_s"]
    trial_busy = light.totals().get("mc_harness.trial_path", zero)["busy_s"]
    out["mc_harness.pool.starts"] = pool["calls"]
    out["mc_harness.pool.busy_s"] = pool["busy_s"]
    out["mc_harness.pool.worker_s"] = worker_s
    out["mc_harness.trial_path.busy_s"] = trial_busy
    out["mc_harness.fanout_efficiency"] = fanout_efficiency(trial_busy, worker_s)
    out["trace.untraced_wall_s"] = light_wall_s
    out["trace.overhead_s"] = full_wall_s - light_wall_s
    return {name: out[name] for name in PER_LAYER}
