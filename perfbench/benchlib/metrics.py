"""The metric catalogue: every name the benchmark reports, with its unit.

``BENCHMARK.json`` lists the same names; ``tests/test_metrics.py``
keeps the two in step.
"""

from __future__ import annotations

from benchlib.tracing import LAYERS

#: End-to-end metrics, reported by every workload from untraced runs.
#: What each one times on each workload is tabled in the README.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "p50_ms": "ms",
    "mean_ms": "ms",
    "tail_ms": "ms",
}

PIPELINE_TASKS = ("corpus", "index", "table1", "fig1", "fig2", "fig3", "fig4", "table2")
CHECK_RULES = ("layering", "determinism", "hygiene", "concurrency", "forksafety")
SERVE_ROUTES = ("ingest", "population", "flows")


def _per_layer() -> dict[str, str]:
    units: dict[str, str] = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.busy_s"] = "s"
        units[f"{layer}.self_s"] = "s"
    units.update({
        "data.parse_calls": "count",
        "data.parse_s": "s",
        "core.label_points_s": "s",
        "core.membership_points_s": "s",
        "core.rows_labelled": "count",
        "core.label_corpus_s": "s",
        "stream.ingest_s": "s",
        "stream.counter_push_s": "s",
        "stream.monitor_self_s": "s",
        "stream.checks": "count",
        "extraction.od_pairs_s": "s",
        "extraction.od_pairs_calls": "count",
        "models.gravity_fit_s": "s",
        "models.gravity_fits": "count",
        "summary.ingest_s": "s",
        "summary.query_s": "s",
        "summary.buckets_touched": "count",
        "summary.tiles.minute": "count",
        "summary.tiles.hour": "count",
        "summary.tiles.day": "count",
        "summary.tracked_users": "count",
        "pipeline.puts": "count",
        "pipeline.put_s": "s",
        "pipeline.put_bytes": "bytes",
        "pipeline.record_key_s": "s",
        **{f"pipeline.task_s.{task}": "s" for task in PIPELINE_TASKS},
        "pipeline.cache_hits": "count",
        "synth.generate_s": "s",
        **{f"serve.handle_s.{route}": "s" for route in SERVE_ROUTES},
        "serve.transport_s": "s",
        "serve.cache_hit_ratio": "ratio",
        "serve.bytes_out": "bytes",
        "check.parse_s": "s",
        **{f"check.rule_s.{rule}": "s" for rule in CHECK_RULES},
        "check.callgraph_builds": "count",
        "check.lockmodel_builds": "count",
        "loadgen.late_tail_ms": "ms",
        "loadgen.backlog_max": "count",
        "trace.overhead_frac": "ratio",
        "trace.coverage_frac": "ratio",
    })
    return units


#: Per-layer metrics, reported by every workload from the traced run
#: (0 where the workload does not reach that layer).
PER_LAYER = _per_layer()
