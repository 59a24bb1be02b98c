"""Which ``repro`` calls the traced run wraps, and how spans become metrics.

Each wrapped call is a public entry point of one layer (module).  The
span names below are the benchmark's own; they are turned into the
per-layer metrics of :data:`benchlib.metrics.PER_LAYER` by
:func:`collect`.
"""

from __future__ import annotations

import contextlib
import importlib
import os
from typing import Iterator

from benchlib.metrics import CHECK_RULES, PER_LAYER, SERVE_ROUTES
from benchlib.tracing import LAYERS, Tracer

#: Modules imported before wrapping, so every call site is bound already.
_MODULES = (
    "repro.cli", "repro.serve.app", "repro.serve.ingest", "repro.summary.store",
    "repro.pipeline.executor", "repro.pipeline.graphs", "repro.check.runner",
)


def _rows(span, args, kwargs, result) -> None:
    span.attrs["rows"] = len(args[1])


def _buckets(span, args, kwargs, result) -> None:
    span.attrs["buckets"] = result.buckets_touched


def _route(span, args, kwargs, result) -> None:
    span.attrs["route"] = args[2].rstrip("/").rsplit("/", 1)[-1]


def _transport_route(span, args, kwargs, result) -> None:
    span.attrs["route"] = args[0].path.split("?", 1)[0].rstrip("/").rsplit("/", 1)[-1]


def _put_bytes(span, args, kwargs, result) -> None:
    store = args[0]
    span.attrs["bytes"] = os.path.getsize(store.objects_dir / f"{result}.pkl")


@contextlib.contextmanager
def install(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every traced entry point; restore all of them on exit."""
    for name in _MODULES:
        importlib.import_module(name)
    from repro.check.callgraph import CallGraph
    from repro.check.lockmodel import LockModel
    from repro.check.rules import RULE_FACTORIES
    from repro.extraction.mobility import ODFlows
    from repro.models.gravity import GravityModel
    from repro.pipeline.store import ArtifactStore
    from repro.serve.app import EstimationApp, RequestHandler
    from repro.serve.ingest import IngestService
    from repro.stream.monitor import MobilityMonitor
    from repro.stream.online import OnlineMobilityCounter
    from repro.summary.store import SummaryStore
    from repro.synth.generator import SyntheticCorpusGenerator

    try:
        tracer.patch_function("repro.data.schema", "parse_tweet_record", "data.parse", "data")
        tracer.patch_function("repro.core.label", "label_points", "core.label_points", "core", _rows)
        tracer.patch_function("repro.core.label", "membership_points", "core.membership_points", "core")
        tracer.patch_function("repro.core.label", "label_corpus", "core.label_corpus", "core")
        tracer.patch_method(IngestService, "ingest", "stream.ingest", "stream")
        tracer.patch_method(MobilityMonitor, "push_batch", "stream.monitor_push", "stream")
        tracer.patch_method(OnlineMobilityCounter, "push_batch", "stream.counter_push", "stream")
        tracer.patch_method(ODFlows, "pairs", "extraction.od_pairs", "extraction")
        tracer.patch_method(GravityModel, "fit", "models.gravity_fit", "models")
        tracer.patch_method(SummaryStore, "ingest", "summary.ingest", "summary")
        tracer.patch_method(SummaryStore, "query", "summary.query", "summary", _buckets)
        tracer.patch_method(ArtifactStore, "put", "pipeline.put", "pipeline", _put_bytes)
        tracer.patch_method(ArtifactStore, "record_key", "pipeline.record_key", "pipeline")
        tracer.patch_method(SyntheticCorpusGenerator, "generate", "synth.generate", "synth")
        tracer.patch_method(RequestHandler, "do_GET", "serve.transport", "serve", _transport_route)
        tracer.patch_method(RequestHandler, "do_POST", "serve.transport", "serve", _transport_route)
        tracer.patch_method(EstimationApp, "handle", "serve.handle", "serve", _route)
        tracer.patch_function("repro.check.walker", "iter_source_files", "check.parse", "check",
                              eager=True)
        for rule in CHECK_RULES:
            tracer.patch_method(RULE_FACTORIES[rule], "run", f"check.rule.{rule}", "check")
        tracer.patch_method(CallGraph, "build", "check.callgraph_build", "check")
        tracer.patch_method(LockModel, "build", "check.lockmodel_build", "check")
        yield tracer
    finally:
        tracer.restore()


def app_counts(app, hits_before: int = 0, misses_before: int = 0) -> dict[str, float]:
    """Counters the service keeps itself, read through its public objects."""
    summary = app.summary.stats()
    hits = app.cache.hits - hits_before
    lookups = hits + app.cache.misses - misses_before
    return {
        "stream.checks": app.ingest.stats()["checks_done"],
        "summary.tiles.minute": summary["tiles"]["minute"],
        "summary.tiles.hour": summary["tiles"]["hour"],
        "summary.tiles.day": summary["tiles"]["day"],
        "summary.tracked_users": summary["tracked_users"],
        "serve.cache_hit_ratio": hits / lookups if lookups else 0.0,
    }


def collect(tracer: Tracer, extra: dict[str, float], wall: float,
            reference: float | None, overhead: float | None = None) -> dict[str, tuple[float, str]]:
    """Every per-layer metric: spans, plus ``extra`` counts, zeros elsewhere.

    ``wall`` is the traced pass's wall time and ``reference`` the same
    work's untraced wall time (overhead is their ratio minus one, unless
    given).  Coverage is the share of ``wall`` the layers' self times
    account for.
    """
    values = {name: 0.0 for name in PER_LAYER}
    for layer, totals in tracer.layer_totals().items():
        if layer in LAYERS:
            values[f"{layer}.calls"] = totals["calls"]
            values[f"{layer}.busy_s"] = totals["busy_s"]
            values[f"{layer}.self_s"] = totals["self_s"]
    values["data.parse_calls"] = tracer.count("data.parse")
    values["data.parse_s"] = tracer.total("data.parse")
    values["core.label_points_s"] = tracer.total("core.label_points")
    values["core.membership_points_s"] = tracer.total("core.membership_points")
    values["core.rows_labelled"] = tracer.total("core.label_points", "rows")
    values["core.label_corpus_s"] = tracer.total("core.label_corpus")
    values["stream.ingest_s"] = tracer.total("stream.ingest")
    values["stream.counter_push_s"] = tracer.total("stream.counter_push")
    values["stream.monitor_self_s"] = tracer.total("stream.monitor_push", "self_s")
    values["extraction.od_pairs_s"] = tracer.total("extraction.od_pairs")
    values["extraction.od_pairs_calls"] = tracer.count("extraction.od_pairs")
    values["models.gravity_fit_s"] = tracer.total("models.gravity_fit")
    values["models.gravity_fits"] = tracer.count("models.gravity_fit")
    values["summary.ingest_s"] = tracer.total("summary.ingest")
    values["summary.query_s"] = tracer.total("summary.query")
    values["summary.buckets_touched"] = tracer.total("summary.query", "buckets")
    values["pipeline.puts"] = tracer.count("pipeline.put")
    values["pipeline.put_s"] = tracer.total("pipeline.put")
    values["pipeline.put_bytes"] = tracer.total("pipeline.put", "bytes")
    values["pipeline.record_key_s"] = tracer.total("pipeline.record_key")
    values["synth.generate_s"] = tracer.total("synth.generate")
    for span in tracer.spans:
        route = span.attrs.get("route")
        if span.name == "serve.handle" and route in SERVE_ROUTES:
            values[f"serve.handle_s.{route}"] += span.self_s
        elif span.name == "serve.transport":
            values["serve.transport_s"] += span.self_s
    values["check.parse_s"] = tracer.total("check.parse")
    for rule in CHECK_RULES:
        values[f"check.rule_s.{rule}"] = tracer.total(f"check.rule.{rule}")
    values["check.callgraph_builds"] = tracer.count("check.callgraph_build")
    values["check.lockmodel_builds"] = tracer.count("check.lockmodel_build")
    values.update(extra)
    if overhead is None:
        overhead = wall / reference - 1.0 if reference else 0.0
    values["trace.overhead_frac"] = overhead
    values["trace.coverage_frac"] = tracer.self_total() / wall if wall else 0.0
    return {name: (float(values[name]), PER_LAYER[name]) for name in PER_LAYER}
