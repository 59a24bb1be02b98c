"""The four workloads, each in an untraced and a traced form.

An untraced run measures what a user sees (the end-to-end metrics)
with the program in its own process.  A traced run repeats the work
twice in this process — once plain, once with the layer wrappers
installed — and reports the per-layer metrics plus the tracing
overhead between the two passes.
"""

from __future__ import annotations

import contextlib
import glob
import hashlib
import io
import json
import os
import re
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

from benchlib import inputs, layers, oracle, procs, serving, stats
from benchlib.metrics import END_TO_END
from benchlib.serving import Tally
from benchlib.tracing import Tracer

#: Setup repetitions per run; ``setup_s`` is their median.
SETUP_REPEATS = 3


@dataclass
class Result:
    tally: Tally
    #: name -> (value, unit): the metrics on the final JSON line.
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: Extra human-readable lines (workload-specific figures).
    report: list[str] = field(default_factory=list)


@dataclass
class Context:
    root: Path
    work: Path
    seed: int
    seconds: float


def _end_to_end(setup: list[float], rss: float, primary: list[float],
                every: list[float]) -> dict[str, tuple[float, str]]:
    """The gated metrics: ``primary`` holds the workload's headline operation,
    ``every`` all its timed operations (seconds)."""
    values = {
        "setup_s": stats.median(setup),
        "peak_rss_mb": rss,
        "p50_ms": stats.median(primary) * 1e3,
        "mean_ms": stats.mean(every) * 1e3,
        "tail_ms": stats.tail(every).value * 1e3,
    }
    return {name: (values[name], unit) for name, unit in END_TO_END.items()}


def _timing_line(name: str, samples: list[float], scale: float = 1e3, unit: str = "ms") -> str:
    tail = stats.tail(samples)
    return (f"{name}: p50 {stats.median(samples) * scale:.3f} {unit}, "
            f"tail {tail.value * scale:.3f} {unit} ({tail.describe()})")


def _world():
    from repro.core.world import World
    from repro.data.gazetteer import Scale

    return World.from_scale(Scale(inputs.MONITOR_SCALE), gazetteer=inputs.GAZETTEER)


def _spawn_setups(ctx: Context, cache: Path) -> tuple[procs.Server, list[float]]:
    """Boot the server SETUP_REPEATS times; keep the last one running."""
    times = []
    for attempt in range(SETUP_REPEATS):
        server = procs.Server(ctx.root, ctx.work, cache, serving.SERVE_ARGS)
        try:
            times.append(server.wait_ready())
        except Exception:
            server.stop()
            raise
        if attempt < SETUP_REPEATS - 1:
            server.stop()
    return server, times


def _check_whole_span(tally: Tally, client, stream, rows_sent) -> None:
    checker = oracle.Oracle(_world(), stream, rows_sent)
    for path, payload in serving.whole_span_reads(client, stream, rows_sent):
        tally.record_check(oracle.check_read(checker, path, payload, checker.n))


def _check_reads(tally: Tally, stream, rows_sent, checked) -> None:
    checker = oracle.Oracle(_world(), stream, rows_sent)
    for path, payload, prefix in checked:
        tally.record_check(oracle.check_read(checker, path, payload, prefix))


# -- ingest-1k -----------------------------------------------------------


def ingest_1k(ctx: Context) -> Result:
    stream, batches = inputs.ingest_batches(ctx.seed)
    registry = serving.registry_cache(ctx.work)
    server, setup = _spawn_setups(ctx, registry)
    tally = Tally()
    try:
        client = procs.Client(server.port)
        run = serving.drive_ingest(client, batches, ctx.seconds, tally)
        rss = server.peak_rss_mb()
        _check_whole_span(tally, client, stream, [b.rows for b in run.batches])
        client.close()
    finally:
        code = server.stop()
    tally.record(None if code == 0 else f"server exited with {code}")
    result = Result(tally, _end_to_end(setup, rss, run.latencies, run.latencies))
    result.report += [
        f"ingest_tweets_per_s: {run.tweets / run.elapsed:.1f} tweets/s "
        f"({run.tweets} tweets in {len(run.batches)} batches over {run.elapsed:.2f} s)",
        _timing_line("ingest_batch", run.latencies),
    ]
    if len(run.batches) == len(batches):
        result.report.append("note: the generated stream ran out before the time did")
    return result


def ingest_1k_traced(ctx: Context) -> Result:
    stream, batches = inputs.ingest_batches(ctx.seed)
    registry = serving.registry_cache(ctx.work)
    tally = Tally()
    plain = serving.InProcessServer(serving.fresh_cache(registry, ctx.work, "plain"))
    try:
        client = procs.Client(plain.port)
        reference = serving.drive_ingest(client, batches, ctx.seconds, Tally())
        client.close()
    finally:
        plain.stop()
    traced = serving.InProcessServer(serving.fresh_cache(registry, ctx.work, "traced"))
    try:
        client = procs.Client(traced.port)
        with layers.install(Tracer()) as tracer:
            run = serving.drive_ingest(client, batches, ctx.seconds, tally,
                                       limit=len(reference.batches))
        _check_whole_span(tally, client, stream, [b.rows for b in run.batches])
        extra = layers.app_counts(traced.app)
        extra["serve.bytes_out"] = client.bytes_in
        client.close()
    finally:
        traced.stop()
    metrics = layers.collect(tracer, extra, wall=run.elapsed, reference=reference.elapsed)
    return Result(tally, metrics)


# -- dashboard-1k --------------------------------------------------------


def _dashboard_report(run: serving.DashboardRun) -> list[str]:
    lines = []
    for kind in ("population", "flows", "flows-origin", "ingest"):
        if run.latency.get(kind):
            name = "trickle_ingest" if kind == "ingest" else f"{kind.replace('-', '_')}_read"
            lines.append(_timing_line(name, run.latency[kind]))
    reads = [x for k, v in run.latency.items() if k != "ingest" for x in v]
    lines.append(_timing_line("read (pooled)", reads))
    late = stats.tail(run.late)
    lines.append(
        f"loadgen: late tail {late.value * 1e3:.3f} ms ({late.describe()}), "
        f"backlog max {run.backlog_max}, growing: {'yes' if run.backlog_growing else 'no'}"
    )
    return lines


def _reads(run: serving.DashboardRun) -> list[float]:
    return [x for kind, values in run.latency.items() if kind != "ingest" for x in values]


def _rows_sent(dash: inputs.DashboardInputs) -> list:
    return [b.rows for b in dash.prefill] + [e.rows for e in dash.events if e.rows is not None]


def dashboard_1k(ctx: Context) -> Result:
    dash = inputs.dashboard_inputs(ctx.seed, ctx.seconds)
    registry = serving.registry_cache(ctx.work)
    server, setup = _spawn_setups(ctx, registry)
    tally = Tally()
    try:
        client = procs.Client(server.port)
        serving.prefill(client, dash.prefill, tally)
        run = serving.drive_dashboard(client, dash.events, tally)
        rss = server.peak_rss_mb()
        client.close()
    finally:
        code = server.stop()
    tally.record(None if code == 0 else f"server exited with {code}")
    _check_reads(tally, dash.stream, _rows_sent(dash), run.checked)
    result = Result(tally, _end_to_end(setup, rss, run.latency["flows"], _reads(run)))
    result.report += _dashboard_report(run)
    return result


def dashboard_1k_traced(ctx: Context) -> Result:
    dash = inputs.dashboard_inputs(ctx.seed, ctx.seconds)
    registry = serving.registry_cache(ctx.work)
    tally = Tally()
    plain = serving.InProcessServer(serving.fresh_cache(registry, ctx.work, "plain"))
    try:
        client = procs.Client(plain.port)
        serving.prefill(client, dash.prefill, Tally())
        reference = serving.drive_dashboard(client, dash.events, Tally())
        client.close()
    finally:
        plain.stop()
    traced = serving.InProcessServer(serving.fresh_cache(registry, ctx.work, "traced"))
    try:
        client = procs.Client(traced.port)
        serving.prefill(client, dash.prefill, tally)
        bytes_before = client.bytes_in
        hits_before, misses_before = traced.app.cache.hits, traced.app.cache.misses
        started = time.perf_counter()
        with layers.install(Tracer()) as tracer:
            run = serving.drive_dashboard(client, dash.events, tally)
        wall = time.perf_counter() - started
        extra = layers.app_counts(traced.app, hits_before, misses_before)
        extra["serve.bytes_out"] = client.bytes_in - bytes_before
        client.close()
    finally:
        traced.stop()
    _check_reads(tally, dash.stream, _rows_sent(dash), run.checked)
    extra["loadgen.late_tail_ms"] = stats.tail(reference.late).value * 1e3
    extra["loadgen.backlog_max"] = reference.backlog_max
    # Open loop: the wall clock is fixed by the schedule, so overhead
    # compares time spent serving (send to reply) between the passes.
    metrics = layers.collect(tracer, extra, wall=wall, reference=None,
                             overhead=run.service_s / reference.service_s - 1.0)
    return Result(tally, metrics)


# -- CLI workloads -------------------------------------------------------


def _version_setups(ctx: Context, tally: Tally) -> tuple[list[float], float]:
    times, rss = [], 0.0
    for _ in range(SETUP_REPEATS):
        run = procs.run_cli(ctx.root, ctx.work, ["--version"])
        tally.record(None if run.returncode == 0 and run.stdout.startswith(b"repro ")
                     else f"--version exited {run.returncode}")
        times.append(run.seconds)
        rss = max(rss, run.peak_rss_mb)
    return times, rss


def _repeat(seconds: float, body) -> None:
    """Call ``body`` until ``seconds`` have passed (at least once).

    The same rule as the ingest loop: a call that starts in time runs to
    the end, so a run measures at least ``seconds``.
    """
    started = time.perf_counter()
    while True:
        body()
        if time.perf_counter() - started >= seconds:
            return


def pipeline_cold_legacy(ctx: Context) -> Result:
    tally = Tally()
    setup, rss = _version_setups(ctx, tally)
    cold, warm, digests = [], [], set()

    def one_pair() -> None:
        nonlocal rss
        cache = ctx.work / f"pipeline-{len(cold)}"
        args = inputs.pipeline_args(ctx.seed, str(cache))
        first = procs.run_cli(ctx.root, ctx.work, args)
        again = procs.run_cli(ctx.root, ctx.work, args)
        for label, run in (("cold", first), ("warm", again)):
            tally.record(None if run.returncode == 0 else
                         f"{label} pipeline run exited {run.returncode}: {run.stderr[-300:]!r}")
        problems = []
        if first.stdout != again.stdout or not first.stdout:
            problems.append("cold and warm reports differ")
        if not re.search(rb"\b0 executed", again.stderr):
            problems.append("warm run executed tasks instead of hitting the cache")
        tally.record_check(problems)
        cold.append(first.seconds)
        warm.append(again.seconds)
        rss = max(rss, first.peak_rss_mb, again.peak_rss_mb)
        digests.add(hashlib.sha256(first.stdout).hexdigest()[:16])
        shutil.rmtree(cache, ignore_errors=True)

    _repeat(ctx.seconds, one_pair)
    result = Result(tally, _end_to_end(setup, rss, cold, cold + warm))
    result.report += [
        _timing_line("pipeline_cold", cold, 1.0, "s"),
        _timing_line("pipeline_warm", warm, 1.0, "s"),
        f"report digest: {','.join(sorted(digests))}",
    ]
    return result


def _in_process_cli(args: list[str]) -> tuple[int, str]:
    from repro.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(args)
    return code, out.getvalue()


def _manifest(cache: Path, which: int) -> dict:
    """The ``which``-th manifest (in run order) the executor wrote under ``cache``."""
    paths = sorted(glob.glob(str(cache / "runs" / "*" / "manifest.json")), key=os.path.getmtime)
    with open(paths[which], encoding="utf-8") as handle:
        return json.load(handle)


def pipeline_cold_legacy_traced(ctx: Context) -> Result:
    tally = Tally()
    plain_cache = ctx.work / "pipeline-plain"
    t0 = time.perf_counter()
    code, reference_report = _in_process_cli(inputs.pipeline_args(ctx.seed, str(plain_cache)))
    reference = time.perf_counter() - t0
    tally.record(None if code == 0 else f"cold pipeline run exited {code}")
    cache = ctx.work / "pipeline-traced"
    args = inputs.pipeline_args(ctx.seed, str(cache))
    with layers.install(Tracer()) as tracer:
        t0 = time.perf_counter()
        code, cold_report = _in_process_cli(args)
        wall = time.perf_counter() - t0
    code_warm, warm_report = _in_process_cli(args)
    tally.record(None if code == 0 else f"traced cold pipeline run exited {code}")
    tally.record(None if code_warm == 0 else f"warm pipeline run exited {code_warm}")
    tally.record_check([] if cold_report == warm_report == reference_report
                 else ["pipeline reports differ between runs"])
    extra = {f"pipeline.task_s.{r['name']}": r["seconds"] for r in _manifest(cache, 0)["records"]}
    extra["pipeline.cache_hits"] = _manifest(cache, -1)["hits"]
    metrics = layers.collect(tracer, extra, wall=wall, reference=reference)
    return Result(tally, metrics)


def check_repo(ctx: Context) -> Result:
    tally = Tally()
    setup, rss = _version_setups(ctx, tally)
    runs = []

    def one_check() -> None:
        nonlocal rss
        run = procs.run_cli(ctx.root, ctx.work, ["check", "--root", str(ctx.root)])
        ok = run.returncode == 0 and b" 0 new violation" in run.stdout
        tally.record(None if ok else f"check exited {run.returncode}: {run.stdout[-300:]!r}")
        runs.append(run.seconds)
        rss = max(rss, run.peak_rss_mb)

    _repeat(ctx.seconds, one_check)
    result = Result(tally, _end_to_end(setup, rss, runs, runs))
    result.report.append(_timing_line("check", runs, 1.0, "s"))
    return result


def check_repo_traced(ctx: Context) -> Result:
    tally = Tally()
    args = ["check", "--root", str(ctx.root)]
    t0 = time.perf_counter()
    code, _ = _in_process_cli(args)
    reference = time.perf_counter() - t0
    tally.record(None if code == 0 else f"check exited {code}")
    with layers.install(Tracer()) as tracer:
        t0 = time.perf_counter()
        code, _ = _in_process_cli(args)
        wall = time.perf_counter() - t0
    tally.record(None if code == 0 else f"traced check exited {code}")
    return Result(tally, layers.collect(tracer, {}, wall=wall, reference=reference))


WORKLOADS = {
    "ingest-1k": (ingest_1k, ingest_1k_traced),
    "dashboard-1k": (dashboard_1k, dashboard_1k_traced),
    "pipeline-cold-legacy": (pipeline_cold_legacy, pipeline_cold_legacy_traced),
    "check-repo": (check_repo, check_repo_traced),
}
