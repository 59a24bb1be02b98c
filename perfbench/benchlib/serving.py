"""Driving the HTTP service: closed-loop ingest and the open-loop dashboard.

The load loops here work against any port, so the same code measures a
``repro serve`` child process (untraced runs) and an in-process
server whose calls the tracer can reach (traced runs).
"""

from __future__ import annotations

import bisect
import contextlib
import io
import json
import shutil
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from benchlib import inputs
from benchlib.inputs import Batch, Event
from benchlib.procs import Client


@dataclass
class Tally:
    """Operations attempted and failed, with the first few problems."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, problem: str | None) -> None:
        self.attempted += 1
        if problem:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(problem)

    def record_check(self, problems: list[str]) -> None:
        """One attempted check, failed when ``problems`` is non-empty."""
        self.record("; ".join(problems) if problems else None)


def ingest_problem(status: int, data: bytes, n: int) -> str | None:
    """Why an ingest reply is wrong for a batch of ``n`` fresh tweets."""
    if status != 200:
        return f"ingest answered {status}: {data[:200]!r}"
    payload = json.loads(data)
    accepted, stale = payload.get("accepted"), payload.get("dropped_stale")
    if accepted is None or stale is None or accepted + stale != n or stale:
        return f"ingest of {n} tweets: accepted={accepted} dropped_stale={stale}"
    summary = payload.get("summary") or {}
    if summary.get("accepted") != n or summary.get("dropped_late") != 0:
        return f"summary ingest of {n} tweets: {summary}"
    return None


def registry_cache(work: Path) -> Path:
    """The pipeline run a server needs before it boots (built once per run)."""
    from repro.cli import main

    cache = work / "registry"
    args = ["pipeline", "run", "--users", str(inputs.REGISTRY_USERS),
            "--seed", str(inputs.REGISTRY_SEED), "--cache-dir", str(cache)]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(args)
    if code != 0:
        raise RuntimeError(f"registry pipeline run failed with exit code {code}")
    return cache


def fresh_cache(registry: Path, work: Path, name: str) -> Path:
    """A private copy of the registry cache, so tiles never leak between servers."""
    target = work / name
    shutil.copytree(registry, target)
    return target


SERVE_ARGS = ["--gazetteer", inputs.GAZETTEER, "--monitor-scale", inputs.MONITOR_SCALE]


class InProcessServer:
    """The service on a thread of this process, for traced runs."""

    def __init__(self, cache_dir: Path) -> None:
        from repro.data.gazetteer import Scale
        from repro.pipeline import ArtifactStore
        from repro.serve import create_app, create_server

        self.app = create_app(
            ArtifactStore(cache_dir),
            monitor_scale=Scale(inputs.MONITOR_SCALE),
            gazetteer=inputs.GAZETTEER,
        )
        self.server = create_server("127.0.0.1", 0, self.app, access_log_file=None)
        self.port = self.server.port
        self.thread = threading.Thread(target=self.server.serve_forever, name="bench-server")
        self.thread.start()

    def stop(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(30)
        if self.thread.is_alive():
            raise RuntimeError("in-process server did not stop")


@dataclass
class IngestRun:
    latencies: list[float]
    batches: list[Batch]
    elapsed: float

    @property
    def tweets(self) -> int:
        return sum(len(b.rows) for b in self.batches)


def drive_ingest(client: Client, batches: list[Batch], seconds: float, tally: Tally,
                 limit: int | None = None) -> IngestRun:
    """Closed loop: send the next batch as soon as the previous reply lands.

    Stops after ``seconds`` (or ``limit`` batches, or the end of the stream).
    """
    latencies: list[float] = []
    sent: list[Batch] = []
    started = time.perf_counter()
    for batch in batches:
        if limit is None and time.perf_counter() - started >= seconds:
            break
        if limit is not None and len(sent) >= limit:
            break
        t0 = time.perf_counter()
        status, data = client.request("POST", "/v1/ingest", batch.body)
        latencies.append(time.perf_counter() - t0)
        sent.append(batch)
        tally.record(ingest_problem(status, data, len(batch.rows)))
    return IngestRun(latencies, sent, time.perf_counter() - started)


@dataclass
class DashboardRun:
    #: Seconds from due time to reply, per event kind.
    latency: dict[str, list[float]]
    #: Seconds from send to reply, summed over all events.
    service_s: float
    late: list[float]
    backlog_max: int
    backlog_growing: bool
    #: (path, payload, rows sent before it) for reads the oracle checks.
    checked: list[tuple[str, dict, int]]


def drive_dashboard(client: Client, events: list[Event], tally: Tally) -> DashboardRun:
    """Open loop: each event goes out at its due time, late if the server lags.

    One connection carries every request, so a slow reply delays the
    requests behind it; their latency counts from when they were due.
    """
    offsets = [e.offset for e in events]
    latency: dict[str, list[float]] = {}
    late: list[float] = []
    checked = []
    backlog_max = 0
    service = 0.0
    start = time.perf_counter() + 0.05
    for i, event in enumerate(events):
        due = start + event.offset
        wait = due - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        sent = time.perf_counter()
        backlog_max = max(backlog_max, bisect.bisect_right(offsets, sent - start) - i - 1)
        method = "POST" if event.body is not None else "GET"
        status, data = client.request(method, event.path, event.body)
        done = time.perf_counter()
        service += done - sent
        late.append(sent - due)
        latency.setdefault(event.kind, []).append(done - due)
        if event.kind == "ingest":
            tally.record(ingest_problem(status, data, len(event.rows)))
        elif status != 200:
            tally.record(f"{event.path} answered {status}: {data[:200]!r}")
        else:
            tally.record(None)
            if event.check:
                checked.append((event.path, json.loads(data), event.sent_before))
    third = max(1, len(late) // 3)
    growing = sum(late[-third:]) / third > sum(late[:third]) / third + 0.5
    return DashboardRun(latency, service, late, backlog_max, growing, checked)


def prefill(client: Client, batches: list[Batch], tally: Tally) -> None:
    """Untimed warm-up ingest, closed loop, every reply checked."""
    for batch in batches:
        status, data = client.request("POST", "/v1/ingest", batch.body)
        tally.record(ingest_problem(status, data, len(batch.rows)))


def whole_span_reads(client: Client, stream, rows_sent) -> list[tuple[str, dict]]:
    """Population and flows over a window covering every tweet sent."""
    import numpy as np

    rows = np.concatenate(rows_sent)
    t0 = float(stream.timestamps[rows].min())
    t1 = float(stream.timestamps[rows].max()) + 1.0
    out = []
    for endpoint in ("/v1/population", "/v1/flows"):
        path = f"{endpoint}?window={t0!r}:{t1!r}"
        status, data = client.request("GET", path)
        out.append((path, json.loads(data) if status == 200 else {"status": status}))
    return out
