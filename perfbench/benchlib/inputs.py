"""Seeded input generators, one per workload.

Everything the program under test receives is built here from the
workload seed, before any timing starts: the paper-density tweet
stream and its ingest batches (ingest-1k), the prefill, trickle and
read schedule (dashboard-1k), and the pipeline arguments
(pipeline-cold-legacy).  The same seed gives byte-identical inputs;
``tests/test_inputs.py`` holds that contract.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from urllib.parse import quote

import numpy as np

#: The monitored area system of both serve workloads (ε = 2 km).
GAZETTEER = "synth:1000"
MONITOR_SCALE = "metropolitan"

#: Paper density: 6.3M tweets over about 212 days (Table I).
PAPER_TWEETS = 6_300_000
PAPER_DAYS = 212.0
TWEETS_PER_MINUTE = PAPER_TWEETS / (PAPER_DAYS * 1440.0)

#: Tweets per ``POST /v1/ingest`` batch.
BATCH_TWEETS = 1024

#: Stream time generated for ingest-1k: at ~2k tweets/s a 60 s run uses
#: about a third of it; a faster program stops early (and says so).
INGEST_STREAM_HOURS = 72.0

#: dashboard-1k: stream time ingested (untimed) before the reads start.
PREFILL_HOURS = 24.0
#: dashboard-1k: stream generated, covering prefill plus the trickle.
DASHBOARD_STREAM_HOURS = 32.0
#: dashboard-1k open-loop rates (per wall second) and trickle size,
#: chosen so the seed code keeps up (about half busy, no backlog).
READ_RATE = 2.5
TRICKLE_RATE = 1.0
TRICKLE_TWEETS = 64
#: The read mix, repeated in this order: (kind, window span, aligned).
#: Fixed proportions keep runs comparable across seeds; the seed picks
#: the stream, hence each window's position, and the origin areas.
#: ``repeat`` re-sends the previous URL (a response-cache hit when no
#: trickle batch landed in between).
READ_CYCLE = (
    ("flows", "day", True),
    ("population", "hour", True),
    ("flows-origin", "hour", False),
    ("repeat", "", False),
    ("flows", "hour", False),
    ("population", "day", False),
    ("flows-origin", "day", True),
    ("flows", "day", False),
    ("population", "hour", False),
    ("repeat", "", False),
    ("flows", "hour", True),
    ("population", "day", True),
    ("flows-origin", "hour", True),
    ("repeat", "", False),
    ("flows", "day", True),
)
#: Every this-many-th read has its answer checked against the oracle.
CHECK_EVERY = 4

#: pipeline-cold-legacy corpus size (the paper world, 60 areas).
PIPELINE_USERS = 40_000

#: Users for the serve workloads' model registry (a small pipeline run
#: the server needs before it can boot; not part of any measurement).
REGISTRY_USERS = 800
REGISTRY_SEED = 9


@dataclass(frozen=True)
class Stream:
    """A time-ordered tweet stream as columns."""

    tweet_ids: np.ndarray
    user_ids: np.ndarray
    timestamps: np.ndarray
    lats: np.ndarray
    lons: np.ndarray

    def __len__(self) -> int:
        return int(self.timestamps.size)

    def records(self, rows: np.ndarray) -> list[dict]:
        """JSON tweet objects for ``rows``, in the given order."""
        return [
            {
                "tweet_id": int(self.tweet_ids[i]),
                "user_id": int(self.user_ids[i]),
                "timestamp": float(self.timestamps[i]),
                "lat": float(self.lats[i]),
                "lon": float(self.lons[i]),
            }
            for i in rows
        ]


@dataclass(frozen=True)
class Batch:
    """One ingest request: its rows (in send order) and encoded body."""

    rows: np.ndarray
    body: bytes


def _config(seed: int, hours: float):
    """A ``synth:1000`` config whose stream has paper density over ``hours``.

    The paper's per-user tweet counts run up to 20,000 over its whole
    collection; squeezed into a few hours unchanged, one user would post
    every few seconds and a single seed's draw would swing the stream
    volume by a third.  So the count cap shrinks with the window (a user
    keeps the paper's peak rate), and the user count is set so the
    expected tweets per minute match the paper.
    """
    from repro.synth import SynthConfig
    from repro.synth.config import COLLECTION_START_TS
    from repro.synth.distributions import DiscretePowerLaw

    defaults = SynthConfig()
    k_max = max(
        defaults.tweets_k_min,
        round(defaults.tweets_k_max * hours / (PAPER_DAYS * 24.0)),
    )
    per_user = DiscretePowerLaw(defaults.tweets_alpha, defaults.tweets_k_min, k_max).mean()
    return SynthConfig(
        n_users=max(1, round(TWEETS_PER_MINUTE * hours * 60.0 / per_user)),
        seed=seed,
        tweets_k_max=k_max,
        gazetteer=GAZETTEER,
        start_ts=COLLECTION_START_TS,
        end_ts=COLLECTION_START_TS + hours * 3600.0,
    )


def tweet_stream(seed: int, hours: float) -> Stream:
    """A seeded ``synth:1000`` stream of ``hours`` at paper density."""
    from repro.synth import generate_corpus

    corpus = generate_corpus(_config(seed, hours)).corpus
    order = np.argsort(corpus.timestamps, kind="stable")
    return Stream(
        tweet_ids=corpus.tweet_ids[order],
        user_ids=corpus.user_ids[order],
        timestamps=corpus.timestamps[order],
        lats=corpus.lats[order],
        lons=corpus.lons[order],
    )


def make_batch(stream: Stream, lo: int, hi: int, rng: np.random.Generator) -> Batch:
    """Stream rows ``[lo, hi)`` shuffled internally, encoded as a request.

    Rows come from a time-sorted stream, so no batch holds a tweet older
    than the previous batch's newest: nothing falls behind the watermark.
    """
    rows = np.arange(lo, hi)
    rng.shuffle(rows)
    body = json.dumps({"tweets": stream.records(rows)}).encode("utf-8")
    return Batch(rows=rows, body=body)


def ingest_batches(seed: int) -> tuple[Stream, list[Batch]]:
    """ingest-1k inputs: the stream cut into shuffled 1,024-tweet batches."""
    stream = tweet_stream(seed, INGEST_STREAM_HOURS)
    rng = np.random.default_rng([seed, 1])
    batches = [
        make_batch(stream, lo, min(lo + BATCH_TWEETS, len(stream)), rng)
        for lo in range(0, len(stream), BATCH_TWEETS)
    ]
    return stream, batches


@dataclass(frozen=True)
class Event:
    """One scheduled dashboard request.

    ``kind`` is ``"ingest"`` or a read kind (``population``, ``flows``,
    ``flows-origin``); ``check`` marks reads whose answer the oracle
    verifies; ``sent_before`` is how many stream rows every earlier
    event has sent, which fixes the state a read must observe.
    """

    offset: float
    kind: str
    path: str
    body: bytes | None
    rows: np.ndarray | None
    sent_before: int
    check: bool


@dataclass(frozen=True)
class DashboardInputs:
    stream: Stream
    prefill: list[Batch]
    events: list[Event]


def _window(now: float, span: float, aligned: bool) -> tuple[str, str]:
    if aligned:
        end = math.floor(now / 3600.0) * 3600.0
        return repr(int(end - span)), repr(int(end))
    end = now + 0.5
    return repr(end - span), repr(end)


def dashboard_inputs(seed: int, seconds: float) -> DashboardInputs:
    """dashboard-1k inputs: prefill batches plus the open-loop schedule."""
    stream = tweet_stream(seed, DASHBOARD_STREAM_HOURS)
    rng = np.random.default_rng([seed, 2])
    prefill_end = int(
        np.searchsorted(stream.timestamps, stream.timestamps[0] + PREFILL_HOURS * 3600.0)
    )
    prefill = [
        make_batch(stream, lo, min(lo + BATCH_TWEETS, prefill_end), rng)
        for lo in range(0, prefill_end, BATCH_TWEETS)
    ]

    from repro.core.world import World
    from repro.data.gazetteer import Scale

    names = World.from_scale(Scale(MONITOR_SCALE), gazetteer=GAZETTEER).names
    timeline = sorted(
        [(k / TRICKLE_RATE, 0) for k in range(int(seconds * TRICKLE_RATE))]
        + [(k / READ_RATE + 0.5 / READ_RATE, 1) for k in range(int(seconds * READ_RATE))]
    )
    sent = prefill_end
    events: list[Event] = []
    path = ""
    reads = 0
    for offset, is_read in timeline:
        if not is_read:
            hi = min(sent + TRICKLE_TWEETS, len(stream))
            if hi <= sent:
                raise ValueError("dashboard stream too short for the trickle")
            batch = make_batch(stream, sent, hi, rng)
            events.append(Event(offset, "ingest", "/v1/ingest", batch.body, batch.rows, sent, False))
            sent = hi
            continue
        kind, span, aligned = READ_CYCLE[reads % len(READ_CYCLE)]
        if kind != "repeat":
            now = float(stream.timestamps[sent - 1])
            t0, t1 = _window(now, 3600.0 if span == "hour" else 86400.0, aligned)
            endpoint = "/v1/population" if kind == "population" else "/v1/flows"
            path = f"{endpoint}?window={t0}:{t1}"
            if kind == "flows-origin":
                path += "&origin=" + quote(names[int(rng.integers(len(names)))])
        kind = "population" if path.startswith("/v1/population") else (
            "flows-origin" if "origin=" in path else "flows"
        )
        events.append(Event(offset, kind, path, None, None, sent, reads % CHECK_EVERY == 0))
        reads += 1
    return DashboardInputs(stream=stream, prefill=prefill, events=events)


def pipeline_args(seed: int, cache_dir: str) -> list[str]:
    """The cold/warm ``repro pipeline run`` arguments for a seed."""
    return [
        "pipeline", "run",
        "--users", str(PIPELINE_USERS),
        "--seed", str(seed),
        "--cache-dir", cache_dir,
    ]
