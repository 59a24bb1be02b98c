"""Live tweet ingest: a lock-guarded :class:`MobilityMonitor`.

``POST /v1/ingest`` delivers tweet batches from arbitrary HTTP client
threads, but the monitor (and the sliding-window counters under it) is
a strictly single-writer, time-ordered structure.  :class:`IngestService`
is the adapter: one mutex serialises all monitor access, each batch is
sorted by timestamp before pushing, and tweets older than the stream's
high-water mark are *dropped and counted* rather than raising — an HTTP
client cannot be trusted to deliver globally ordered batches.

The endpoint hands :meth:`IngestService.ingest` a
:class:`~repro.core.label.LabelledBatch`: the request was sorted and
labelled once, and the summary store consumes the same block.  A
``Tweet`` list is still accepted, and is labelled on the way in.

Reads (``/v1/anomalies``) take the same lock, so anomaly listings are
consistent with completed batches — a deliberate single-writer design,
documented in DESIGN.md.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Sequence

from repro.core.label import LabelledBatch, label_batch
from repro.core.world import World
from repro.data.gazetteer import Area
from repro.data.schema import Tweet, TweetBatch, parse_tweet_record
from repro.stream.monitor import FlowAnomaly, MobilityMonitor


@dataclass(frozen=True)
class IngestResult:
    """Outcome of one ingest batch."""

    accepted: int
    dropped_stale: int
    anomalies_raised: int


class IngestService:
    """Thread-safe facade over a windowed mobility monitor."""

    def __init__(
        self,
        areas: Sequence[Area] | World,
        radius_km: float,
        window_seconds: float = 3600.0,
        **monitor_kwargs,
    ) -> None:
        self._lock = threading.Lock()
        self._monitor = MobilityMonitor(
            areas, radius_km, window_seconds, **monitor_kwargs
        )
        self._accepted = 0
        self._dropped_stale = 0

    @staticmethod
    def parse_tweet(record: dict) -> Tweet:
        """Build a validated :class:`Tweet` from one JSON object.

        Delegates to the canonical
        :func:`~repro.data.schema.parse_tweet_record`, so HTTP clients
        see exactly the error messages the batch file loaders produce.
        Raises :class:`~repro.data.schema.SchemaError` on missing or
        out-of-range fields.
        """
        return parse_tweet_record(record)

    @property
    def world(self) -> World:
        """The monitored area system."""
        return self._monitor.world

    def ingest(self, tweets: Sequence[Tweet] | LabelledBatch) -> IngestResult:
        """Push one batch through the monitor, oldest first.

        Takes the endpoint's :class:`~repro.core.label.LabelledBatch`
        (sorted and labelled once, shared with the summary store) or a
        ``Tweet`` list, which is sorted and labelled here.  Rows behind
        the monitor's high-water mark — a prefix of the sorted batch,
        found by one binary search — are dropped (counted, not an error).
        """
        if not isinstance(tweets, LabelledBatch):
            batch = TweetBatch.from_tweets(tweets).sorted_by_time()
            tweets = label_batch(self.world, batch)
        with self._lock:
            kept = tweets.not_before(self._monitor.counter.latest)
            dropped = len(tweets) - len(kept)
            accepted = len(kept)
            anomalies = len(self._monitor.push_batch(kept))
            self._accepted += accepted
            self._dropped_stale += dropped
        return IngestResult(
            accepted=accepted, dropped_stale=dropped, anomalies_raised=anomalies
        )

    def anomalies(self) -> list[FlowAnomaly]:
        """Every anomaly raised so far (consistent with complete batches)."""
        with self._lock:
            return self._monitor.anomalies

    def check_now(self) -> list[FlowAnomaly]:
        """Force an anomaly check at the current stream time."""
        with self._lock:
            return self._monitor.check_now()

    def stats(self) -> dict:
        """Ingest counters plus current window state."""
        with self._lock:
            monitor = self._monitor
            return {
                "accepted": self._accepted,
                "dropped_stale": self._dropped_stale,
                "window_transitions": monitor.counter.total_transitions,
                "checks_done": monitor._checks_done,
                "anomalies_total": len(monitor._anomalies),
                "has_windowed_fit": monitor.latest_fit is not None,
            }
