"""Rolling mobility monitor: refits and anomaly flags on a live stream.

The skeleton of the paper's proposed responsive forecasting system:
consume the tweet stream, keep windowed OD flows, periodically refit
the gravity model, and flag pairs whose current flow deviates from the
long-run baseline — the signal a disease-response team would watch for
(mass movement out of an outbreak city, or a travel-restriction taking
effect).

Every check works on the sparse support — the pairs with a non-zero
windowed flow or baseline — in row-major pair order, so a check costs
what the window holds rather than ``n_areas²``, and its anomalies,
baselines and fits equal the dense formulation bit for bit (pinned
against a dense oracle in ``tests/test_monitor_oracle.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro import obs
from repro.core.label import LabelledBatch, label_batch
from repro.core.world import World
from repro.data.gazetteer import Area
from repro.data.schema import Tweet, TweetBatch
from repro.extraction.mobility import sparse_od_pairs
from repro.models.gravity import FittedGravity, GravityModel
from repro.stream.online import OnlineMobilityCounter


@dataclass(frozen=True, slots=True)
class FlowAnomaly:
    """One OD pair whose windowed flow left its baseline band."""

    source: str
    dest: str
    observed: float
    baseline: float
    ratio: float
    timestamp: float


class MobilityMonitor:
    """Windowed flows + EMA baseline + periodic gravity refits.

    Parameters
    ----------
    areas, radius_km:
        The area system to monitor (typically one gazetteer scale).
    window_seconds:
        Length of the sliding flow window.
    baseline_alpha:
        EMA weight for the per-pair baseline update at each check.
    anomaly_ratio:
        A pair is anomalous when ``flow / baseline`` exceeds this or
        drops below its inverse (with both above ``min_flow``).
    check_interval_seconds:
        How often (in stream time) baselines are updated, anomalies
        collected and the model refit.
    warmup_checks:
        Number of baseline updates before anomalies may be raised — the
        EMA needs a few cycles to learn normal flow volumes.
    """

    def __init__(
        self,
        areas: Sequence[Area] | World,
        radius_km: float,
        window_seconds: float,
        baseline_alpha: float = 0.3,
        anomaly_ratio: float = 3.0,
        min_flow: float = 5.0,
        check_interval_seconds: float | None = None,
        warmup_checks: int | None = None,
    ) -> None:
        if not (0.0 < baseline_alpha <= 1.0):
            raise ValueError("baseline_alpha must be in (0, 1]")
        if anomaly_ratio <= 1.0:
            raise ValueError("anomaly_ratio must exceed 1")
        if warmup_checks is not None and warmup_checks < 1:
            raise ValueError("warmup_checks must be >= 1")
        self.counter = OnlineMobilityCounter(areas, radius_km, window_seconds)
        self.world = self.counter.world
        self.areas = self.counter.areas
        self.baseline_alpha = baseline_alpha
        self.anomaly_ratio = anomaly_ratio
        self.min_flow = min_flow
        self.check_interval = (
            window_seconds / 4.0 if check_interval_seconds is None else check_interval_seconds
        )
        if warmup_checks is None:
            # The window must fill before flows are stationary, and the
            # EMA needs a couple more cycles to track the plateau.
            fill_checks = int(np.ceil(window_seconds / self.check_interval))
            warmup_checks = fill_checks + 2
        self.warmup_checks = warmup_checks
        # EMA baseline, sparse: flat pair keys ``source * n + dest``
        # (ascending) and their non-zero values.
        self._baseline_keys = np.empty(0, dtype=np.int64)
        self._baseline_values = np.empty(0, dtype=np.float64)
        self._checks_done = 0
        self._next_check: float | None = None
        self._anomalies: list[FlowAnomaly] = []
        self._fit_history: list[tuple[float, FittedGravity]] = []

    def push(self, tweet: Tweet) -> list[FlowAnomaly]:
        """Ingest one tweet; returns anomalies raised by this check cycle."""
        self.counter.push(tweet)
        return self._maybe_check(tweet.timestamp)

    def push_batch(self, tweets: Sequence[Tweet] | LabelledBatch) -> list[FlowAnomaly]:
        """Ingest a time-ordered batch; returns all anomalies raised.

        Takes a :class:`~repro.core.label.LabelledBatch` (the ingest
        endpoint's, labelled once for the monitor and the summary store)
        or a ``Tweet`` list, labelled here by
        :func:`~repro.core.label.label_batch`.  The check/refit schedule
        fires exactly as it would under per-tweet ``push`` — checks are
        driven by stream time, not call shape: the counter is fed up to
        (and including) the row that crosses the next check boundary,
        then that check runs.
        """
        if not isinstance(tweets, LabelledBatch):
            if not tweets:
                return []
            tweets = label_batch(self.world, TweetBatch.from_tweets(tweets))
        block = tweets
        anomalies: list[FlowAnomaly] = []
        timestamps = block.timestamps
        n = len(block)
        start = 0
        while start < n:
            if self._next_check is None:
                stop = start + 1
            else:
                ahead = np.searchsorted(timestamps[start:], self._next_check, side="left")
                stop = min(start + int(ahead) + 1, n)
            self.counter.push_batch(block.rows(start, stop))
            anomalies.extend(self._maybe_check(float(timestamps[stop - 1])))
            start = stop
        return anomalies

    def _maybe_check(self, timestamp: float) -> list[FlowAnomaly]:
        if self._next_check is None:
            self._next_check = timestamp + self.check_interval
            return []
        if timestamp < self._next_check:
            return []
        self._next_check = timestamp + self.check_interval
        return self._check(timestamp)

    def check_now(self) -> list[FlowAnomaly]:
        """Force a check cycle at the current stream time.

        Call at end-of-stream (or during quiet spells after
        ``counter.advance_to``) so recently counted flows are examined
        even when no further tweet triggers a scheduled check.
        """
        now = self.counter.latest
        if not np.isfinite(now):
            return []
        self._next_check = now + self.check_interval
        return self._check(now)

    def _check(self, now: float) -> list[FlowAnomaly]:
        n = self.world.n_areas
        with obs.span("stream.monitor.check", checks_done=self._checks_done) as sp:
            source, dest, counts = self.counter.flow_pairs()
            flow_keys = source * n + dest
            support = np.union1d(flow_keys, self._baseline_keys)
            current = np.zeros(support.size, dtype=np.float64)
            current[np.searchsorted(support, flow_keys)] = counts
            baseline = np.zeros(support.size, dtype=np.float64)
            baseline[np.searchsorted(support, self._baseline_keys)] = self._baseline_values
            anomalies: list[FlowAnomaly] = []
            if self._checks_done >= self.warmup_checks:
                with np.errstate(divide="ignore", invalid="ignore"):
                    ratio = np.where(baseline > 0, current / baseline, np.nan)
                flagged = np.nonzero(
                    (np.maximum(current, baseline) >= self.min_flow)
                    & np.isfinite(ratio)
                    & ((ratio >= self.anomaly_ratio) | (ratio <= 1.0 / self.anomaly_ratio))
                )[0]
                for k in flagged:
                    i, j = divmod(int(support[k]), n)
                    anomalies.append(
                        FlowAnomaly(
                            source=self.areas[i].name,
                            dest=self.areas[j].name,
                            observed=float(current[k]),
                            baseline=float(baseline[k]),
                            ratio=float(ratio[k]),
                            timestamp=now,
                        )
                    )
            # Update the EMA baseline after checking, so an anomaly does not
            # instantly launder itself into the baseline.
            alpha = self.baseline_alpha
            updated = (1 - alpha) * baseline + alpha * current
            nonzero = updated != 0
            self._baseline_keys = support[nonzero]
            self._baseline_values = updated[nonzero]
            self._checks_done += 1
            sp.set(pairs=int(support.size), anomalies=len(anomalies))
            self._refit(now, source, dest, counts)
        self._anomalies.extend(anomalies)
        return anomalies

    def _refit(
        self, now: float, source: np.ndarray, dest: np.ndarray, counts: np.ndarray
    ) -> None:
        with obs.span("stream.monitor.refit", pairs=int(counts.size)):
            # Window pairs are all off-diagonal with flow >= 1, so each
            # becomes a fitting pair: too few means no fit, and no need
            # to touch the world's distance matrix yet.
            if counts.size < 8:
                return
            pairs = sparse_od_pairs(self.world, source, dest, counts)
            try:
                fitted = GravityModel(2).fit(pairs)
            except ValueError:
                return
            self._fit_history.append((now, fitted))

    def baseline_matrix(self) -> np.ndarray:
        """The EMA baseline as a dense ``(n, n)`` matrix (diagnostics)."""
        n = self.world.n_areas
        matrix = np.zeros(n * n, dtype=np.float64)
        matrix[self._baseline_keys] = self._baseline_values
        return matrix.reshape(n, n)

    @property
    def anomalies(self) -> list[FlowAnomaly]:
        """All anomalies raised so far."""
        return list(self._anomalies)

    @property
    def latest_fit(self) -> FittedGravity | None:
        """The most recent windowed gravity fit (None until warm)."""
        return self._fit_history[-1][1] if self._fit_history else None

    def gamma_history(self) -> list[tuple[float, float]]:
        """(timestamp, fitted gamma) per refit — drift diagnostics."""
        return [(ts, fit.params.gamma) for ts, fit in self._fit_history]
