"""Incremental population and mobility counters.

Both counters consume a time-ordered tweet stream and maintain, at every
instant, exactly what the batch pipelines would compute over the
current window:

* :class:`OnlinePopulationCounter` ≡
  :func:`repro.extraction.population.extract_area_observations`
  (tweets and unique users within ε of each area centre);
* :class:`OnlineMobilityCounter` ≡
  :func:`repro.extraction.mobility.extract_od_flows`
  (consecutive-pair transitions between labelled areas).

Labelling and counting are the kernel layer's — :mod:`repro.core` — so
the equivalences are structural: the stream runs the same vectorised
arithmetic as the batch extractors (the old scalar per-tweet linear
scan, whose float sequence could drift from the batch path at disc
boundaries, is gone).  ``push`` ingests one tweet; ``push_batch``
ingests a time-ordered batch labelled once by
:func:`repro.core.label.label_batch` (labels plus sparse ε-membership,
dense below :data:`~repro.core.label.DENSE_AREA_THRESHOLD` areas and
grid-indexed above).  :meth:`OnlineMobilityCounter.push_batch` also
takes an already-labelled batch — the ingest endpoint's path, which
labels a request once for the monitor and the summary store.  The
equivalences are asserted in the test suite by replaying corpora
through the counters with an infinite window.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.accumulate import ODAccumulator, PopulationAccumulator
from repro.core.label import LabelledBatch, containing_areas, label_batch, label_point
from repro.core.world import World
from repro.data.gazetteer import Area
from repro.data.schema import Tweet, TweetBatch
from repro.stream.window import SlidingWindow, StreamOrderError


def _as_world(areas: Sequence[Area] | World, radius_km: float) -> World:
    if isinstance(areas, World):
        return areas
    if radius_km <= 0:
        raise ValueError(f"radius must be positive, got {radius_km}")
    return World.from_areas(areas, radius_km)


class OnlinePopulationCounter:
    """Windowed per-area tweet and unique-user counts.

    ``push`` each tweet in time order (or ``push_batch`` ordered
    batches); read :meth:`tweet_counts` / :meth:`user_counts` at any
    time for the current window's values.
    """

    def __init__(
        self,
        areas: Sequence[Area] | World,
        radius_km: float = 0.0,
        window_seconds: float = float("inf"),
    ) -> None:
        self.world = _as_world(areas, radius_km)
        self.areas = self.world.areas
        self.radius_km = self.world.radius_km
        self._window = (
            SlidingWindow(window_seconds) if np.isfinite(window_seconds) else None
        )
        self._population = PopulationAccumulator(self.world.n_areas)

    def _labels(self, tweet: Tweet) -> np.ndarray:
        """Every area whose ε-disc contains the tweet.

        Overlapping discs each count the tweet — matching the batch
        extractor, where each area's radius query is independent.
        """
        return containing_areas(self.world, tweet.lat, tweet.lon)

    def push(self, tweet: Tweet) -> None:
        """Ingest one tweet (and expire anything that left the window)."""
        self._population.add(self._labels(tweet), tweet.user_id)
        if self._window is not None:
            for expired in self._window.push(tweet):
                self._remove(expired)

    def push_batch(self, tweets: Sequence[Tweet]) -> None:
        """Ingest a time-ordered batch with one sparse membership pass.

        Equivalent to ``push`` per tweet — membership is a pure function
        of the coordinates — but one :func:`~repro.core.label.label_batch`
        call covers the whole batch.
        """
        if not tweets:
            return
        block = label_batch(self.world, TweetBatch.from_tweets(tweets))
        for row, tweet in enumerate(tweets):
            self._population.add(block.members(row).tolist(), tweet.user_id)
            if self._window is not None:
                for expired in self._window.push(tweet):
                    self._remove(expired)

    def _remove(self, tweet: Tweet) -> None:
        self._population.remove(self._labels(tweet), tweet.user_id)

    def tweet_counts(self) -> np.ndarray:
        """Tweets per area in the current window."""
        return self._population.tweet_counts()

    def user_counts(self) -> np.ndarray:
        """Unique users per area in the current window."""
        return self._population.user_counts()


class OnlineMobilityCounter:
    """Windowed OD transition counts from a tweet stream.

    A transition is recorded when a user's consecutive tweets carry two
    different area labels; the transition timestamp is the second
    tweet's.  Unlabelled tweets (outside every disc) still advance the
    user's position — they break adjacency exactly as in the batch
    extractor.
    """

    def __init__(
        self,
        areas: Sequence[Area] | World,
        radius_km: float = 0.0,
        window_seconds: float = float("inf"),
    ) -> None:
        self.world = _as_world(areas, radius_km)
        self.areas = self.world.areas
        self.radius_km = self.world.radius_km
        self.window_seconds = float(window_seconds)
        self._flows = ODAccumulator(self.world.n_areas)
        self._latest = float("-inf")

    def push(self, tweet: Tweet) -> None:
        """Ingest one tweet in time order, labelled by :func:`label_point`.

        The scalar form of the same kernel arithmetic — one vectorised
        call over the centres instead of a one-row batch — so a
        tweet-at-a-time stream does not pay the batch set-up per tweet.
        """
        if tweet.timestamp < self._latest:
            raise StreamOrderError(
                f"tweet at {tweet.timestamp} pushed after {self._latest}"
            )
        self._latest = tweet.timestamp
        label = label_point(self.world, tweet.lat, tweet.lon)
        self._flows.observe(tweet.user_id, label, tweet.timestamp)
        self._expire(tweet.timestamp)

    def push_batch(self, tweets: Sequence[Tweet] | LabelledBatch) -> None:
        """Ingest a time-ordered batch, labelled once.

        Takes a :class:`~repro.core.label.LabelledBatch` as the ingest
        endpoint builds it, or a ``Tweet`` list, which is labelled here
        in one :func:`~repro.core.label.label_batch` call.  Labels depend
        only on coordinates, so labelling up front and then applying the
        rows in order behaves exactly as a ``push`` per tweet.
        Transitions are recorded row by row; window expiry runs once at
        the end, which leaves the same state as expiring after every
        row because expiry cutoffs only grow and nothing reads the
        counts in between.
        """
        if not isinstance(tweets, LabelledBatch):
            if not tweets:
                return
            tweets = label_batch(self.world, TweetBatch.from_tweets(tweets))
        block = tweets
        block.require_world(self.world)
        if not len(block):
            return
        timestamps = block.timestamps
        if timestamps[0] < self._latest or np.any(timestamps[1:] < timestamps[:-1]):
            raise StreamOrderError(
                f"batch starting at {timestamps[0]} is out of order "
                f"(stream at {self._latest})"
            )
        observe = self._flows.observe
        for user_id, label, timestamp in zip(
            block.tweets.user_ids.tolist(), block.labels.tolist(), timestamps.tolist()
        ):
            observe(user_id, label, timestamp)
        self._latest = float(timestamps[-1])
        self._expire(self._latest)

    @property
    def latest(self) -> float:
        """Newest stream time seen (-inf before any tweet)."""
        return self._latest

    def advance_to(self, now: float) -> None:
        """Expire old transitions without ingesting a tweet."""
        if now < self._latest:
            raise StreamOrderError(f"cannot move time backwards to {now}")
        self._latest = now
        self._expire(now)

    def _expire(self, now: float) -> None:
        if not np.isfinite(self.window_seconds):
            return
        self._flows.expire_until(now - self.window_seconds)

    def flow_matrix(self) -> np.ndarray:
        """Transition counts in the current window, as a dense matrix."""
        return self._flows.flow_matrix()

    def flow_pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(source, dest, count)`` of the window's non-zero pairs, row-major."""
        return self._flows.flow_pairs()

    @property
    def total_transitions(self) -> int:
        """Total transitions currently in the window."""
        return self._flows.total_transitions
