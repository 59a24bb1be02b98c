"""Shared population and OD accumulation primitives.

The paper's two artefact families — per-area population counts and
consecutive-pair OD flows — are accumulated in three cadences: one
vectorised pass over a sorted corpus (batch), incrementally per tweet
with window expiry (streaming), and batch-with-expiry behind the ingest
endpoint (serving).  The counting *rules* are identical everywhere:

* a tweet adds one to every area whose ε-disc contains it, and its user
  to each such area's unique-user set;
* a transition is recorded when a user's consecutive tweets carry two
  different (non-negative) area labels; unlabelled tweets still advance
  the user's position, breaking adjacency.

This module owns those rules once.  :func:`od_matrix_from_labels` is
the vectorised batch form; :class:`PopulationAccumulator` and
:class:`ODAccumulator` are the incremental forms with exact removal, so
windowed results equal a from-scratch recomputation at every instant
(property-tested in ``tests/core`` and ``tests/test_stream_properties``).
"""

from __future__ import annotations

import heapq
from collections import Counter, deque
from typing import Iterable

import numpy as np


def od_matrix_from_labels(
    user_ids: np.ndarray, labels: np.ndarray, n_areas: int
) -> tuple[np.ndarray, int]:
    """Vectorised consecutive-pair transition counting over sorted rows.

    ``user_ids``/``labels`` must be aligned and sorted by
    ``(user, time)`` — the corpus's native order.  Returns the
    ``(n_areas, n_areas)`` transition matrix and the transition count.
    """
    user_ids = np.asarray(user_ids)
    labels = np.asarray(labels)
    if labels.shape != user_ids.shape:
        raise ValueError("labels must align with user rows")
    if labels.size and labels.max() >= n_areas:
        raise ValueError("label index exceeds number of areas")
    matrix = np.zeros((n_areas, n_areas), dtype=np.int64)
    if user_ids.size < 2:
        return matrix, 0
    same_user = user_ids[1:] == user_ids[:-1]
    src = labels[:-1]
    dst = labels[1:]
    valid = same_user & (src >= 0) & (dst >= 0) & (src != dst)
    np.add.at(matrix, (src[valid], dst[valid]), 1)
    return matrix, int(valid.sum())


class PopulationAccumulator:
    """Incremental per-area tweet and unique-user counts.

    Holds the multiset of users per area so removal (window expiry) is
    exact: a user leaves an area's unique count only when their last
    in-window tweet there expires.  Only areas that hold at least one
    tweet have a multiset, so memory (and a persisted tile's size)
    follows what was counted, not ``n_areas``; an area's tweet count is
    the size of its multiset.
    """

    def __init__(self, n_areas: int) -> None:
        if n_areas < 0:
            raise ValueError(f"n_areas must be non-negative, got {n_areas}")
        self.n_areas = int(n_areas)
        self._users_per_area: dict[int, Counter[int]] = {}

    def __setstate__(self, state: dict) -> None:
        """Unpickle, upgrading the dense layout of older tiles.

        Tiles persisted before the sparse layout hold a list with one
        ``Counter`` per area plus a ``_tweet_counts`` array (always the
        multisets' totals); only the non-empty multisets are kept.
        """
        users = state["_users_per_area"]
        if isinstance(users, list):
            users = {area: counter for area, counter in enumerate(users) if counter}
        self.n_areas = int(state["n_areas"])
        self._users_per_area = users

    def add(self, area_indices: Iterable[int], user_id: int) -> None:
        """Count one tweet toward every containing area."""
        per_area = self._users_per_area
        for index in area_indices:
            users = per_area.get(index)
            if users is None:
                users = per_area[int(index)] = Counter()
            users[user_id] += 1

    def remove(self, area_indices: Iterable[int], user_id: int) -> None:
        """Reverse :meth:`add` for an expired tweet."""
        for index in area_indices:
            users = self._users_per_area[index]
            users[user_id] -= 1
            if users[user_id] <= 0:
                del users[user_id]
                if not users:
                    del self._users_per_area[index]

    def tweet_counts(self) -> np.ndarray:
        """Tweets per area currently accumulated."""
        counts = np.zeros(self.n_areas, dtype=np.int64)
        for index, users in self._users_per_area.items():
            counts[index] = sum(users.values())
        return counts

    def user_counts(self) -> np.ndarray:
        """Unique users per area currently accumulated."""
        counts = np.zeros(self.n_areas, dtype=np.int64)
        for index, users in self._users_per_area.items():
            counts[index] = len(users)
        return counts

    @property
    def total_tweets(self) -> int:
        """Total tweet-area memberships currently accumulated."""
        return sum(sum(users.values()) for users in self._users_per_area.values())

    def snapshot(self) -> "PopulationAccumulator":
        """An independent deep copy of the current state.

        The copy shares nothing mutable with the source, so a finalized
        summary tile can hold it while the live accumulator keeps
        moving.
        """
        copy = PopulationAccumulator(self.n_areas)
        copy._users_per_area = {
            index: Counter(users) for index, users in self._users_per_area.items()
        }
        return copy

    def merge(self, other: "PopulationAccumulator") -> None:
        """Fold another accumulator's counts into this one.

        Exact for any split of the tweet stream — per-area user
        multisets add, so a user seen by both sides still counts once
        in :meth:`user_counts`.  ``other`` is read, never mutated.
        """
        if other.n_areas != self.n_areas:
            raise ValueError(
                f"cannot merge accumulators over {other.n_areas} areas "
                f"into one over {self.n_areas}"
            )
        mine = self._users_per_area
        for index, theirs in other._users_per_area.items():
            users = mine.get(index)
            if users is None:
                mine[index] = Counter(theirs)
            else:
                users.update(theirs)


class ODAccumulator:
    """Incremental OD transition counts with per-user position tracking.

    ``observe`` applies the transition rule to one labelled tweet;
    recorded transitions carry their timestamp so :meth:`expire_until`
    can retire them exactly when a sliding window closes over them.
    Counts are kept sparse, keyed ``source * n_areas + dest`` (so key
    order is row-major matrix order), because a window holds a few
    pairs out of ``n_areas²``.  Stream-order enforcement stays with the
    caller — the accumulator is a pure counting structure.
    """

    def __init__(self, n_areas: int) -> None:
        if n_areas < 0:
            raise ValueError(f"n_areas must be non-negative, got {n_areas}")
        self.n_areas = int(n_areas)
        self._counts: dict[int, int] = {}
        self._last_label: dict[int, int] = {}
        self._events: deque[tuple[float, int]] = deque()

    def observe(self, user_id: int, label: int, timestamp: float) -> bool:
        """Apply one labelled tweet; True when a transition was recorded."""
        previous = self._last_label.get(user_id, -1)
        self._last_label[user_id] = label
        if previous >= 0 and label >= 0 and previous != label:
            key = previous * self.n_areas + label
            self._counts[key] = self._counts.get(key, 0) + 1
            self._events.append((timestamp, key))
            return True
        return False

    def expire_until(self, cutoff: float) -> int:
        """Retire transitions with ``timestamp <= cutoff``; returns count."""
        expired = 0
        counts = self._counts
        while self._events and self._events[0][0] <= cutoff:
            _ts, key = self._events.popleft()
            remaining = counts[key] - 1
            if remaining:
                counts[key] = remaining
            else:
                del counts[key]
            expired += 1
        return expired

    def flow_pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(source, dest, count)`` of every non-zero pair, row-major order."""
        keys = np.fromiter(self._counts.keys(), dtype=np.int64, count=len(self._counts))
        counts = np.fromiter(self._counts.values(), dtype=np.int64, count=len(self._counts))
        order = np.argsort(keys)
        source, dest = np.divmod(keys[order], max(self.n_areas, 1))
        return source, dest, counts[order]

    def flow_matrix(self) -> np.ndarray:
        """Transition counts currently accumulated, as a dense matrix."""
        matrix = np.zeros((self.n_areas, self.n_areas), dtype=np.int64)
        source, dest, counts = self.flow_pairs()
        matrix[source, dest] = counts
        return matrix

    @property
    def total_transitions(self) -> int:
        """Total transitions currently accumulated (one per live event)."""
        return len(self._events)

    def snapshot(self) -> "ODAccumulator":
        """An independent deep copy of the current state."""
        copy = ODAccumulator(self.n_areas)
        copy._counts = dict(self._counts)
        copy._last_label = dict(self._last_label)
        copy._events = deque(self._events)
        return copy

    def merge(self, other: "ODAccumulator") -> None:
        """Fold a *user-disjoint* shard's transitions into this one.

        Sharded ingest partitions the stream by user id, so each
        accumulator owns disjoint per-user positions; merging sums the
        counts and interleaves the timed events so later
        :meth:`expire_until` calls stay exact.  Overlapping user sets
        are rejected — consecutive-pair counting is not associative
        across an arbitrary split of one user's tweets.  ``other`` is
        read, never mutated.
        """
        if other.n_areas != self.n_areas:
            raise ValueError(
                f"cannot merge accumulators over {other.n_areas} areas "
                f"into one over {self.n_areas}"
            )
        shared = self._last_label.keys() & other._last_label.keys()
        if shared:
            raise ValueError(
                f"cannot merge OD accumulators sharing users "
                f"{sorted(shared)[:5]} — shard the stream by user id"
            )
        for key, count in other._counts.items():
            self._counts[key] = self._counts.get(key, 0) + count
        self._last_label.update(other._last_label)
        self._events = deque(heapq.merge(self._events, other._events))
