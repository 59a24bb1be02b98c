"""Area-labelling kernels: the single source of truth for ε-disc tests.

Three code paths used to decide "which area does this tweet belong to":
vectorised batch labelling in ``repro.extraction.population``, a scalar
per-tweet linear scan in ``repro.stream.online``, and the serving ingest
path on top of that.  The scalar path computed distances with a slightly
different floating-point sequence than the batch path, so boundary and
tie decisions could drift between batch and stream.  This module is now
the only implementation; everything else adapts onto it.

Two kernels cover every cadence:

* :func:`label_corpus` — spatial-index-accelerated labelling of a whole
  corpus (per-area radius queries with pruning); the batch hot path.
* :func:`label_points` — vectorised labelling of coordinate arrays
  (dense for the paper's worlds, grid-indexed at country scale); the
  micro-batch kernel the streaming wrapper flushes through.

Both resolve overlapping ε-discs identically: the tweet belongs to the
*nearest* qualifying centre, ties broken toward the earlier area index,
boundary inclusive (``distance <= ε``).  :class:`MicroBatchLabeler`
wraps :func:`label_points` for streaming consumers that receive tweets
one at a time but want vectorised throughput.

Live ingest labels each batch once with :func:`label_batch`, which
returns the labels together with the sparse (CSR) ε-membership that
population counting needs (:func:`label_members`); the monitor and the
summary store both consume that one :class:`LabelledBatch`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro import obs
from repro.core.world import World
from repro.data.schema import Tweet, TweetBatch
from repro.geo.distance import points_to_point_km

# build_index moved down into repro.geo.index so World can reach it
# without a core-internal cycle; re-exported here for existing callers.
from repro.geo.index import (  # noqa: F401  (re-exports)
    GRID_INDEX_THRESHOLD,
    BruteForceIndex,
    GridIndex,
    build_index,
)

#: Area count above which :func:`label_points` routes through the
#: world's grid-bucketed centre index instead of the dense distance
#: matrix.  The paper's worlds (20–60 areas) stay on the dense kernel —
#: its exact floating-point sequence is pinned by the goldens — while
#: country-scale gazetteers get O(points · candidates) labelling that
#: the equivalence suite proves indistinguishable.
DENSE_AREA_THRESHOLD = 128

#: Default flush size of :class:`MicroBatchLabeler`.  Large enough that
#: the per-batch numpy dispatch cost amortises to well under the cost of
#: one scalar haversine, small enough to keep streaming latency low.
DEFAULT_MICRO_BATCH = 1024


def point_area_distances(world: World, lats: np.ndarray, lons: np.ndarray) -> np.ndarray:
    """Dense ``(n_points, n_areas)`` haversine distance matrix.

    Column ``j`` is computed with the same vectorised call orientation
    as the batch radius queries, so distances are bit-identical to what
    the spatial index filters on.
    """
    lats = np.asarray(lats, dtype=np.float64)
    lons = np.asarray(lons, dtype=np.float64)
    if lats.shape != lons.shape or lats.ndim != 1:
        raise ValueError("lats/lons must be equal-length 1-D arrays")
    out = np.empty((lats.size, world.n_areas), dtype=np.float64)
    for j, area in enumerate(world.areas):
        out[:, j] = _column_distances(world, lats, lons, j)
    return out


def _column_distances(
    world: World, lats: np.ndarray, lons: np.ndarray, area_index: int
) -> np.ndarray:
    center = world.areas[area_index].center
    return points_to_point_km(lats, lons, (center.lat, center.lon))


def label_points(world: World, lats: np.ndarray, lons: np.ndarray) -> np.ndarray:
    """Label coordinate arrays: nearest area within ε, else -1.

    The micro-batch kernel.  Small worlds (≤ :data:`DENSE_AREA_THRESHOLD`
    areas — every paper-scale world) run the dense path: one
    ``(n_points, n_areas)`` distance computation, masked to the ε-discs,
    nearest centre by argmin (first minimum wins, i.e. ties resolve to
    the earlier area — exactly the strict-``<`` update order of the
    index-accelerated batch path).  Country-scale worlds route through
    the world's :class:`~repro.geo.index.CenterGridIndex`, which only
    touches each point's candidate centres; the result is bitwise
    identical to the dense path (argued in the index docstring, proven
    by the hypothesis suite), just asymptotically cheaper.
    """
    lats = np.asarray(lats, dtype=np.float64)
    lons = np.asarray(lons, dtype=np.float64)
    if lats.shape != lons.shape or lats.ndim != 1:
        raise ValueError("lats/lons must be equal-length 1-D arrays")
    if lats.size == 0 or world.n_areas == 0:
        return np.full(lats.size, -1, dtype=np.int64)
    with obs.span("core.label_points", points=int(lats.size), areas=world.n_areas) as sp:
        if world.n_areas > DENSE_AREA_THRESHOLD:
            labels = world.center_grid.label_points(lats, lons)
        else:
            labels = _nearest_within(point_area_distances(world, lats, lons), world.radius_km)
        sp.set(labelled=int((labels >= 0).sum()))
    obs.counter("core.points_labelled", int(lats.size))
    return labels


def label_points_dense(world: World, lats: np.ndarray, lons: np.ndarray) -> np.ndarray:
    """The dense reference kernel, with no index dispatch.

    Used by the equivalence suite and benchmarks as the brute-force
    baseline at any world size; :func:`label_points` is the production
    entry point.
    """
    lats = np.asarray(lats, dtype=np.float64)
    lons = np.asarray(lons, dtype=np.float64)
    if lats.shape != lons.shape or lats.ndim != 1:
        raise ValueError("lats/lons must be equal-length 1-D arrays")
    if lats.size == 0 or world.n_areas == 0:
        return np.full(lats.size, -1, dtype=np.int64)
    return _nearest_within(point_area_distances(world, lats, lons), world.radius_km)


def _nearest_within(distances: np.ndarray, radius_km: float) -> np.ndarray:
    """Masked argmin over a dense distance matrix (overwrites it).

    First minimum wins, so ties resolve to the earlier area; rows with
    no centre within ε label -1.
    """
    outside = distances > radius_km
    distances[outside] = np.inf
    labels = np.argmin(distances, axis=1).astype(np.int64)
    labels[np.all(outside, axis=1)] = -1
    return labels


def label_point(world: World, lat: float, lon: float) -> int:
    """Label one point: nearest area within ε, else -1.

    The scalar convenience over the same kernel arithmetic — a single
    vectorised distance call over the centre columns (haversine is
    symmetric, so the orientation swap is exact; see the kernel tests).
    """
    if world.n_areas == 0:
        return -1
    if world.n_areas > DENSE_AREA_THRESHOLD:
        return world.center_grid.label_point(lat, lon)
    distances = world.distances_to_point(lat, lon)
    nearest = int(np.argmin(distances))
    if distances[nearest] <= world.radius_km:
        return nearest
    return -1


def containing_areas(world: World, lat: float, lon: float) -> np.ndarray:
    """Indices of *every* area whose ε-disc contains the point.

    Population counting — unlike OD labelling — counts a tweet toward
    each overlapping disc independently, matching the batch extractor's
    per-area radius queries.
    """
    if world.n_areas == 0:
        return np.empty(0, dtype=np.int64)
    distances = world.distances_to_point(lat, lon)
    return np.nonzero(distances <= world.radius_km)[0].astype(np.int64)


def membership_points(world: World, lats: np.ndarray, lons: np.ndarray) -> np.ndarray:
    """Dense boolean ``(n_points, n_areas)`` ε-disc membership matrix.

    The reference the equivalence suite checks :func:`label_members`
    against; production paths use the sparse form.
    """
    distances = point_area_distances(world, lats, lons)
    return distances <= world.radius_km


def label_members(
    world: World, lats: np.ndarray, lons: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Labels and sparse ε-membership of coordinate arrays, in one pass.

    Returns ``(labels, indptr, areas)``: ``labels`` equals
    :func:`label_points`, and the areas whose ε-disc contains point
    ``i`` are ``areas[indptr[i]:indptr[i + 1]]`` in ascending order —
    row ``i`` of :func:`membership_points` in CSR form.  Country-scale
    worlds get both from one :class:`~repro.geo.index.CenterGridIndex`
    candidate scan; small worlds compute the dense distance matrix once
    and derive both from it, so the goldens keep their exact arithmetic.
    """
    lats = np.asarray(lats, dtype=np.float64)
    lons = np.asarray(lons, dtype=np.float64)
    if lats.shape != lons.shape or lats.ndim != 1:
        raise ValueError("lats/lons must be equal-length 1-D arrays")
    n = lats.size
    if n == 0 or world.n_areas == 0:
        return (
            np.full(n, -1, dtype=np.int64),
            np.zeros(n + 1, dtype=np.int64),
            np.empty(0, dtype=np.int64),
        )
    with obs.span("core.label_members", points=n, areas=world.n_areas) as sp:
        if world.n_areas > DENSE_AREA_THRESHOLD:
            labels, indptr, areas = world.center_grid.label_members(lats, lons)
        else:
            distances = point_area_distances(world, lats, lons)
            rows, areas = np.nonzero(distances <= world.radius_km)
            indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
            areas = areas.astype(np.int64)
            labels = _nearest_within(distances, world.radius_km)
        sp.set(labelled=int((labels >= 0).sum()), memberships=int(areas.size))
    obs.counter("core.points_labelled", n)
    return labels, indptr, areas


@dataclass(frozen=True)
class LabelledBatch:
    """A time-ordered tweet batch labelled once for every consumer.

    ``labels`` is each row's nearest area within ε (or -1), the OD
    rule's input; the CSR pair ``member_indptr``/``member_areas`` lists
    every area whose ε-disc contains the row, the population rule's
    input.  Both index into ``world``.  Live ingest builds one per
    request (:func:`label_batch`) and hands it to both the mobility
    monitor and the summary store.
    """

    world: World
    tweets: TweetBatch
    labels: np.ndarray
    member_indptr: np.ndarray
    member_areas: np.ndarray

    def __len__(self) -> int:
        return len(self.tweets)

    @property
    def timestamps(self) -> np.ndarray:
        """The rows' timestamps (ascending)."""
        return self.tweets.timestamps

    def members(self, row: int) -> np.ndarray:
        """Areas whose ε-disc contains ``row``."""
        return self.member_areas[self.member_indptr[row] : self.member_indptr[row + 1]]

    def rows(self, start: int, stop: int) -> "LabelledBatch":
        """Rows ``[start, stop)`` as their own batch (column slices are views)."""
        indptr = self.member_indptr[start : stop + 1]
        return LabelledBatch(
            world=self.world,
            tweets=self.tweets.take(slice(start, stop)),
            labels=self.labels[start:stop],
            member_indptr=indptr - indptr[0],
            member_areas=self.member_areas[indptr[0] : indptr[-1]],
        )

    def not_before(self, watermark: float) -> "LabelledBatch":
        """The rows with ``timestamp >= watermark``: the stream's late rule.

        Rows are ascending, so the late ones are a prefix found by one
        binary search.
        """
        start = int(np.searchsorted(self.timestamps, watermark, side="left"))
        return self if start == 0 else self.rows(start, len(self))

    def require_world(self, world: World) -> None:
        """Raise unless the labels index into ``world``'s areas."""
        if self.world != world:
            raise ValueError("batch was labelled over a different area system")


def label_batch(world: World, tweets: TweetBatch) -> LabelledBatch:
    """Label a time-ordered :class:`TweetBatch` once: labels plus membership."""
    labels, indptr, areas = label_members(world, tweets.lats, tweets.lons)
    return LabelledBatch(
        world=world, tweets=tweets, labels=labels, member_indptr=indptr, member_areas=areas
    )


def label_corpus(
    world: World,
    lats: np.ndarray,
    lons: np.ndarray,
    index: GridIndex | BruteForceIndex | None = None,
) -> np.ndarray:
    """Label a full corpus through the spatial index: the batch kernel.

    Per-area radius queries (grid-pruned for large corpora) with a
    running nearest-distance resolution — identical labels to
    :func:`label_points`, asymptotically cheaper for small ε over large
    corpora because each query touches only candidate grid cells.
    """
    lats = np.asarray(lats, dtype=np.float64)
    lons = np.asarray(lons, dtype=np.float64)
    if lats.shape != lons.shape or lats.ndim != 1:
        raise ValueError("lats/lons must be equal-length 1-D arrays")
    if index is None:
        index = build_index(lats, lons)
    if len(index) != lats.size:
        raise ValueError("index was built over a different point set")
    with obs.span(
        "core.label_corpus", points=int(lats.size), areas=world.n_areas,
        radius_km=world.radius_km,
    ) as sp:
        labels = np.full(lats.size, -1, dtype=np.int64)
        best_distance = np.full(lats.size, np.inf, dtype=np.float64)
        for area_index, area in enumerate(world.areas):
            result = index.query_radius(area.center, world.radius_km)
            closer = result.distances_km < best_distance[result.indices]
            rows = result.indices[closer]
            labels[rows] = area_index
            best_distance[rows] = result.distances_km[closer]
        sp.set(labelled=int((labels >= 0).sum()))
    obs.counter("core.points_labelled", int(lats.size))
    obs.counter("core.area_queries", world.n_areas)
    return labels


def count_population(
    world: World,
    lats: np.ndarray,
    lons: np.ndarray,
    user_ids: np.ndarray,
    index: GridIndex | BruteForceIndex | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-area tweet and unique-user counts within ε of each centre.

    The batch population kernel behind
    ``repro.extraction.population.extract_area_observations``: each
    area's ε-disc is queried independently (overlapping discs each
    count the tweet), and the area's "Twitter population" is the number
    of distinct user ids among the hits.

    Returns ``(tweet_counts, user_counts)`` aligned with the world's
    label indices.
    """
    lats = np.asarray(lats, dtype=np.float64)
    lons = np.asarray(lons, dtype=np.float64)
    user_ids = np.asarray(user_ids)
    if index is None:
        index = build_index(lats, lons)
    if len(index) != lats.size:
        raise ValueError("index was built over a different point set")
    tweet_counts = np.zeros(world.n_areas, dtype=np.int64)
    user_counts = np.zeros(world.n_areas, dtype=np.int64)
    with obs.span(
        "core.count_population", points=int(lats.size), areas=world.n_areas,
        radius_km=world.radius_km,
    ) as sp:
        matched = 0
        for area_index, area in enumerate(world.areas):
            result = index.query_radius(area.center, world.radius_km)
            users_here = np.unique(user_ids[result.indices])
            matched += len(result)
            tweet_counts[area_index] = len(result)
            user_counts[area_index] = int(users_here.size)
        sp.set(tweets_matched=matched)
    obs.counter("core.points_labelled", int(lats.size))
    obs.counter("core.area_queries", world.n_areas)
    return tweet_counts, user_counts


class MicroBatchLabeler:
    """Micro-batching adapter from a tweet-at-a-time stream to the kernel.

    Streaming consumers receive tweets one at a time but pay an order of
    magnitude less per label when the dense kernel runs over a batch.
    The labeler buffers tweets and flushes them through
    :func:`label_points` when the buffer fills (or on demand), yielding
    ``(tweet, label)`` pairs in arrival order.

    The labels are pure functions of the coordinates, so batching never
    changes a result — only when it becomes available.  Consumers that
    need a label *synchronously* per tweet use :func:`label_point`
    instead; both run the same arithmetic.
    """

    def __init__(self, world: World, batch_size: int = DEFAULT_MICRO_BATCH) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.world = world
        self.batch_size = int(batch_size)
        self._pending: list[Tweet] = []

    def __len__(self) -> int:
        return len(self._pending)

    def add(self, tweet: Tweet) -> list[tuple[Tweet, int]]:
        """Buffer one tweet; returns flushed pairs when the batch fills."""
        self._pending.append(tweet)
        if len(self._pending) >= self.batch_size:
            return self.flush()
        return []

    def flush(self) -> list[tuple[Tweet, int]]:
        """Label and drain everything buffered, in arrival order."""
        if not self._pending:
            return []
        batch = self._pending
        self._pending = []
        labels = self.label_batch(batch)
        return list(zip(batch, (int(label) for label in labels)))

    def label_batch(self, tweets: Sequence[Tweet]) -> np.ndarray:
        """Label an explicit batch through :func:`label_points`.

        Dense below :data:`DENSE_AREA_THRESHOLD` areas, grid-indexed
        above it; bitwise the same labels either way.
        """
        n = len(tweets)
        lats = np.fromiter((t.lat for t in tweets), np.float64, count=n)
        lons = np.fromiter((t.lon for t in tweets), np.float64, count=n)
        return label_points(self.world, lats, lons)

    def label_stream(
        self, stream: Iterable[Tweet]
    ) -> Iterator[tuple[Tweet, int]]:
        """Label a whole stream in micro-batches, preserving order."""
        for tweet in stream:
            yield from self.add(tweet)
        yield from self.flush()
