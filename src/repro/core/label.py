"""ε-disc labelling: one kernel behind every entry point.

Section III of the paper makes one decision per tweet.  For population,
the tweet counts toward every area whose ε-disc contains it (boundary
inclusive, ``distance <= ε``).  For OD flows, it takes the label of the
*nearest* such area, ties broken toward the earlier area index, or -1
outside every disc.

Every entry point answers from one kernel — the scan of the world's
:class:`~repro.geo.index.CenterGridIndex` — at every world size:

* :func:`label_members` — labels plus the CSR ε-membership;
* :func:`label_points` / :func:`label_point` — labels only;
* :func:`label_batch` — a time-ordered :class:`TweetBatch` labelled once
  into a :class:`LabelledBatch` for the monitor and the summary store;
* :func:`label_corpus` / :func:`count_population` — a whole corpus's
  labels, and its per-area tweet and unique-user counts.

:func:`point_area_distances`, :func:`label_points_dense` and
:func:`membership_points` are the dense ``(n_points, n_areas)``
reference.  No production path calls them; the equivalence suites check
the kernel against them bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.core.world import World
from repro.data.schema import TweetBatch
from repro.geo.distance import points_to_point_km


def _columns(lats: np.ndarray, lons: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    lats = np.asarray(lats, dtype=np.float64)
    lons = np.asarray(lons, dtype=np.float64)
    if lats.shape != lons.shape or lats.ndim != 1:
        raise ValueError("lats/lons must be equal-length 1-D arrays")
    return lats, lons


def label_members(
    world: World, lats: np.ndarray, lons: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Labels and sparse ε-membership of coordinate arrays, in one scan.

    Returns ``(labels, indptr, areas)``: ``labels[i]`` is point ``i``'s
    nearest area within ε (or -1), and the areas whose ε-disc contains
    it are ``areas[indptr[i]:indptr[i + 1]]`` in ascending order — row
    ``i`` of :func:`membership_points` in CSR form.
    """
    lats, lons = _columns(lats, lons)
    n = lats.size
    if n == 0 or world.n_areas == 0:
        return (
            np.full(n, -1, dtype=np.int64),
            np.zeros(n + 1, dtype=np.int64),
            np.empty(0, dtype=np.int64),
        )
    with obs.span("core.label_members", points=n, areas=world.n_areas) as sp:
        labels, indptr, areas = world.center_grid.label_members(lats, lons)
        sp.set(labelled=int((labels >= 0).sum()), memberships=int(areas.size))
    obs.counter("core.points_labelled", n)
    return labels, indptr, areas


def label_points(world: World, lats: np.ndarray, lons: np.ndarray) -> np.ndarray:
    """Label coordinate arrays: nearest area within ε, else -1."""
    return label_members(world, lats, lons)[0]


def label_point(world: World, lat: float, lon: float) -> int:
    """Label one point: a one-row :func:`label_points` scan."""
    return int(label_points(world, np.array([lat]), np.array([lon]))[0])


def label_corpus(world: World, lats: np.ndarray, lons: np.ndarray) -> np.ndarray:
    """Label a whole corpus's coordinate columns (the batch OD input)."""
    return label_points(world, lats, lons)


def count_population(
    world: World, lats: np.ndarray, lons: np.ndarray, user_ids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-area tweet and unique-user counts within ε of each centre.

    Each area's disc counts independently, so a tweet in overlapping
    discs counts toward each; an area's "Twitter population" is the
    number of distinct user ids among its tweets.  Returns
    ``(tweet_counts, user_counts)`` aligned with the world's areas.
    """
    _labels, indptr, areas = label_members(world, lats, lons)
    tweet_counts = np.bincount(areas, minlength=world.n_areas)
    users, user_index = np.unique(np.asarray(user_ids), return_inverse=True)
    n_users = max(int(users.size), 1)
    rows = np.repeat(np.arange(indptr.size - 1), np.diff(indptr))
    keys = np.unique(areas * n_users + user_index[rows])
    user_counts = np.bincount(keys // n_users, minlength=world.n_areas)
    return tweet_counts, user_counts


def point_area_distances(world: World, lats: np.ndarray, lons: np.ndarray) -> np.ndarray:
    """Dense ``(n_points, n_areas)`` haversine distance matrix (reference)."""
    lats, lons = _columns(lats, lons)
    out = np.empty((lats.size, world.n_areas), dtype=np.float64)
    for j, area in enumerate(world.areas):
        out[:, j] = points_to_point_km(lats, lons, (area.center.lat, area.center.lon))
    return out


def label_points_dense(world: World, lats: np.ndarray, lons: np.ndarray) -> np.ndarray:
    """The dense reference labels: masked argmin over the distance matrix.

    First minimum wins, so ties resolve to the earlier area; rows with
    no centre within ε label -1.
    """
    distances = point_area_distances(world, lats, lons)
    if distances.size == 0:
        return np.full(distances.shape[0], -1, dtype=np.int64)
    outside = distances > world.radius_km
    distances[outside] = np.inf
    labels = np.argmin(distances, axis=1).astype(np.int64)
    labels[np.all(outside, axis=1)] = -1
    return labels


def membership_points(world: World, lats: np.ndarray, lons: np.ndarray) -> np.ndarray:
    """Dense boolean ``(n_points, n_areas)`` ε-membership matrix (reference)."""
    return point_area_distances(world, lats, lons) <= world.radius_km


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
