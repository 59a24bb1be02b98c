"""Labelling kernels: dense, indexed and scalar paths must agree exactly."""

import numpy as np
import pytest

from repro.core.label import (
    DEFAULT_MICRO_BATCH,
    MicroBatchLabeler,
    build_index,
    containing_areas,
    count_population,
    label_batch,
    label_corpus,
    label_point,
    label_points,
    membership_points,
    point_area_distances,
)
from repro.core.world import World
from repro.data.gazetteer import Area, Scale, areas_for_scale
from repro.data.schema import Tweet, TweetBatch
from repro.geo.coords import Coordinate
from repro.geo.index import BruteForceIndex, GridIndex

WORLD = World.from_scale(Scale.NATIONAL)


def _scatter(n, seed=7, spread=3.0):
    """Random points clustered around the national centres."""
    rng = np.random.default_rng(seed)
    anchors = rng.integers(0, WORLD.n_areas, size=n)
    lats = WORLD.centers_lat[anchors] + rng.normal(0.0, spread, size=n)
    lons = WORLD.centers_lon[anchors] + rng.normal(0.0, spread, size=n)
    return np.clip(lats, -89.0, 89.0), lons


class TestKernelAgreement:
    def test_dense_equals_indexed_equals_scalar(self):
        lats, lons = _scatter(500)
        dense = label_points(WORLD, lats.copy(), lons.copy())
        indexed = label_corpus(WORLD, lats, lons)
        scalar = np.array(
            [label_point(WORLD, lat, lon) for lat, lon in zip(lats, lons)]
        )
        assert np.array_equal(dense, indexed)
        assert np.array_equal(dense, scalar)

    def test_orientation_swap_is_bitwise_exact(self):
        """The scalar path's swapped haversine orientation loses nothing.

        ``label_point`` computes centres->point while the dense kernel
        computes points->centre per area; haversine is symmetric and the
        vectorised arithmetic sequences match, so the distances are
        bit-identical — the drift the old per-tweet scan suffered from.
        """
        lats, lons = _scatter(64, seed=11)
        dense = point_area_distances(WORLD, lats, lons)
        for row, (lat, lon) in enumerate(zip(lats, lons)):
            swapped = WORLD.distances_to_point(float(lat), float(lon))
            assert np.array_equal(dense[row], swapped)

    def test_prebuilt_index_paths_agree(self):
        lats, lons = _scatter(300, seed=3)
        brute = label_corpus(WORLD, lats, lons, index=BruteForceIndex(lats, lons))
        grid = label_corpus(WORLD, lats, lons, index=GridIndex(lats, lons))
        assert np.array_equal(brute, grid)


class TestSemantics:
    def test_tie_breaks_to_earlier_area(self):
        left = Area(
            name="left", center=Coordinate(0.0, -1.0), population=10, scale=Scale.METROPOLITAN
        )
        right = Area(
            name="right", center=Coordinate(0.0, 1.0), population=10, scale=Scale.METROPOLITAN
        )
        world = World.from_areas((left, right), 500.0)
        assert label_point(world, 0.0, 0.0) == 0
        assert label_points(world, np.array([0.0]), np.array([0.0]))[0] == 0
        assert label_corpus(world, np.array([0.0]), np.array([0.0]))[0] == 0

    def test_outside_every_disc_is_minus_one(self):
        # The middle of the Indian Ocean is outside every 50 km disc.
        assert label_point(WORLD, -30.0, 80.0) == -1
        labels = label_points(WORLD, np.array([-30.0]), np.array([80.0]))
        assert labels[0] == -1

    def test_containing_areas_vs_membership_matrix(self):
        lats, lons = _scatter(100, seed=5)
        membership = membership_points(WORLD, lats, lons)
        for row, (lat, lon) in enumerate(zip(lats, lons)):
            per_point = containing_areas(WORLD, float(lat), float(lon))
            assert np.array_equal(np.nonzero(membership[row])[0], per_point)

    def test_count_population_counts_overlaps_independently(self):
        # Two coincident discs: every tweet counts toward both.
        a = Area(name="a", center=Coordinate(0.0, 0.0), population=1, scale=Scale.METROPOLITAN)
        b = Area(name="b", center=Coordinate(0.0, 0.0), population=1, scale=Scale.METROPOLITAN)
        world = World.from_areas((a, b), 10.0)
        lats = np.zeros(4)
        lons = np.zeros(4)
        users = np.array([1, 1, 2, 3])
        tweets, unique = count_population(world, lats, lons, users)
        assert np.array_equal(tweets, [4, 4])
        assert np.array_equal(unique, [3, 3])

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="equal-length 1-D"):
            label_points(WORLD, np.zeros((2, 2)), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="different point set"):
            lats, lons = _scatter(10)
            label_corpus(WORLD, lats, lons, index=BruteForceIndex(lats[:5], lons[:5]))


class TestBuildIndex:
    def test_small_sets_use_brute_force(self):
        lats, lons = _scatter(50)
        assert isinstance(build_index(lats, lons), BruteForceIndex)

    def test_large_sets_use_grid(self):
        lats, lons = _scatter(2500)
        assert isinstance(build_index(lats, lons), GridIndex)

    def test_explicit_preference_wins(self):
        lats, lons = _scatter(50)
        assert isinstance(build_index(lats, lons, prefer_grid=True), GridIndex)


class TestMicroBatchLabeler:
    def _tweets(self, n, seed=13):
        lats, lons = _scatter(n, seed=seed)
        return [
            Tweet(user_id=i, timestamp=float(i), lat=float(lat), lon=float(lon))
            for i, (lat, lon) in enumerate(zip(lats, lons))
        ]

    def test_flushes_exactly_at_batch_size(self):
        labeler = MicroBatchLabeler(WORLD, batch_size=4)
        tweets = self._tweets(6)
        out = []
        for tweet in tweets:
            out.extend(labeler.add(tweet))
        assert len(out) == 4  # one full batch flushed
        assert len(labeler) == 2
        out.extend(labeler.flush())
        assert [t for t, _ in out] == tweets
        assert len(labeler) == 0

    def test_stream_labels_equal_dense_kernel(self):
        tweets = self._tweets(257)
        labeler = MicroBatchLabeler(WORLD, batch_size=32)
        streamed = list(labeler.label_stream(iter(tweets)))
        lats = np.array([t.lat for t in tweets])
        lons = np.array([t.lon for t in tweets])
        expected = label_points(WORLD, lats, lons)
        assert [t for t, _ in streamed] == tweets
        assert np.array_equal([label for _, label in streamed], expected)

    def test_default_batch_size(self):
        assert MicroBatchLabeler(WORLD).batch_size == DEFAULT_MICRO_BATCH

    def test_rejects_non_positive_batch(self):
        with pytest.raises(ValueError, match="batch_size"):
            MicroBatchLabeler(WORLD, batch_size=0)


class TestLabelledBatch:
    def _block(self, n=300):
        lats, lons = _scatter(n, seed=21)
        timestamps = np.sort(np.random.default_rng(3).uniform(0.0, 1000.0, n))
        tweets = [
            Tweet(user_id=i % 17, timestamp=float(t), lat=float(a), lon=float(o))
            for i, (t, a, o) in enumerate(zip(timestamps, lats, lons))
        ]
        return label_batch(WORLD, TweetBatch.from_tweets(tweets))

    def test_labels_and_members_match_the_kernels(self):
        block = self._block()
        tweets = block.tweets
        assert np.array_equal(block.labels, label_points(WORLD, tweets.lats, tweets.lons))
        dense = membership_points(WORLD, tweets.lats, tweets.lons)
        for row in range(len(block)):
            assert block.members(row).tolist() == np.nonzero(dense[row])[0].tolist()

    def test_row_slices_rebase_the_membership(self):
        block = self._block()
        part = block.rows(40, 200)
        assert len(part) == 160
        assert part.member_indptr[0] == 0
        for row in range(len(part)):
            assert np.array_equal(part.members(row), block.members(40 + row))
        assert np.array_equal(part.labels, block.labels[40:200])

    def test_not_before_drops_the_late_prefix(self):
        block = self._block()
        cut = float(block.timestamps[57])
        kept = block.not_before(cut)
        assert len(kept) == len(block) - 57
        assert kept.timestamps[0] == cut
        assert block.not_before(float("-inf")) is block
        assert len(block.not_before(float("inf"))) == 0

    def test_consumers_refuse_another_worlds_labels(self):
        from repro.stream.online import OnlineMobilityCounter
        from repro.summary.store import SummaryStore

        block = self._block(20)
        other = WORLD.with_radius(5.0)
        with pytest.raises(ValueError, match="different area system"):
            SummaryStore(other).ingest(block)
        with pytest.raises(ValueError, match="different area system"):
            OnlineMobilityCounter(other).push_batch(block)
