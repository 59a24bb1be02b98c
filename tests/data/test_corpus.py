"""Tests for repro.data.corpus."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.corpus import TweetCorpus
from repro.data.schema import Tweet
from repro.geo.bbox import BoundingBox


def _tweet(user, ts, lat=-33.0, lon=151.0, tid=-1):
    return Tweet(user_id=user, timestamp=float(ts), lat=lat, lon=lon, tweet_id=tid)


@pytest.fixture
def tiny_corpus():
    """Two users; user 1 has 3 tweets 1 h apart, user 2 has 2 tweets."""
    tweets = [
        _tweet(1, 3600.0, lat=-33.0),
        _tweet(1, 0.0, lat=-33.0),
        _tweet(1, 7200.0, lat=-34.0),
        _tweet(2, 100.0, lat=-35.0),
        _tweet(2, 200.0, lat=-35.0),
    ]
    return TweetCorpus.from_tweets(tweets)


class TestConstruction:
    def test_sorted_by_user_then_time(self, tiny_corpus):
        assert tiny_corpus.user_ids.tolist() == [1, 1, 1, 2, 2]
        assert tiny_corpus.timestamps.tolist() == [0.0, 3600.0, 7200.0, 100.0, 200.0]

    def test_len_and_users(self, tiny_corpus):
        assert len(tiny_corpus) == 5
        assert tiny_corpus.n_users == 2
        assert tiny_corpus.unique_users.tolist() == [1, 2]

    def test_empty_corpus(self):
        corpus = TweetCorpus.from_tweets([])
        assert len(corpus) == 0
        assert corpus.n_users == 0
        assert corpus.stats().n_tweets == 0

    def test_from_arrays_default_ids(self):
        corpus = TweetCorpus.from_arrays(
            user_ids=np.array([2, 1]),
            timestamps=np.array([1.0, 2.0]),
            lats=np.zeros(2),
            lons=np.zeros(2),
        )
        assert len(corpus) == 2
        assert corpus.user_ids.tolist() == [1, 2]

    def test_mismatched_columns_raise(self):
        with pytest.raises(ValueError):
            TweetCorpus(
                tweet_ids=np.zeros(2, dtype=np.int64),
                user_ids=np.zeros(3, dtype=np.int64),
                timestamps=np.zeros(3),
                lats=np.zeros(3),
                lons=np.zeros(3),
            )

    def test_iter_tweets_roundtrip(self, tiny_corpus):
        back = TweetCorpus.from_tweets(tiny_corpus.iter_tweets())
        assert np.array_equal(back.timestamps, tiny_corpus.timestamps)
        assert np.array_equal(back.user_ids, tiny_corpus.user_ids)


class TestUserAccess:
    def test_user_slice(self, tiny_corpus):
        sl = tiny_corpus.user_slice(1)
        assert tiny_corpus.timestamps[sl].tolist() == [0.0, 3600.0, 7200.0]

    def test_user_slice_missing_raises(self, tiny_corpus):
        with pytest.raises(KeyError):
            tiny_corpus.user_slice(99)

    def test_tweets_per_user(self, tiny_corpus):
        assert tiny_corpus.tweets_per_user().tolist() == [3, 2]

    def test_users_with_at_least(self, tiny_corpus):
        assert tiny_corpus.users_with_at_least(3) == 1
        assert tiny_corpus.users_with_at_least(2) == 2
        assert tiny_corpus.users_with_at_least(4) == 0


class TestWaitingTimes:
    def test_waiting_times_exclude_cross_user_gaps(self, tiny_corpus):
        waits = tiny_corpus.waiting_times_seconds()
        assert sorted(waits.tolist()) == [100.0, 3600.0, 3600.0]

    def test_single_tweet_corpus_has_no_waits(self):
        corpus = TweetCorpus.from_tweets([_tweet(1, 0.0)])
        assert corpus.waiting_times_seconds().size == 0


class TestLocations:
    def test_distinct_locations_rounding(self, tiny_corpus):
        # User 1 has two distinct rounded positions, user 2 has one.
        locations = tiny_corpus.distinct_locations_per_user()
        assert locations.tolist() == [2, 1]

    def test_user_summaries(self, tiny_corpus):
        summaries = {s.user_id: s for s in tiny_corpus.user_summaries()}
        assert summaries[1].n_tweets == 3
        assert summaries[1].active_span_seconds == 7200.0
        assert summaries[2].n_distinct_locations == 1


def _locations_oracle(corpus: TweetCorpus, round_decimals: int = 4) -> np.ndarray:
    """The per-user ``np.unique(axis=0)`` loop the vectorised count replaced."""
    lats = np.round(corpus.lats, round_decimals)
    lons = np.round(corpus.lons, round_decimals)
    counts = np.empty(corpus.n_users, dtype=np.int64)
    for i, user in enumerate(corpus.unique_users):
        rows = corpus.user_slice(int(user))
        pairs = np.stack([lats[rows], lons[rows]], axis=1)
        counts[i] = np.unique(pairs, axis=0).shape[0]
    return counts


#: Coordinates that collide exactly, round together or apart at 4
#: decimals (the .00005 edges), and both signed zeros.
_EDGE_VALUES = [
    0.0, -0.0, 1e-5, -1e-5, 4.9e-5, -4.9e-5, 5.1e-5, -5.1e-5,
    -33.86785, -33.86784999, -33.86785001, -33.8678, -33.8679,
    151.20732, 151.207315, 151.207325, 151.2073, 151.2074, -180.0, 179.99999,
]
_coordinate = st.one_of(
    st.sampled_from(_EDGE_VALUES),
    st.floats(min_value=-90.0, max_value=90.0, allow_nan=False),
)


def _corpus(rows: list[tuple[int, float, float]]) -> TweetCorpus:
    n = len(rows)
    return TweetCorpus.from_arrays(
        user_ids=np.array([r[0] for r in rows], dtype=np.int64),
        timestamps=np.arange(n, dtype=np.float64)[::-1].copy(),
        lats=np.array([r[1] for r in rows], dtype=np.float64),
        lons=np.array([r[2] for r in rows], dtype=np.float64),
    )


class TestLocationsOracle:
    """The one-pass location count equals the per-user ``np.unique`` loop."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 6), _coordinate, _coordinate), max_size=60))
    def test_equals_per_user_unique(self, rows):
        corpus = _corpus(rows)
        expected = _locations_oracle(corpus)
        got = corpus.distinct_locations_per_user()
        assert got.dtype == np.int64
        assert got.tolist() == expected.tolist()
        summaries = corpus.user_summaries()
        assert [s.n_distinct_locations for s in summaries] == expected.tolist()

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 3), _coordinate, _coordinate), max_size=30),
        st.integers(0, 6),
    )
    def test_equals_oracle_at_any_rounding(self, rows, decimals):
        corpus = _corpus(rows)
        assert (
            corpus.distinct_locations_per_user(decimals).tolist()
            == _locations_oracle(corpus, decimals).tolist()
        )

    def test_empty_corpus(self):
        corpus = _corpus([])
        assert corpus.distinct_locations_per_user().shape == (0,)
        assert corpus.distinct_locations_per_user().dtype == np.int64

    def test_single_user(self):
        corpus = _corpus([(7, -33.0, 151.0), (7, -33.0, 151.0), (7, -33.1, 151.0)])
        assert corpus.distinct_locations_per_user().tolist() == [2]

    def test_signed_zeros_are_one_location(self):
        corpus = _corpus([(1, 0.0, -0.0), (1, -0.0, 0.0), (1, 0.0, 0.0), (2, -0.0, -0.0)])
        assert corpus.distinct_locations_per_user().tolist() == [1, 1]
        assert _locations_oracle(corpus).tolist() == [1, 1]

    def test_rounding_merges_and_splits(self):
        # -33.86784999 and -33.86785001 straddle the .00005 edge and
        # round apart; 151.207315 and 151.20732 round together.
        corpus = _corpus([
            (1, -33.86784999, 151.20732),
            (1, -33.86785001, 151.20732),
            (1, -33.86785001, 151.207315),
        ])
        assert corpus.distinct_locations_per_user().tolist() == _locations_oracle(
            corpus
        ).tolist() == [2]

    def test_generated_corpus(self, small_corpus):
        assert np.array_equal(
            small_corpus.distinct_locations_per_user(), _locations_oracle(small_corpus)
        )


class TestStatsAndSubset:
    def test_stats_values(self, tiny_corpus):
        stats = tiny_corpus.stats()
        assert stats.n_tweets == 5
        assert stats.n_users == 2
        assert stats.avg_tweets_per_user == pytest.approx(2.5)
        assert stats.avg_waiting_time_hours == pytest.approx(
            (3600 + 3600 + 100) / 3 / 3600
        )
        assert stats.min_lat == -35.0

    def test_subset_mask(self, tiny_corpus):
        subset = tiny_corpus.subset(tiny_corpus.user_ids == 1)
        assert len(subset) == 3
        assert subset.n_users == 1

    def test_subset_bad_mask_raises(self, tiny_corpus):
        with pytest.raises(ValueError):
            tiny_corpus.subset(np.ones(3, dtype=bool))

    def test_filter_bbox(self, tiny_corpus):
        box = BoundingBox(min_lat=-33.5, max_lat=-30.0, min_lon=150.0, max_lon=152.0)
        kept = tiny_corpus.filter_bbox(box)
        assert len(kept) == 2  # only the two -33.0 tweets


class TestGeneratedCorpus:
    def test_generated_corpus_is_sorted(self, small_corpus):
        same_user = small_corpus.user_ids[1:] == small_corpus.user_ids[:-1]
        deltas = np.diff(small_corpus.timestamps)
        assert np.all(deltas[same_user] >= 0)

    def test_counts_consistent(self, small_corpus):
        assert small_corpus.tweets_per_user().sum() == len(small_corpus)
        assert small_corpus.n_users == 2_000
