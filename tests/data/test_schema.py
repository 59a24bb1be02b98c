"""Tests for repro.data.schema."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.schema import (
    CorpusStats,
    RecordError,
    SchemaError,
    Tweet,
    TweetBatch,
    UserSummary,
    parse_tweet_batch,
    parse_tweet_record,
)
from repro.geo.coords import Coordinate


class TestTweet:
    def test_valid_tweet(self):
        t = Tweet(user_id=1, timestamp=1_400_000_000.0, lat=-33.87, lon=151.21)
        assert t.user_id == 1
        assert t.tweet_id == -1

    def test_negative_user_id_raises(self):
        with pytest.raises(SchemaError):
            Tweet(user_id=-1, timestamp=0.0, lat=0.0, lon=0.0)

    def test_non_finite_timestamp_raises(self):
        with pytest.raises(SchemaError):
            Tweet(user_id=0, timestamp=float("nan"), lat=0.0, lon=0.0)

    def test_bad_latitude_raises(self):
        with pytest.raises(ValueError):
            Tweet(user_id=0, timestamp=0.0, lat=99.0, lon=0.0)

    def test_longitude_normalised(self):
        t = Tweet(user_id=0, timestamp=0.0, lat=0.0, lon=190.0)
        assert t.lon == pytest.approx(-170.0)

    def test_coordinate_property(self):
        t = Tweet(user_id=0, timestamp=0.0, lat=-35.0, lon=149.0)
        assert t.coordinate == Coordinate(lat=-35.0, lon=149.0)

    def test_frozen(self):
        t = Tweet(user_id=0, timestamp=0.0, lat=0.0, lon=0.0)
        with pytest.raises(AttributeError):
            t.user_id = 5


class TestParseTweetRecord:
    """The canonical ingress parser shared by file I/O and HTTP ingest."""

    RECORD = {"user_id": 7, "timestamp": 100.5, "lat": -33.9, "lon": 151.2}

    def test_parses_valid_record(self):
        tweet = parse_tweet_record({**self.RECORD, "tweet_id": 42})
        assert tweet == Tweet(
            user_id=7, timestamp=100.5, lat=-33.9, lon=151.2, tweet_id=42
        )

    def test_tweet_id_defaults_to_unassigned(self):
        assert parse_tweet_record(self.RECORD).tweet_id == -1

    def test_converts_string_fields(self):
        record = {"user_id": "7", "timestamp": "100.5", "lat": "-33.9", "lon": "151.2"}
        tweet = parse_tweet_record(record)
        assert tweet.user_id == 7
        assert tweet.lat == pytest.approx(-33.9)

    def test_non_mapping_raises(self):
        with pytest.raises(SchemaError, match="must be an object, got list"):
            parse_tweet_record([1, 2, 3])

    @pytest.mark.parametrize("field", ["user_id", "timestamp", "lat", "lon"])
    def test_missing_field_named_in_error(self, field):
        record = dict(self.RECORD)
        del record[field]
        with pytest.raises(SchemaError, match=f"missing field '{field}'"):
            parse_tweet_record(record)

    @pytest.mark.parametrize(
        "field,value",
        [("lat", "not-a-number"), ("lon", None), ("timestamp", "later"), ("user_id", "x")],
    )
    def test_unconvertible_field_named_in_error(self, field, value):
        record = {**self.RECORD, field: value}
        with pytest.raises(SchemaError, match=f"field '{field}' is invalid"):
            parse_tweet_record(record)

    def test_out_of_range_latitude_wrapped_as_schema_error(self):
        with pytest.raises(SchemaError, match=r"latitude must be in \[-90, 90\]"):
            parse_tweet_record({**self.RECORD, "lat": 95.0})

    def test_matches_ingest_service_parser(self):
        """HTTP ingest and file loaders share one parser (same errors)."""
        from repro.serve.ingest import IngestService

        assert IngestService.parse_tweet(self.RECORD) == parse_tweet_record(
            self.RECORD
        )
        with pytest.raises(SchemaError, match="missing field 'lat'"):
            IngestService.parse_tweet({"user_id": 1, "timestamp": 0.0, "lon": 0.0})


_finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
_record = st.fixed_dictionaries(
    {
        "user_id": st.integers(min_value=0, max_value=2**40),
        "timestamp": _finite,
        "lat": st.floats(min_value=-90.0, max_value=90.0),
        "lon": st.floats(min_value=-1e6, max_value=1e6),
    },
    optional={"tweet_id": st.integers(min_value=-1, max_value=2**40)},
)


class TestParseTweetBatch:
    RECORD = {"user_id": 7, "timestamp": 100.5, "lat": -33.9, "lon": 151.2}

    @given(records=st.lists(_record, min_size=1, max_size=20))
    @settings(max_examples=80, deadline=None)
    def test_columns_equal_per_record_parse(self, records):
        """Same values bit for bit, longitude normalisation included."""
        batch = parse_tweet_batch(records)
        expected = TweetBatch.from_tweets([parse_tweet_record(r) for r in records])
        for name in ("user_ids", "timestamps", "lats", "lons", "tweet_ids"):
            got, want = getattr(batch, name), getattr(expected, name)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes(), name

    def test_string_fields_convert_like_the_record_parser(self):
        record = {"user_id": "7", "timestamp": "100.5", "lat": "-33.9", "lon": "190"}
        batch = parse_tweet_batch([record])
        assert batch.user_ids.tolist() == [7]
        assert batch.lons.tolist() == [parse_tweet_record(record).lon]

    @pytest.mark.parametrize(
        "bad",
        [
            {"user_id": 1, "timestamp": 0.0, "lon": 0.0},
            {"user_id": -1, "timestamp": 0.0, "lat": 0.0, "lon": 0.0},
            {"user_id": 1, "timestamp": float("nan"), "lat": 0.0, "lon": 0.0},
            {"user_id": 1, "timestamp": 0.0, "lat": 95.0, "lon": 0.0},
            {"user_id": 1, "timestamp": 0.0, "lat": 0.0, "lon": float("inf")},
            {"user_id": "x", "timestamp": 0.0, "lat": 0.0, "lon": 0.0},
            {"user_id": 2**70, "timestamp": 0.0, "lat": 0.0, "lon": 0.0},
            [1, 2, 3],
        ],
    )
    def test_first_bad_record_reported_with_its_position(self, bad):
        records = [self.RECORD, self.RECORD, bad, {"lat": "also bad"}]
        with pytest.raises(RecordError) as info:
            parse_tweet_batch(records)
        assert info.value.position == 2
        if not isinstance(bad, dict) or bad.get("user_id") != 2**70:
            with pytest.raises(SchemaError) as direct:
                parse_tweet_record(bad)
            assert str(info.value.error) == str(direct.value)

    def test_sorted_by_time_is_stable(self):
        records = [
            {**self.RECORD, "user_id": uid, "timestamp": ts}
            for uid, ts in [(1, 5.0), (2, 1.0), (3, 5.0), (4, 1.0)]
        ]
        ordered = parse_tweet_batch(records).sorted_by_time()
        assert ordered.user_ids.tolist() == [2, 4, 1, 3]
        assert np.all(np.diff(ordered.timestamps) >= 0)


class TestUserSummary:
    def test_active_span(self):
        s = UserSummary(
            user_id=1,
            n_tweets=10,
            first_timestamp=100.0,
            last_timestamp=400.0,
            n_distinct_locations=3,
        )
        assert s.active_span_seconds == 300.0


class TestCorpusStats:
    def test_defaults_are_nan(self):
        stats = CorpusStats(
            n_tweets=0,
            n_users=0,
            avg_tweets_per_user=0.0,
            avg_waiting_time_hours=0.0,
            avg_locations_per_user=0.0,
        )
        assert stats.min_lat != stats.min_lat  # NaN
