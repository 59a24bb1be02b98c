"""Tweet and user record types, and the canonical record parser.

A geo-tagged tweet, for the purposes of this study, is four numbers: who
sent it, when, and where (latitude/longitude).  The paper uses no text or
social-graph features, so neither do we.

:func:`parse_tweet_record` is the single parser every ingress shares —
the CSV/JSONL readers in :mod:`repro.data.io` and the HTTP ingest
endpoint in ``repro.serve`` — so a malformed ``lat``/``lon``/``timestamp``
produces the same :class:`SchemaError` message no matter which door the
record came through.  :func:`parse_tweet_batch` is its columnar form for
whole request bodies: it fills a :class:`TweetBatch` of numpy columns
directly and defers to :func:`parse_tweet_record` for any record it
cannot take, so the accepted inputs and the error messages are the same.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from repro.geo.coords import (
    Coordinate,
    CoordinateError,
    validate_latitude,
    validate_longitude,
)


class SchemaError(ValueError):
    """Raised when a record's fields are out of range or inconsistent."""


@dataclass(frozen=True, slots=True)
class Tweet:
    """One geo-tagged tweet.

    Attributes
    ----------
    user_id:
        Non-negative integer identifying the author.
    timestamp:
        Posting time as Unix seconds (float; sub-second precision kept).
    lat, lon:
        Geo-tag in decimal degrees; validated and longitude-normalised.
    tweet_id:
        Optional unique id; ``-1`` means "not assigned".
    """

    user_id: int
    timestamp: float
    lat: float
    lon: float
    tweet_id: int = -1

    def __post_init__(self) -> None:
        if self.user_id < 0:
            raise SchemaError(f"user_id must be non-negative, got {self.user_id}")
        if not math.isfinite(self.timestamp):
            raise SchemaError(f"timestamp must be finite, got {self.timestamp!r}")
        object.__setattr__(self, "lat", validate_latitude(self.lat))
        object.__setattr__(self, "lon", validate_longitude(self.lon))

    @property
    def coordinate(self) -> Coordinate:
        """The geo-tag as a :class:`~repro.geo.coords.Coordinate`."""
        return Coordinate(lat=self.lat, lon=self.lon)


_MISSING = object()


def _convert_field(
    record: Mapping[str, Any],
    name: str,
    converter: Callable[[Any], Any],
    default: Any = _MISSING,
) -> Any:
    value = record.get(name, _MISSING)
    if value is _MISSING:
        if default is not _MISSING:
            return default
        raise SchemaError(f"tweet missing field {name!r}")
    try:
        return converter(value)
    except (TypeError, ValueError) as exc:
        raise SchemaError(
            f"tweet field {name!r} is invalid: {value!r} ({exc})"
        ) from exc


def parse_tweet_record(record: Mapping[str, Any]) -> Tweet:
    """Build a validated :class:`Tweet` from one mapping (JSON object, CSV row).

    The canonical ingress parser: missing fields, unconvertible values
    and out-of-range coordinates/timestamps all raise
    :class:`SchemaError` with a message naming the offending field, so
    batch file loaders and the live ingest endpoint report malformed
    records identically.
    """
    if not isinstance(record, Mapping):
        raise SchemaError(f"tweet must be an object, got {type(record).__name__}")
    user_id = _convert_field(record, "user_id", int)
    timestamp = _convert_field(record, "timestamp", float)
    lat = _convert_field(record, "lat", float)
    lon = _convert_field(record, "lon", float)
    tweet_id = _convert_field(record, "tweet_id", int, default=-1)
    try:
        return Tweet(
            user_id=user_id, timestamp=timestamp, lat=lat, lon=lon, tweet_id=tweet_id
        )
    except CoordinateError as exc:
        raise SchemaError(str(exc)) from exc


class RecordError(SchemaError):
    """A :class:`SchemaError` of one record inside a batch, with its position."""

    def __init__(self, position: int, error: SchemaError) -> None:
        super().__init__(f"[{position}]: {error}")
        self.position = position
        self.error = error


@dataclass(frozen=True)
class TweetBatch:
    """A block of tweets as aligned numpy columns.

    The columnar counterpart of a ``list[Tweet]``: one array per field,
    already validated and longitude-normalised exactly as
    :class:`Tweet` would be.  Live ingest parses each request into one
    batch, sorts it once and hands the same columns to every consumer.
    """

    user_ids: np.ndarray
    timestamps: np.ndarray
    lats: np.ndarray
    lons: np.ndarray
    tweet_ids: np.ndarray

    def __len__(self) -> int:
        return int(self.timestamps.size)

    @classmethod
    def from_tweets(cls, tweets: Sequence[Tweet]) -> "TweetBatch":
        """Columns of already-validated :class:`Tweet` objects, in order."""
        n = len(tweets)
        return cls(
            user_ids=np.fromiter((t.user_id for t in tweets), np.int64, count=n),
            timestamps=np.fromiter((t.timestamp for t in tweets), np.float64, count=n),
            lats=np.fromiter((t.lat for t in tweets), np.float64, count=n),
            lons=np.fromiter((t.lon for t in tweets), np.float64, count=n),
            tweet_ids=np.fromiter((t.tweet_id for t in tweets), np.int64, count=n),
        )

    def take(self, rows: np.ndarray | slice) -> "TweetBatch":
        """The sub-batch at ``rows`` (an index array or a slice)."""
        return TweetBatch(
            user_ids=self.user_ids[rows],
            timestamps=self.timestamps[rows],
            lats=self.lats[rows],
            lons=self.lons[rows],
            tweet_ids=self.tweet_ids[rows],
        )

    def sorted_by_time(self) -> "TweetBatch":
        """The batch in ascending timestamp order; ties keep their order."""
        if np.all(self.timestamps[1:] >= self.timestamps[:-1]):
            return self
        return self.take(np.argsort(self.timestamps, kind="stable"))


def _normalize_longitudes(lons: np.ndarray) -> np.ndarray:
    """Vectorised :func:`~repro.geo.coords.normalize_longitude`.

    ``np.fmod`` is C ``fmod``, as is ``math.fmod``, and the remaining
    steps are the same IEEE operations, so every element equals the
    scalar result bit for bit.
    """
    wrapped = np.fmod(lons + 180.0, 360.0)
    wrapped = np.where(wrapped < 0, wrapped + 360.0, wrapped)
    return wrapped - 180.0


_INT64 = np.iinfo(np.int64)


def _parse_records_one_by_one(records: Sequence[Any]) -> TweetBatch:
    """The per-record path: raises the first bad record's exact error."""
    tweets = []
    for position, record in enumerate(records):
        try:
            tweet = parse_tweet_record(record)
            for name in ("user_id", "tweet_id"):
                value = getattr(tweet, name)
                if not _INT64.min <= value <= _INT64.max:
                    raise SchemaError(f"tweet field {name!r} does not fit in 64 bits: {value!r}")
        except SchemaError as exc:
            raise RecordError(position, exc) from exc
        tweets.append(tweet)
    return TweetBatch.from_tweets(tweets)


def parse_tweet_batch(records: Sequence[Any]) -> TweetBatch:
    """Parse a list of tweet objects straight into a :class:`TweetBatch`.

    Accepts exactly what :func:`parse_tweet_record` accepts, record by
    record: fields go through the same ``int``/``float`` converters and
    the range checks run vectorised over the columns.  When any record
    fails them, the batch is re-parsed record by record, so the error is
    :func:`parse_tweet_record`'s own, raised as a :class:`RecordError`
    that names the record's position.
    """
    try:
        user_ids = np.array([int(r["user_id"]) for r in records], dtype=np.int64)
        timestamps = np.array([float(r["timestamp"]) for r in records], dtype=np.float64)
        lats = np.array([float(r["lat"]) for r in records], dtype=np.float64)
        lons = np.array([float(r["lon"]) for r in records], dtype=np.float64)
        tweet_ids = np.array(
            [int(r["tweet_id"]) if "tweet_id" in r else -1 for r in records],
            dtype=np.int64,
        )
    except (KeyError, TypeError, ValueError, OverflowError):
        return _parse_records_one_by_one(records)
    valid = (
        (user_ids >= 0)
        & np.isfinite(timestamps)
        & (lats >= -90.0)
        & (lats <= 90.0)
        & np.isfinite(lons)
    )
    if not valid.all():
        return _parse_records_one_by_one(records)
    return TweetBatch(
        user_ids=user_ids,
        timestamps=timestamps,
        lats=lats,
        lons=_normalize_longitudes(lons),
        tweet_ids=tweet_ids,
    )


@dataclass(frozen=True, slots=True)
class UserSummary:
    """Aggregate view of one user's activity in a corpus.

    Produced by :meth:`repro.data.corpus.TweetCorpus.user_summaries`;
    the fields mirror the per-user columns of Table I.
    """

    user_id: int
    n_tweets: int
    first_timestamp: float
    last_timestamp: float
    n_distinct_locations: int

    @property
    def active_span_seconds(self) -> float:
        """Seconds between the user's first and last tweet."""
        return self.last_timestamp - self.first_timestamp


@dataclass(frozen=True, slots=True)
class CorpusStats:
    """Corpus-level statistics — the row of Table I.

    ``avg_waiting_time_hours`` is the mean time interval between a user's
    consecutive tweets, averaged over all consecutive pairs in the corpus;
    ``avg_locations_per_user`` counts distinct (rounded) geo-tags.
    """

    n_tweets: int
    n_users: int
    avg_tweets_per_user: float
    avg_waiting_time_hours: float
    avg_locations_per_user: float
    min_lat: float = field(default=float("nan"))
    max_lat: float = field(default=float("nan"))
    min_lon: float = field(default=float("nan"))
    max_lon: float = field(default=float("nan"))
    first_timestamp: float = field(default=float("nan"))
    last_timestamp: float = field(default=float("nan"))
