"""Backfill: replay a corpus artifact into summary tiles.

The live path grows tiles tweet batch by tweet batch; backfill builds
the same tiles in one vectorised pass over a corpus — the recovery
path when a summary store must cover history that streamed in before
the store existed.

The batch construction reuses the kernel layer end to end: OD labels
come from :func:`~repro.core.label.label_corpus` (the indexed batch
kernel), sparse ε-disc membership from
:func:`~repro.core.label.label_members` (the kernel live ingest labels
each request with), and transition detection
is the vectorised consecutive-pair rule over the corpus's native
``(user, time)`` ordering — so a backfilled tile is **bit-identical**
to the tile the streaming path would have produced from the same
tweets (pinned in ``tests/summary``).

``summary_pipeline`` exposes the build as a cached pipeline task over
the standard corpus task, so repeated backfills of the same corpus
resolve from the artifact store without recomputation;
``repro summary backfill`` is the CLI door.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.core.label import label_corpus, label_members
from repro.core.world import World
from repro.data.corpus import TweetCorpus
from repro.data.gazetteer import Scale
from repro.pipeline.executor import Executor, RunResult
from repro.pipeline.graph import Pipeline
from repro.pipeline.graphs import suite_pipeline
from repro.pipeline.store import ArtifactStore
from repro.pipeline.task import Task, TaskContext
from repro.summary.store import SummaryStore
from repro.summary.tiers import SummaryBucket, TimeTier, bucket_start

#: Rows labelled per membership chunk, bounding the dense kernel's
#: distance matrix on small worlds.
MEMBERSHIP_CHUNK = 65_536

#: Code-version tag of the tile-build task (bump to invalidate caches).
TILES_TASK_VERSION = "1"


@dataclass(frozen=True)
class TileSet:
    """The backfill artifact: minute tiles plus stream-resume state.

    ``last_label`` carries each user's final OD label so a store that
    installs the tiles can keep counting transitions across the
    backfill/live seam.
    """

    scale: str
    radius_km: float
    minutes: tuple[SummaryBucket, ...]
    watermark: float
    last_label: dict[int, int]
    n_tweets: int
    n_transitions: int

    @property
    def span(self) -> tuple[int, int] | None:
        """Covered ``[first_start, last_end)``, or ``None`` when empty."""
        if not self.minutes:
            return None
        return self.minutes[0].start, self.minutes[-1].end


def build_minute_buckets(
    world: World, corpus: TweetCorpus, index=None
) -> TileSet:
    """One vectorised pass from corpus columns to finalized minute tiles.

    The corpus's native ``(user, time)`` ordering is exactly what the
    consecutive-pair transition rule needs; population bucketing only
    needs each row's minute, so no global time sort is required.
    """
    n = len(corpus)
    with obs.span("summary.backfill", tweets=n, areas=world.n_areas):
        labels = label_corpus(world, corpus.lats, corpus.lons, index=index)
        minute_ids = (
            np.floor_divide(corpus.timestamps, TimeTier.MINUTE.span_seconds)
            .astype(np.int64)
            * TimeTier.MINUTE.span_seconds
        )
        buckets: dict[int, SummaryBucket] = {}

        def bucket_for(start: int) -> SummaryBucket:
            bucket = buckets.get(start)
            if bucket is None:
                bucket = SummaryBucket.empty(
                    TimeTier.MINUTE, int(start), world.n_areas
                )
                buckets[int(start)] = bucket
            return bucket

        # Population: each tweet counts toward every containing ε-disc,
        # attributed to its own minute.  Membership is computed in row
        # chunks to bound the kernel's working set.
        user_ids = corpus.user_ids.tolist()
        minutes = minute_ids.tolist()
        for chunk_start in range(0, n, MEMBERSHIP_CHUNK):
            chunk = slice(chunk_start, min(chunk_start + MEMBERSHIP_CHUNK, n))
            _labels, indptr, areas = label_members(
                world, corpus.lats[chunk], corpus.lons[chunk]
            )
            indptr = indptr.tolist()
            areas = areas.tolist()
            for offset in range(chunk.stop - chunk_start):
                row = chunk_start + offset
                bucket = bucket_for(minutes[row])
                bucket.population.add(
                    areas[indptr[offset] : indptr[offset + 1]], user_ids[row]
                )
                bucket.n_tweets += 1

        # OD: vectorised consecutive-pair transitions, attributed to the
        # arriving tweet's minute (the same instant the streaming
        # accumulator records them at).
        n_transitions = 0
        if n >= 2:
            same_user = corpus.user_ids[1:] == corpus.user_ids[:-1]
            src = labels[:-1]
            dst = labels[1:]
            valid = same_user & (src >= 0) & (dst >= 0) & (src != dst)
            rows = np.nonzero(valid)[0]
            n_transitions = int(rows.size)
            for row in rows:
                bucket = bucket_for(int(minute_ids[row + 1]))
                bucket.od_counts[(int(src[row]), int(dst[row]))] += 1

        # Each user's final label seeds the live stream's OD position.
        last_label: dict[int, int] = {}
        if n:
            boundaries = np.nonzero(
                corpus.user_ids[1:] != corpus.user_ids[:-1]
            )[0]
            last_rows = np.append(boundaries, n - 1)
            last_label = {
                int(corpus.user_ids[row]): int(labels[row])
                for row in last_rows
            }
        watermark = float(corpus.timestamps.max()) if n else float("-inf")
    return TileSet(
        scale="custom",
        radius_km=world.radius_km,
        minutes=tuple(buckets[start] for start in sorted(buckets)),
        watermark=watermark,
        last_label=last_label,
        n_tweets=n,
        n_transitions=n_transitions,
    )


def _task_summary_tiles(ctx: TaskContext) -> TileSet:
    scale = Scale(ctx.params["scale"])
    world = World.from_scale(scale, gazetteer=ctx.params.get("gazetteer"))
    corpus = ctx.input("corpus")
    tiles = build_minute_buckets(world, corpus, index=ctx.input("index"))
    return TileSet(
        scale=scale.value,
        radius_km=tiles.radius_km,
        minutes=tiles.minutes,
        watermark=tiles.watermark,
        last_label=tiles.last_label,
        n_tweets=tiles.n_tweets,
        n_transitions=tiles.n_transitions,
    )


def summary_pipeline(
    config=None,
    corpus_path: str | None = None,
    scale: Scale = Scale.NATIONAL,
    gazetteer: str | None = None,
) -> Pipeline:
    """Corpus → index → minute tiles as a cached task DAG.

    Reuses the suite's corpus and index tasks (same cache keys, so a
    piped corpus is a hit here and vice versa) and adds the tile build,
    keyed by the corpus digest, the scale, and the gazetteer spec.
    """
    if gazetteer is None:
        gazetteer = config.gazetteer if config is not None else "legacy"
    base = suite_pipeline(config=config, corpus_path=corpus_path)
    pipeline = Pipeline([base.task("corpus"), base.task("index")])
    pipeline.add(
        Task(
            name="summary_tiles",
            fn=_task_summary_tiles,
            deps=("corpus", "index"),
            params={"scale": scale.value, "gazetteer": gazetteer},
            version=TILES_TASK_VERSION,
        )
    )
    pipeline.validate()
    return pipeline


def backfill_summary(
    store: ArtifactStore,
    summary: SummaryStore,
    config=None,
    corpus_path: str | None = None,
    scale: Scale = Scale.NATIONAL,
    jobs: int = 1,
    force: bool = False,
    gazetteer: str | None = None,
) -> tuple[TileSet, int, RunResult]:
    """Build (or cache-resolve) tiles and install them into a store.

    Returns ``(tileset, tiles_installed, run)``; after this the summary
    store answers windowed queries over the corpus span and every
    finalized tile is persisted for restart recovery.
    """
    pipeline = summary_pipeline(
        config=config, corpus_path=corpus_path, scale=scale, gazetteer=gazetteer
    )
    executor = Executor(store=store, jobs=jobs, force=force)
    run = executor.run(pipeline, targets=("summary_tiles",))
    tiles: TileSet = run.artifact("summary_tiles")
    installed = summary.install_minutes(
        tiles.minutes, tiles.watermark, last_label=tiles.last_label
    )
    return tiles, installed, run
