"""Summary-store windowed-query benchmark: tiles vs batch recompute.

Builds the multi-resolution tile set over a months-spanning synthetic
corpus, then answers a batch of day-scale ``[t0, t1)`` window queries
two ways:

* **recompute** — the pre-summary path: mask the corpus to the window,
  label the slice, recompute ε-disc membership, per-area unique users
  and consecutive-pair OD from scratch.  O(corpus) per query (the mask
  alone touches every timestamp).
* **tiles** — :meth:`repro.summary.store.SummaryStore.query`, stitching
  the O(buckets-touched) finalized tiles.

Emits a JSON summary (stdout or ``--out``), e.g.::

    python benchmarks/bench_summary.py --users 10000 --out p6.json

The script asserts the acceptance guarantees while measuring: both
paths agree bit-identically on every window (population and flows —
flows via the store's arriving-tweet contract), and the tiled path is
at least :data:`MIN_SPEEDUP`× faster over the query batch.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from repro.core.accumulate import od_matrix_from_labels
from repro.core.label import label_corpus, label_members
from repro.core.world import World
from repro.data.gazetteer import Scale
from repro.summary.backfill import build_minute_buckets
from repro.summary.store import SummaryStore
from repro.summary.tiers import TimeTier, bucket_start
from repro.synth import SynthConfig, generate_corpus

DEFAULT_USERS = 10_000
DEFAULT_SEED = 20150413
DEFAULT_QUERIES = 50

#: Acceptance floor: windowed queries from tiles must beat a per-window
#: batch recompute by at least this factor over the query batch.
MIN_SPEEDUP = 10.0


def _recompute_window(world: World, corpus, q0: int, q1: int) -> dict:
    """From-scratch answer over ``[q0, q1)`` — the pre-summary cost.

    Produces every field a windowed response needs: population counts,
    per-area unique users, and the OD matrix of the slice (labelled
    here, then consecutive-paired over the corpus's (user, time)
    order).
    """
    timestamps = corpus.timestamps
    mask = (timestamps >= q0) & (timestamps < q1)
    rows = np.nonzero(mask)[0]
    lats = corpus.lats[rows]
    lons = corpus.lons[rows]
    users = corpus.user_ids[rows]
    labels, indptr, areas = label_members(world, lats, lons)
    tweet_counts = np.bincount(areas, minlength=world.n_areas)
    members = np.repeat(users, np.diff(indptr))
    user_counts = np.array(
        [len(np.unique(members[areas == a])) for a in range(world.n_areas)],
        dtype=np.int64,
    )
    flows, _ = od_matrix_from_labels(users, labels, world.n_areas)
    return {
        "tweet_counts": tweet_counts,
        "user_counts": user_counts,
        "flows": flows,
        "n_tweets": int(rows.size),
    }


def _reference_flows(
    corpus, labels: np.ndarray, n_areas: int, q0: int, q1: int
) -> np.ndarray:
    """Boundary-exact flows: full-replay pairs, arriving tweet in window."""
    matrix = np.zeros((n_areas, n_areas), dtype=np.int64)
    if len(corpus) < 2:
        return matrix
    same_user = corpus.user_ids[1:] == corpus.user_ids[:-1]
    src = labels[:-1]
    dst = labels[1:]
    arriving = corpus.timestamps[1:]
    valid = (
        same_user & (src >= 0) & (dst >= 0) & (src != dst)
        & (arriving >= q0) & (arriving < q1)
    )
    np.add.at(matrix, (src[valid], dst[valid]), 1)
    return matrix


def run_benchmark(users: int, seed: int, n_queries: int) -> dict:
    """Tile-stitched vs recomputed windowed queries over one corpus."""
    world = World.from_scale(Scale.NATIONAL)
    corpus = generate_corpus(SynthConfig(n_users=users, seed=seed)).corpus

    start = time.perf_counter()
    tiles = build_minute_buckets(world, corpus)
    build_seconds = time.perf_counter() - start
    store = SummaryStore(world)
    # A sentinel past the last tile finalizes (and rolls up) everything.
    store.install_minutes(tiles.minutes, watermark=tiles.minutes[-1].end)

    span = TimeTier.DAY.span_seconds
    first = bucket_start(float(corpus.timestamps.min()), TimeTier.DAY) + span
    last = bucket_start(float(corpus.timestamps.max()), TimeTier.DAY) - span
    rng = np.random.default_rng(seed)
    starts = rng.integers(first // span, last // span, size=n_queries) * span
    windows = [(int(s), int(s) + span) for s in starts]

    start = time.perf_counter()
    tiled = [store.query(q0, q1) for q0, q1 in windows]
    tiled_seconds = time.perf_counter() - start

    start = time.perf_counter()
    recomputed = [_recompute_window(world, corpus, q0, q1) for q0, q1 in windows]
    recompute_seconds = time.perf_counter() - start

    labels = label_corpus(world, corpus.lats, corpus.lons)
    mismatches = 0
    for (q0, q1), a, b in zip(windows, tiled, recomputed):
        flows = _reference_flows(corpus, labels, world.n_areas, q0, q1)
        if not (
            np.array_equal(a.tweet_counts, b["tweet_counts"])
            and np.array_equal(a.user_counts, b["user_counts"])
            and np.array_equal(a.flow_matrix, flows)
            and a.n_tweets == b["n_tweets"]
        ):
            mismatches += 1

    speedup = recompute_seconds / max(tiled_seconds, 1e-9)
    buckets = [t.buckets_touched for t in tiled]

    assert mismatches == 0, f"{mismatches} windows differ between paths"
    assert speedup >= MIN_SPEEDUP, (
        f"tiled windowed-query speedup {speedup:.1f}x below the "
        f"{MIN_SPEEDUP}x floor"
    )

    return {
        "users": users,
        "seed": seed,
        "corpus_tweets": len(corpus),
        "corpus_span_days": round(
            float(corpus.timestamps.max() - corpus.timestamps.min()) / 86400, 1
        ),
        "areas": world.n_areas,
        "minute_tiles": len(tiles.minutes),
        "tile_inventory": store.stats()["tiles"],
        "build_seconds": round(build_seconds, 3),
        "queries": n_queries,
        "window_seconds": span,
        "mean_buckets_touched": round(float(np.mean(buckets)), 1),
        "tiled_seconds": round(tiled_seconds, 4),
        "recompute_seconds": round(recompute_seconds, 4),
        "tiled_queries_per_sec": round(n_queries / max(tiled_seconds, 1e-9)),
        "recompute_queries_per_sec": round(
            n_queries / max(recompute_seconds, 1e-9)
        ),
        "speedup": round(speedup, 1),
        "window_mismatches": mismatches,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--users", type=int, default=DEFAULT_USERS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--queries", type=int, default=DEFAULT_QUERIES)
    parser.add_argument("--out", help="write the JSON summary here (else stdout)")
    args = parser.parse_args(argv)

    summary = run_benchmark(args.users, args.seed, args.queries)

    text = json.dumps(summary, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        print(text)
    return 0


def test_summary_query_speedup():
    """Harness entry: small-scale tiles vs recompute comparison."""
    summary = run_benchmark(users=3_000, seed=DEFAULT_SEED, n_queries=30)
    assert summary["speedup"] >= MIN_SPEEDUP
    assert summary["window_mismatches"] == 0


if __name__ == "__main__":
    raise SystemExit(main())
