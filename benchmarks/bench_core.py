"""P5 — kernel-layer labelling throughput benchmark.

Replays a time-ordered synthetic tweet stream (~100k tweets at the CLI
default) through two labelling paths:

* **legacy scalar** — the per-tweet linear scan over area centres that
  ``repro.stream.online`` used before the ``repro.core`` kernel layer.
  The implementation is preserved *here only*, as the benchmark
  baseline; the source tree has exactly one labelling implementation.
* **micro-batched** — :func:`repro.core.label.label_points` over
  consecutive ``--batch-size``-row slices of the replay's coordinate
  columns: the kernel scan live ingest runs once per request batch.

Emits a JSON summary (stdout or ``--out``), e.g.::

    python benchmarks/bench_core.py --users 10000 --out BENCH_core.json

Numbers are **machine-normalized** exactly like ``bench_check.py``: a
fixed single-threaded hashing calibration loop is timed first and every
measurement is also reported as a ratio against it, so the committed
``BENCH_core.json`` stays comparable across hosts.  ``--check-against``
turns that committed baseline into a regression gate: the normalized
micro-batched labelling time may not exceed the baseline's by more than
``--slack`` (the second benchmark on the ROADMAP's perf-trajectory
ratchet, after ``bench_check.py``).

The script asserts the acceptance guarantees while measuring: both
paths produce identical labels over the whole replay, and the
micro-batched path is at least :data:`MIN_SPEEDUP`× faster.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.label import label_points
from repro.core.world import World
from repro.data.gazetteer import Scale
from repro.geo.distance import haversine_km
from repro.synth import SynthConfig, generate_corpus

#: ~10 tweets per synthetic user, so 10k users replay ~100k tweets.
DEFAULT_USERS = 10_000
DEFAULT_SEED = 20150413

#: Rows per labelled slice: one live ingest request batch.
DEFAULT_BATCH_SIZE = 1024

#: Acceptance floor: micro-batched labelling must beat the legacy
#: per-tweet scalar path by at least this factor.
MIN_SPEEDUP = 5.0

#: Calibration loop: single-threaded blake2b over this many blocks.
CALIBRATION_BLOCKS = 50_000

#: Default headroom multiplier for the --check-against gate.
DEFAULT_SLACK = 2.0


def calibrate() -> float:
    """Seconds for a fixed single-threaded hash loop on this machine."""
    payload = b"x" * 4096
    start = time.perf_counter()
    digest = b""
    for _ in range(CALIBRATION_BLOCKS):
        digest = hashlib.blake2b(payload + digest, digest_size=16).digest()
    return time.perf_counter() - start


def _legacy_scalar_label(world: World, lat: float, lon: float) -> int:
    """The pre-core per-tweet linear scan (benchmark baseline only).

    Verbatim semantics of the deleted ``stream.online._nearest_area_within``:
    scalar haversine per centre, nearest-within-ε, ties to the earlier
    area.  Kept exclusively in this benchmark as the comparison target.
    """
    best = -1
    best_distance = world.radius_km
    for index, area in enumerate(world.areas):
        distance = haversine_km((lat, lon), (area.center.lat, area.center.lon))
        if distance <= best_distance and (distance < best_distance or best == -1):
            best, best_distance = index, distance
    return best


def run_benchmark(users: int, seed: int, batch_size: int) -> dict:
    """Scalar-vs-micro-batched replay timings plus agreement counters."""
    calibration_seconds = calibrate()
    world = World.from_scale(Scale.NATIONAL)
    corpus = generate_corpus(SynthConfig(n_users=users, seed=seed)).corpus
    order = np.argsort(corpus.timestamps, kind="stable")
    tweets = list(corpus.iter_tweets())
    replay = [tweets[i] for i in order]

    start = time.perf_counter()
    scalar_labels = [
        _legacy_scalar_label(world, tweet.lat, tweet.lon) for tweet in replay
    ]
    scalar_seconds = time.perf_counter() - start

    lats = corpus.lats[order]
    lons = corpus.lons[order]
    start = time.perf_counter()
    micro_labels = np.concatenate([
        label_points(world, lats[i : i + batch_size], lons[i : i + batch_size])
        for i in range(0, lats.size, batch_size)
    ])
    micro_seconds = time.perf_counter() - start

    mismatches = int(
        (np.asarray(scalar_labels) != np.asarray(micro_labels)).sum()
    )
    speedup = scalar_seconds / max(micro_seconds, 1e-9)
    n = len(replay)

    assert mismatches == 0, f"{mismatches} labels differ between paths"
    assert speedup >= MIN_SPEEDUP, (
        f"micro-batched speedup {speedup:.1f}x below the {MIN_SPEEDUP}x floor"
    )

    return {
        "machine": {"calibration_seconds": round(calibration_seconds, 4)},
        "workload": {
            "users": users,
            "seed": seed,
            "replay_tweets": n,
            "areas": world.n_areas,
            "radius_km": world.radius_km,
            "batch_size": batch_size,
        },
        "scalar": {
            "seconds": round(scalar_seconds, 3),
            "normalized": round(scalar_seconds / calibration_seconds, 3),
            "tweets_per_sec": round(n / max(scalar_seconds, 1e-9)),
        },
        "micro_batched": {
            "seconds": round(micro_seconds, 3),
            "normalized": round(micro_seconds / calibration_seconds, 3),
            "tweets_per_sec": round(n / max(micro_seconds, 1e-9)),
        },
        "speedup": round(speedup, 1),
        "label_mismatches": mismatches,
        "labelled_fraction": round(
            float((np.asarray(micro_labels) >= 0).mean()), 4
        ),
    }


def enforce_gate(summary: dict, baseline_path: Path, slack: float) -> None:
    """Fail if the normalized micro-batched time regressed past the slack."""
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    assert summary["workload"]["replay_tweets"] == baseline["workload"]["replay_tweets"], (
        "baseline and measurement replay different workloads "
        f"({baseline['workload']['replay_tweets']} vs "
        f"{summary['workload']['replay_tweets']} tweets) — rerun with the "
        "baseline's --users/--seed"
    )
    allowed = baseline["micro_batched"]["normalized"] * slack
    measured = summary["micro_batched"]["normalized"]
    summary["gate"] = {
        "baseline_normalized": baseline["micro_batched"]["normalized"],
        "measured_normalized": measured,
        "slack": slack,
        "allowed": round(allowed, 3),
    }
    assert measured <= allowed, (
        f"normalized micro-batched labelling time {measured} exceeds the "
        f"committed baseline {baseline['micro_batched']['normalized']} x "
        f"{slack} slack ({allowed:.3f}) — the kernel layer regressed"
    )
    summary["gate"]["status"] = "passed"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--users", type=int, default=DEFAULT_USERS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--batch-size", type=int, default=DEFAULT_BATCH_SIZE)
    parser.add_argument("--out", help="write the JSON summary here (else stdout)")
    parser.add_argument(
        "--check-against",
        type=Path,
        help="committed BENCH_core.json to gate the normalized time against",
    )
    parser.add_argument("--slack", type=float, default=DEFAULT_SLACK)
    args = parser.parse_args(argv)

    summary = run_benchmark(args.users, args.seed, args.batch_size)
    if args.check_against:
        enforce_gate(summary, args.check_against, args.slack)

    text = json.dumps(summary, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        print(text)
    return 0


def test_core_labelling_speedup():
    """Harness entry: small-scale scalar vs micro-batched replay.

    A ~20k-tweet replay keeps the check in the seconds range under
    pytest while still amortising the vectorised dispatch cost.
    """
    summary = run_benchmark(
        users=2_000, seed=DEFAULT_SEED, batch_size=DEFAULT_BATCH_SIZE
    )
    print()
    print(json.dumps(summary, indent=2))
    assert summary["label_mismatches"] == 0
    assert summary["speedup"] >= MIN_SPEEDUP


if __name__ == "__main__":
    raise SystemExit(main())
