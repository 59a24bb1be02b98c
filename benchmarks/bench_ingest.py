"""Live-ingest benchmark: tweets/s and time per stage, at three world sizes.

Replays a paper-density synthetic tweet stream (about 20.6 tweets per
stream minute, as in Table I) through ``POST /v1/ingest`` of an
in-process :class:`repro.serve.app.EstimationApp`, in 1,024-tweet
batches shuffled internally.  The app is wired as ``repro serve`` wires
it: the mobility monitor plus a summary store persisting finalized
tiles to a temporary artifact store.  Only the HTTP transport is left
out.  The replay runs on three area systems:

* ``legacy`` — the paper's 20-area national world (ε = 50 km);
* ``synth:1000`` and ``synth:5000`` — synthetic country-scale
  gazetteers at the metropolitan scale (ε = 2 km).

Each world is replayed twice on a fresh app.  The untraced pass gives
tweets/s.  The traced pass installs a :class:`repro.obs.Tracer` and
reads the stage times from the spans the service itself emits:

==================  =====================================================
``parse``           ``serve.ingest.parse`` — request records to columns
``label``           ``core.label_members`` — labels + sparse membership
``monitor.check``   ``stream.monitor.check`` without its nested refit
``monitor.refit``   ``stream.monitor.refit`` — windowed gravity refit
``summary.ingest``  ``summary.ingest`` without its nested persists
``persist``         ``summary.persist`` — tile pickling and file writes
==================  =====================================================

Tiles are written under ``/dev/shm`` when the host has it, so the
numbers track CPU work rather than the disk (see :data:`TILE_DIR`).

The first batch of each replay is a warm-up (lazy index builds) and is
not timed.  Emits a JSON summary (stdout or ``--out``), e.g.::

    python benchmarks/bench_ingest.py --out BENCH_ingest.json

Numbers are machine-normalized like ``bench_core.py``: a fixed
single-threaded hashing loop is timed first and every time is also
reported as a ratio against it.  ``--check-against`` gates a run on a
committed summary: each world's normalized replay time may not exceed
the baseline's by more than ``--slack``.  ``--pre-change`` folds in a
summary this script wrote on an older tree (its tweets/s per world
become the ``pre_change`` block, with speed-ups).
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
from _gate import DEFAULT_SLACK, calibrate

from repro import obs
from repro.data.gazetteer import Scale
from repro.pipeline.store import ArtifactStore
from repro.serve.app import create_app
from repro.synth import SynthConfig, generate_corpus
from repro.synth.config import COLLECTION_START_TS
from repro.synth.distributions import DiscretePowerLaw

#: The worlds replayed: (name, gazetteer spec, monitored scale).
WORLDS = (
    ("legacy", "legacy", Scale.NATIONAL),
    ("synth:1000", "synth:1000", Scale.METROPOLITAN),
    ("synth:5000", "synth:5000", Scale.METROPOLITAN),
)

DEFAULT_TWEETS = 20_480
DEFAULT_SEED = 7
BATCH_TWEETS = 1024

#: Paper density: 6.3M tweets over about 212 days (Table I).
PAPER_TWEETS = 6_300_000
PAPER_DAYS = 212.0
TWEETS_PER_MINUTE = PAPER_TWEETS / (PAPER_DAYS * 1440.0)

#: Stage name -> (span name, span nested inside it that is reported
#: separately and subtracted, or None).
STAGES = {
    "parse": ("serve.ingest.parse", None),
    "label": ("core.label_members", None),
    "monitor.check": ("stream.monitor.check", "stream.monitor.refit"),
    "monitor.refit": ("stream.monitor.refit", None),
    "summary.ingest": ("summary.ingest", "summary.persist"),
    "persist": ("summary.persist", None),
}

#: Tiles persist to a RAM-backed directory where the host has one: the
#: calibration loop normalizes CPU speed, not disk speed, and on a disk
#: the persist stage alone swings several-fold between runs.
TILE_DIR = "/dev/shm" if Path("/dev/shm").is_dir() else None


def paper_density_stream(gazetteer: str, seed: int, n_tweets: int) -> list[dict]:
    """The first ``n_tweets`` of a time-sorted stream at paper density.

    Per-user tweet counts are capped in proportion to the stream span
    (a user keeps the paper's peak rate) and the user count is set so
    the expected tweets per minute match the paper.
    """
    hours = 1.25 * n_tweets / TWEETS_PER_MINUTE / 60.0
    defaults = SynthConfig()
    k_max = max(
        defaults.tweets_k_min,
        round(defaults.tweets_k_max * hours / (PAPER_DAYS * 24.0)),
    )
    per_user = DiscretePowerLaw(defaults.tweets_alpha, defaults.tweets_k_min, k_max).mean()
    config = SynthConfig(
        n_users=max(1, round(TWEETS_PER_MINUTE * hours * 60.0 / per_user)),
        seed=seed,
        tweets_k_max=k_max,
        gazetteer=gazetteer,
        start_ts=COLLECTION_START_TS,
        end_ts=COLLECTION_START_TS + hours * 3600.0,
    )
    corpus = generate_corpus(config).corpus
    order = np.argsort(corpus.timestamps, kind="stable")[:n_tweets]
    return [
        {
            "user_id": int(corpus.user_ids[i]),
            "timestamp": float(corpus.timestamps[i]),
            "lat": float(corpus.lats[i]),
            "lon": float(corpus.lons[i]),
        }
        for i in order
    ]


def request_bodies(records: list[dict], seed: int) -> list[dict]:
    """Consecutive 1,024-tweet batches, each shuffled internally."""
    rng = np.random.default_rng(seed)
    bodies = []
    for lo in range(0, len(records), BATCH_TWEETS):
        batch = records[lo : lo + BATCH_TWEETS]
        order = rng.permutation(len(batch))
        bodies.append({"tweets": [batch[i] for i in order]})
    return bodies


def replay(gazetteer: str, scale: Scale, bodies: list[dict], traced: bool) -> dict:
    """One replay on a fresh app; wall time of the timed batches (+ spans)."""
    root = tempfile.mkdtemp(prefix="bench-ingest-", dir=TILE_DIR)
    try:
        app = create_app(
            ArtifactStore(root), monitor_scale=scale, preload=False, gazetteer=gazetteer
        )
        status, payload, _ = app.handle("POST", "/v1/ingest", {}, bodies[0])
        assert status == 200, payload
        tracer = obs.Tracer() if traced else None
        previous = obs.install(tracer) if traced else None
        try:
            start = time.perf_counter()
            for body in bodies[1:]:
                status, payload, _ = app.handle("POST", "/v1/ingest", {}, body)
                assert status == 200, payload
                assert payload["dropped_stale"] == 0, payload
            seconds = time.perf_counter() - start
        finally:
            if traced:
                obs.install(previous)
        stats = app.ingest.stats()
        result = {
            "seconds": seconds,
            "areas": app.summary.world.n_areas,
            "checks": stats["checks_done"],
            "anomalies": stats["anomalies_total"],
            "tiles": app.summary.stats()["tiles"],
        }
        if tracer is not None:
            totals: dict[str, float] = {}
            for span in tracer.finished_spans():
                totals[span.name] = totals.get(span.name, 0.0) + span.wall_s
            result["stages_s"] = {
                stage: totals.get(name, 0.0) - (totals.get(nested, 0.0) if nested else 0.0)
                for stage, (name, nested) in STAGES.items()
            }
        return result
    finally:
        shutil.rmtree(root, ignore_errors=True)


def run_benchmark(n_tweets: int, seed: int, worlds=WORLDS) -> dict:
    """Untraced and traced replays of every world, machine-normalized."""
    calibration_seconds = calibrate()
    summary: dict = {
        "machine": {"calibration_seconds": round(calibration_seconds, 4)},
        "workload": {
            "tweets": n_tweets,
            "timed_tweets": max(0, n_tweets - BATCH_TWEETS),
            "batch_tweets": BATCH_TWEETS,
            "seed": seed,
            "tweets_per_stream_minute": round(TWEETS_PER_MINUTE, 2),
        },
        "worlds": {},
    }
    for name, gazetteer, scale in worlds:
        bodies = request_bodies(paper_density_stream(gazetteer, seed, n_tweets), seed)
        timed = sum(len(body["tweets"]) for body in bodies[1:])
        plain = replay(gazetteer, scale, bodies, traced=False)
        traced = replay(gazetteer, scale, bodies, traced=True)
        for key in ("checks", "anomalies", "tiles"):
            assert plain[key] == traced[key], f"{name}: {key} differs between passes"
        stages = traced["stages_s"]
        summary["worlds"][name] = {
            "areas": plain["areas"],
            "scale": scale.value,
            "seconds": round(plain["seconds"], 4),
            "normalized": round(plain["seconds"] / calibration_seconds, 4),
            "tweets_per_s": round(timed / max(plain["seconds"], 1e-9), 1),
            "stages_s": {stage: round(value, 4) for stage, value in stages.items()},
            "stages_normalized": {
                stage: round(value / calibration_seconds, 4) for stage, value in stages.items()
            },
            "traced_seconds": round(traced["seconds"], 4),
            "checks": plain["checks"],
            "anomalies": plain["anomalies"],
            "tiles": plain["tiles"],
        }
    return summary


def fold_pre_change(summary: dict, pre_change_path: Path) -> None:
    """Record an older tree's figures (same script, same host) and speed-ups.

    Speed-ups compare machine-normalized replay times, so a change in
    the host's clock between the two runs does not enter them.
    """
    before = json.loads(pre_change_path.read_text(encoding="utf-8"))
    assert before["workload"]["tweets"] == summary["workload"]["tweets"], (
        "pre-change summary replays a different workload"
    )
    block: dict = {"calibration_seconds": before["machine"]["calibration_seconds"], "worlds": {}}
    for name, world in summary["worlds"].items():
        if name not in before["worlds"]:
            continue
        old = before["worlds"][name]
        block["worlds"][name] = {
            "tweets_per_s": old["tweets_per_s"],
            "normalized": old["normalized"],
            "speedup_normalized": round(old["normalized"] / world["normalized"], 1),
        }
    summary["pre_change"] = block


def enforce_gate(summary: dict, baseline_path: Path, slack: float) -> None:
    """Fail if any world's normalized replay time regressed past the slack."""
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    assert summary["workload"]["tweets"] == baseline["workload"]["tweets"], (
        "baseline and measurement replay different workloads "
        f"({baseline['workload']['tweets']} vs {summary['workload']['tweets']} "
        "tweets) — rerun with the baseline's --tweets/--seed"
    )
    gate: dict = {"slack": slack, "worlds": {}}
    failures = []
    for name, world in summary["worlds"].items():
        allowed = baseline["worlds"][name]["normalized"] * slack
        gate["worlds"][name] = {
            "baseline_normalized": baseline["worlds"][name]["normalized"],
            "measured_normalized": world["normalized"],
            "allowed": round(allowed, 4),
        }
        if world["normalized"] > allowed:
            failures.append(f"{name}: {world['normalized']} > {allowed:.4f}")
    summary["gate"] = gate
    assert not failures, (
        "normalized ingest time exceeds the committed baseline x slack — "
        "live ingest regressed: " + "; ".join(failures)
    )
    gate["status"] = "passed"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tweets", type=int, default=DEFAULT_TWEETS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--out", help="write the JSON summary here (else stdout)")
    parser.add_argument(
        "--check-against",
        type=Path,
        help="committed BENCH_ingest.json to gate the normalized times against",
    )
    parser.add_argument("--slack", type=float, default=DEFAULT_SLACK)
    parser.add_argument(
        "--pre-change",
        type=Path,
        help="a summary this script wrote on an older tree, to report speed-ups against",
    )
    args = parser.parse_args(argv)

    summary = run_benchmark(args.tweets, args.seed)
    if args.pre_change:
        fold_pre_change(summary, args.pre_change)
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


def test_ingest_stages_reported():
    """Harness entry: a short legacy-world replay reports every stage."""
    summary = run_benchmark(n_tweets=4 * BATCH_TWEETS, seed=DEFAULT_SEED, worlds=WORLDS[:1])
    world = summary["worlds"]["legacy"]
    assert world["tweets_per_s"] > 0
    for stage in ("parse", "label", "monitor.check", "summary.ingest", "persist"):
        assert world["stages_s"][stage] > 0, stage


if __name__ == "__main__":
    raise SystemExit(main())
