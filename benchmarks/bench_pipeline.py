"""P1 — pipeline caching and parallelism benchmark.

Measures three full experiment-suite runs over one configuration:

* **cold**   — empty artifact store, serial (``jobs=1``): every task
  body executes;
* **warm**   — same store again: every task must be a cache hit and
  zero bodies may execute;
* **parallel** — fresh store, ``--jobs N``: sharded generation plus
  process-parallel artefact nodes.

Emits a JSON summary (stdout or ``--out``), e.g.::

    python benchmarks/bench_pipeline.py --users 25000 --jobs 4 --out p1.json

Besides the whole runs, the summary breaks the cold run down per task
from its own manifest (``cold_tasks``).  Numbers are
**machine-normalized** by the shared ``_gate`` helpers: a fixed
single-threaded hashing calibration loop is timed first and the cold
run, the warm run and every task are also reported as a ratio
against it.
``--check-against`` turns the committed ``BENCH_pipeline.json`` into a
regression gate: each normalized row may not exceed twice the
baseline's (``_gate.DEFAULT_SLACK``).  Rows whose baseline is under
:data:`MIN_GATED_NORMALIZED` (tens of milliseconds or less: the warm
run and the smallest artefact tasks) are reported but not gated, since
timer and scheduler noise alone can double them.

The script asserts the acceptance guarantees while measuring: the warm
run executes zero task bodies and is faster than the cold run, the
parallel run's corpus digest equals the serial run's (bit-identical
sharded generation), and the observability hooks cost under 2% of the
cold run when tracing is disabled (``disabled_overhead_pct``).
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

from _gate import DEFAULT_SLACK, calibrate, gate_rows, timed_row

from repro import obs
from repro.pipeline import ArtifactStore, run_suite
from repro.synth import SynthConfig

DEFAULT_USERS = 25_000
DEFAULT_SEED = 20150413

#: Acceptance ceiling for the cost of disabled observability hooks.
MAX_DISABLED_OVERHEAD_PCT = 2.0

#: Rows whose baseline normalized time is below this (15-30 ms on hosts
#: whose calibration loop takes 0.3-0.6 s) are reported, not gated.
MIN_GATED_NORMALIZED = 0.05


def _timed_run(config: SynthConfig, store: ArtifactStore, jobs: int):
    start = time.perf_counter()
    _, run = run_suite(config=config, store=store, jobs=jobs)
    return time.perf_counter() - start, run


class _ObsCallCounter:
    """Counts ``obs.span`` / ``obs.counter`` invocations while active.

    The shim adds one integer increment per call — orders of magnitude
    below the cost it is there to tally — so the cold timing it wraps
    stays representative.
    """

    def __init__(self) -> None:
        self.calls = 0
        self._real_span = None
        self._real_counter = None

    def __enter__(self):
        self._real_span = obs.span
        self._real_counter = obs.counter

        def counting_span(name, **attrs):
            self.calls += 1
            return self._real_span(name, **attrs)

        def counting_counter(name, delta=1):
            self.calls += 1
            return self._real_counter(name, delta)

        obs.span = counting_span
        obs.counter = counting_counter
        return self

    def __exit__(self, *exc_info):
        obs.span = self._real_span
        obs.counter = self._real_counter
        return False


def _disabled_call_seconds(iterations: int = 100_000) -> float:
    """Mean cost of one observability call with no tracer installed."""
    previous = obs.install(None)
    try:
        start = time.perf_counter()
        for _ in range(iterations):
            with obs.span("bench.noop"):
                pass
            obs.counter("bench.noop")
        elapsed = time.perf_counter() - start
    finally:
        obs.install(previous)
    return elapsed / (2 * iterations)


def run_benchmark(users: int, seed: int, jobs: int, cache_dir: str) -> dict:
    """Cold vs warm vs parallel timings plus manifest-derived counters."""
    calibration_seconds = calibrate()
    config = SynthConfig(n_users=users, seed=seed)

    cold_store = ArtifactStore(cache_dir + "/cold")
    cold_store.clear()
    with _ObsCallCounter() as obs_calls:
        cold_seconds, cold = _timed_run(config, cold_store, jobs=1)
    warm_seconds, warm = _timed_run(config, cold_store, jobs=1)

    parallel_store = ArtifactStore(cache_dir + "/parallel")
    parallel_store.clear()
    parallel_seconds, parallel = _timed_run(config, parallel_store, jobs=jobs)

    per_call_seconds = _disabled_call_seconds()
    overhead_pct = (
        obs_calls.calls * per_call_seconds / max(cold_seconds, 1e-9) * 100.0
    )

    assert warm.manifest.executed == 0, "warm run executed task bodies"
    assert warm_seconds < cold_seconds, "warm run not faster than cold"
    assert parallel.digests["corpus"] == cold.digests["corpus"], (
        "sharded corpus differs from serial corpus"
    )
    assert overhead_pct < MAX_DISABLED_OVERHEAD_PCT, (
        f"disabled observability overhead {overhead_pct:.3f}% exceeds "
        f"{MAX_DISABLED_OVERHEAD_PCT}%"
    )

    return {
        "machine": {"calibration_seconds": round(calibration_seconds, 4)},
        "users": users,
        "seed": seed,
        "jobs": jobs,
        "cold": timed_row(cold_seconds, calibration_seconds),
        "warm": timed_row(warm_seconds, calibration_seconds),
        "cold_tasks": {
            record.name: timed_row(record.seconds, calibration_seconds)
            for record in cold.manifest.records
        },
        "parallel_seconds": round(parallel_seconds, 3),
        "cold_tasks_executed": cold.manifest.executed,
        "warm_tasks_executed": warm.manifest.executed,
        "warm_cache_hits": warm.manifest.hits,
        "parallel_tasks_executed": parallel.manifest.executed,
        "warm_speedup": round(cold_seconds / max(warm_seconds, 1e-9), 1),
        "parallel_speedup": round(cold_seconds / max(parallel_seconds, 1e-9), 2),
        "corpus_digest": cold.digests["corpus"],
        "sharded_corpus_identical": True,
        "obs_calls_cold_run": obs_calls.calls,
        "disabled_obs_ns_per_call": round(per_call_seconds * 1e9, 1),
        "disabled_overhead_pct": round(overhead_pct, 4),
    }


def enforce_gate(summary: dict, baseline_path: Path) -> None:
    """Fail if a gated normalized row regressed past the slack."""
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    assert all(summary[key] == baseline[key] for key in ("users", "seed")), (
        "baseline and measurement run different workloads "
        f"({baseline['users']} vs {summary['users']} users) — rerun with the "
        "baseline's --users/--seed"
    )
    rows = {
        name: (summary[name]["normalized"], baseline[name]["normalized"])
        for name in ("cold", "warm")
    }
    for name, row in summary["cold_tasks"].items():
        rows[f"task.{name}"] = (
            row["normalized"], baseline["cold_tasks"][name]["normalized"]
        )
    summary["gate"], failures = gate_rows(rows, MIN_GATED_NORMALIZED)
    assert not failures, (
        f"normalized pipeline time exceeds the committed baseline x "
        f"{DEFAULT_SLACK} — the cold pipeline regressed: " + "; ".join(failures)
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--users", type=int, default=DEFAULT_USERS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--jobs", type=int, default=4, help="parallel-run workers")
    parser.add_argument(
        "--cache-dir", help="benchmark cache root (default: a temp dir)"
    )
    parser.add_argument("--out", help="write the JSON summary here (else stdout)")
    parser.add_argument(
        "--check-against",
        type=Path,
        help="committed BENCH_pipeline.json to gate the normalized rows against",
    )
    args = parser.parse_args(argv)

    if args.cache_dir:
        summary = run_benchmark(args.users, args.seed, args.jobs, args.cache_dir)
    else:
        with tempfile.TemporaryDirectory(prefix="repro-bench-") as cache_dir:
            summary = run_benchmark(args.users, args.seed, args.jobs, cache_dir)
    if args.check_against:
        enforce_gate(summary, args.check_against)

    text = json.dumps(summary, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        print(text)
    return 0


def test_pipeline_cold_warm_parallel(tmp_path):
    """Harness entry: small-scale cold/warm/parallel benchmark.

    Uses a corpus an order of magnitude below the CLI default so the
    whole check stays in the seconds range under pytest.
    """
    summary = run_benchmark(
        users=3_000, seed=DEFAULT_SEED, jobs=2, cache_dir=str(tmp_path)
    )
    print()
    print(json.dumps(summary, indent=2))
    assert summary["warm_tasks_executed"] == 0
    assert summary["warm"]["seconds"] < summary["cold"]["seconds"]
    assert set(summary["cold_tasks"]) == {
        "corpus", "table1", "fig1", "fig2", "fig3", "fig4", "table2",
    }
    assert summary["sharded_corpus_identical"]
    assert summary["obs_calls_cold_run"] > 0
    assert summary["disabled_overhead_pct"] < MAX_DISABLED_OVERHEAD_PCT


if __name__ == "__main__":
    raise SystemExit(main())
