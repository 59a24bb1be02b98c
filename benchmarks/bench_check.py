"""P2 — static-analysis benchmark: full-repo ``repro check`` timings.

Times the ratchet gate over the real repository — parse, each
registered rule in isolation on a fresh parse (so each row includes the
per-file facts it computes, and the interprocedural concurrency and
fork-safety rows each build their own call graph + lock model), the
shared graph + model build that one full run pays once, the full
in-process :func:`repro.check.runner.run_check` pipeline, and
``python -m repro check`` as a subprocess, interpreter start and
imports included — what a user or the CI gate pays::

    python benchmarks/bench_check.py --out BENCH_check.json

Numbers are **machine-normalized** exactly like ``bench_world.py``: a
fixed single-threaded hashing calibration loop is timed first and every
measurement is also reported as a ratio against it, so the committed
baseline stays comparable across hosts.  ``--check-against`` turns the
committed baseline into a regression gate: the normalized full-check
ratio may not exceed the baseline's by more than ``--slack`` (the first
step on the ROADMAP's perf-trajectory ratchet).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from _gate import DEFAULT_SLACK, calibrate

from repro.check.lockmodel import LockAnalysis
from repro.check.rules import RULE_FACTORIES
from repro.check.runner import run_check
from repro.check.walker import iter_source_files

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Timing repetitions; the minimum is reported (noise resistant).
REPEATS = 3


def _time(fn, prepare=lambda: None) -> float:
    """Minimum wall time of ``fn(prepare())`` over :data:`REPEATS` runs.

    ``prepare`` runs outside the timer (e.g. a fresh parse, so cached
    per-file facts never leak from one timed run into the next).
    """
    best = float("inf")
    for _ in range(REPEATS):
        arg = prepare()
        start = time.perf_counter()
        fn(arg)
        best = min(best, time.perf_counter() - start)
    return best


def _row(seconds: float, calibration_seconds: float) -> dict:
    return {
        "seconds": round(seconds, 4),
        "normalized": round(seconds / calibration_seconds, 3),
    }


def _cli_check(root: Path) -> None:
    """``python -m repro check`` in a fresh interpreter, from ``root/src``."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "repro", "check", "--root", str(root)],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stdout + done.stderr


def run_benchmark(root: Path) -> dict:
    """Calibrate, then time parse, every rule, the shared lock analysis,
    the full pipeline in process, and the CLI as a subprocess."""
    calibration_seconds = calibrate()
    package_root = root / "src" / "repro"

    def parse() -> list:
        return list(iter_source_files(package_root))

    sources = parse()
    parse_seconds = _time(lambda _: parse())

    rules = []
    for name in sorted(RULE_FACTORIES):
        factory = RULE_FACTORIES[name]
        seconds = _time(lambda fresh: factory().run(fresh), parse)
        rules.append({"rule": name, **_row(seconds, calibration_seconds)})

    analysis_seconds = _time(lambda fresh: LockAnalysis(fresh).model, parse)

    result = run_check(root=root)
    full_seconds = _time(lambda _: run_check(root=root))
    cli_seconds = _time(lambda _: _cli_check(root))

    return {
        "machine": {"calibration_seconds": round(calibration_seconds, 4)},
        "repo": {
            "files_scanned": len(sources),
            "check_ok": result.ok,
            "new_violations": len(result.new),
        },
        "parse": _row(parse_seconds, calibration_seconds),
        "rules": rules,
        "lock_analysis": _row(analysis_seconds, calibration_seconds),
        "full_check": _row(full_seconds, calibration_seconds),
        "cli_check": _row(cli_seconds, calibration_seconds),
    }


def enforce_gate(summary: dict, baseline_path: Path, slack: float) -> None:
    """Fail if the normalized full-check time regressed past the slack."""
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    allowed = baseline["full_check"]["normalized"] * slack
    measured = summary["full_check"]["normalized"]
    summary["gate"] = {
        "baseline_normalized": baseline["full_check"]["normalized"],
        "measured_normalized": measured,
        "slack": slack,
        "allowed": round(allowed, 3),
    }
    assert measured <= allowed, (
        f"normalized full-check time {measured} exceeds the committed "
        f"baseline {baseline['full_check']['normalized']} x {slack} slack "
        f"({allowed:.3f}) — the static-analysis pass regressed"
    )
    summary["gate"]["status"] = "passed"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=REPO_ROOT)
    parser.add_argument("--out", help="write the JSON summary here (else stdout)")
    parser.add_argument(
        "--check-against",
        type=Path,
        help="committed BENCH_check.json to gate the normalized time against",
    )
    parser.add_argument("--slack", type=float, default=DEFAULT_SLACK)
    args = parser.parse_args(argv)

    summary = run_benchmark(args.root)
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


def test_check_benchmark():
    """Harness entry: the full-repo pass must be clean and benchmarkable."""
    summary = run_benchmark(REPO_ROOT)
    print()
    print(json.dumps(summary, indent=2))
    assert summary["repo"]["check_ok"]
    assert summary["repo"]["files_scanned"] >= 100
    assert {row["rule"] for row in summary["rules"]} >= {
        "concurrency",
        "forksafety",
        "determinism",
    }
    assert summary["full_check"]["seconds"] < 10.0


if __name__ == "__main__":
    raise SystemExit(main())
