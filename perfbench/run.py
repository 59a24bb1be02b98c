"""Run one benchmark workload against the ``repro`` tree of this checkout.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload ingest-1k --seed 1 --seconds 10 --trace 0

Prints one line per figure, with its unit, and as the last line a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Exits 2 when the checkout holds no ``src/repro`` to
measure.  See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(HERE))
    from benchlib.workloads import WORKLOADS, Context

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    work = ROOT / ".perfbench-work" / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        untraced, traced = WORKLOADS[args.workload]
        ctx = Context(root=ROOT, work=work, seed=args.seed, seconds=args.seconds)
        result = (traced if args.trace else untraced)(ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it

    tally = result.tally
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    for line in result.report:
        print(line)
    for problem in tally.problems:
        print(f"FAILED: {problem}")
    print(f"failed_frac: {tally.failed / max(tally.attempted, 1):.6f} ratio "
          f"({tally.failed} of {tally.attempted} operations)")
    for name, (value, unit) in result.metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
