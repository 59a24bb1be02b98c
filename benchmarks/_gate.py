"""Machine normalization and regression gating shared by the benchmarks.

Benchmarks that commit a ``BENCH_*.json`` baseline time a fixed
single-threaded hashing loop first (:func:`calibrate`) and report each
measurement both in seconds and as a ratio against it, so a baseline
recorded on one host can gate a run on another.  Stdlib only: importing
it costs nothing next to the workloads it normalizes.
"""

from __future__ import annotations

import hashlib
import time

#: Calibration loop: single-threaded blake2b over this many blocks.
CALIBRATION_BLOCKS = 50_000

#: Headroom multiplier for the --check-against gates.
DEFAULT_SLACK = 2.0


def calibrate() -> float:
    """Seconds for a fixed single-threaded hash loop on this machine."""
    payload = b"x" * 4096
    start = time.perf_counter()
    digest = b""
    for _ in range(CALIBRATION_BLOCKS):
        digest = hashlib.blake2b(payload + digest, digest_size=16).digest()
    return time.perf_counter() - start


def timed_row(seconds: float, calibration_seconds: float) -> dict:
    """One measurement in seconds and normalized by the calibration loop."""
    return {
        "seconds": round(seconds, 4),
        "normalized": round(seconds / calibration_seconds, 4),
    }


def gate_rows(
    rows: dict[str, tuple[float, float]], min_gated: float = 0.0
) -> tuple[dict, list[str]]:
    """Compare ``name -> (measured, baseline)`` normalized times.

    Each row may not exceed its baseline times :data:`DEFAULT_SLACK`.
    Rows whose baseline is under ``min_gated`` are recorded with
    ``"gated": false`` and never fail.  Returns the gate record for the
    summary and the failure lines, empty when every row passed.
    """
    gate: dict = {"slack": DEFAULT_SLACK, "rows": {}}
    failures = []
    for name, (measured, base) in rows.items():
        entry = {"baseline_normalized": base, "measured_normalized": measured}
        if base < min_gated:
            entry["gated"] = False
        else:
            allowed = base * DEFAULT_SLACK
            entry["allowed"] = round(allowed, 4)
            if measured > allowed:
                failures.append(f"{name}: {measured} > {allowed:.4f}")
        gate["rows"][name] = entry
    gate["status"] = "failed" if failures else "passed"
    return gate, failures
