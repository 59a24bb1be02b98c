"""Shared benchmark fixtures.

The benchmark corpus (25,000 users, ~300k tweets) is generated once per
session.  It is large enough for every table/figure to show the paper's
qualitative shape, while keeping the full harness in the minutes range.
"""

from __future__ import annotations

import pytest

from repro.experiments import ExperimentContext
from repro.synth import SynthConfig, generate_corpus

BENCH_USERS = 25_000
BENCH_SEED = 20150413


@pytest.fixture(scope="session")
def bench_result():
    """The session-wide generation result."""
    return generate_corpus(SynthConfig(n_users=BENCH_USERS, seed=BENCH_SEED))


@pytest.fixture(scope="session")
def bench_corpus(bench_result):
    """The session-wide benchmark corpus."""
    return bench_result.corpus


@pytest.fixture(scope="session")
def bench_context(bench_corpus):
    """Shared experiment context (per-scale extraction cached once)."""
    return ExperimentContext(bench_corpus)
