"""The sparse mobility monitor against the dense formulation it replaced.

:class:`DenseOracleMonitor` keeps the old dense ``_check``/``_refit`` —
an ``(n, n)`` EMA baseline, ratio and threshold passes over the whole
flow matrix, and a refit through :meth:`ODFlows.pairs` — as a test
oracle only.  Replaying the same stream through both must give the same
anomaly lists, baselines and gravity-fit histories, bit for bit.  The
streams are chosen so both actually raise anomalies and fit models: an
injected evacuation on the paper's national world, and an anomaly-prone
configuration on a country-scale synthetic world (where labels route
through the grid index).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.world import World
from repro.data.gazetteer import Scale, areas_for_scale, search_radius_km
from repro.extraction.mobility import ODFlows
from repro.models.gravity import GravityModel
from repro.stream import MobilityMonitor
from repro.stream.monitor import FlowAnomaly
from repro.stream.replay import corpus_stream, merge_streams
from repro.synth import SynthConfig, generate_corpus
from repro.synth.scenarios import evacuation_event

AREAS = areas_for_scale(Scale.NATIONAL)
SYDNEY, MELBOURNE = AREAS[0], AREAS[1]


class DenseOracleMonitor(MobilityMonitor):
    """The pre-sparse monitor check: dense n² passes (oracle only)."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        n = self.world.n_areas
        self.dense_baseline = np.zeros((n, n), dtype=np.float64)

    def _check(self, now: float) -> list[FlowAnomaly]:
        current = self.counter.flow_matrix().astype(np.float64)
        anomalies: list[FlowAnomaly] = []
        if self._checks_done >= self.warmup_checks:
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.where(
                    self.dense_baseline > 0, current / self.dense_baseline, np.nan
                )
            rows, cols = np.nonzero(
                (np.maximum(current, self.dense_baseline) >= self.min_flow)
                & np.isfinite(ratio)
                & ((ratio >= self.anomaly_ratio) | (ratio <= 1.0 / self.anomaly_ratio))
            )
            for i, j in zip(rows, cols):
                anomalies.append(
                    FlowAnomaly(
                        source=self.areas[i].name,
                        dest=self.areas[j].name,
                        observed=float(current[i, j]),
                        baseline=float(self.dense_baseline[i, j]),
                        ratio=float(ratio[i, j]),
                        timestamp=now,
                    )
                )
        alpha = self.baseline_alpha
        self.dense_baseline = (1 - alpha) * self.dense_baseline + alpha * current
        self._checks_done += 1
        self._dense_refit(now)
        self._anomalies.extend(anomalies)
        return anomalies

    def _dense_refit(self, now: float) -> None:
        flows = ODFlows(areas=self.areas, matrix=self.counter.flow_matrix())
        pairs = flows.pairs()
        if len(pairs) < 8:
            return
        try:
            fitted = GravityModel(2).fit(pairs)
        except ValueError:
            return
        self._fit_history.append((now, fitted))

    def baseline_matrix(self) -> np.ndarray:
        return self.dense_baseline.copy()


def _fit_params(monitor: MobilityMonitor) -> list[tuple]:
    return [(ts, fit.params) for ts, fit in monitor._fit_history]


def _replay_both(world_or_areas, radius_km, stream, batch_size, **kwargs):
    sparse = MobilityMonitor(world_or_areas, radius_km, **kwargs)
    dense = DenseOracleMonitor(world_or_areas, radius_km, **kwargs)
    raised = {"sparse": [], "dense": []}
    for start in range(0, len(stream), batch_size):
        batch = stream[start : start + batch_size]
        raised["sparse"].extend(sparse.push_batch(batch))
        raised["dense"].extend(dense.push_batch(batch))
    raised["sparse"].extend(sparse.check_now())
    raised["dense"].extend(dense.check_now())
    return sparse, dense, raised


def _assert_identical(sparse, dense, raised) -> None:
    assert raised["sparse"] == raised["dense"]
    assert sparse.anomalies == dense.anomalies
    assert sparse._checks_done == dense._checks_done
    assert np.array_equal(sparse.baseline_matrix(), dense.baseline_matrix())
    assert sparse.gamma_history() == dense.gamma_history()
    assert _fit_params(sparse) == _fit_params(dense)


@pytest.mark.parametrize("batch_size", [1, 97, 1024])
def test_evacuation_replay_matches_dense_oracle(small_corpus, batch_size):
    start = float(np.quantile(small_corpus.timestamps, 0.7))
    event = evacuation_event(
        SYDNEY, MELBOURNE, n_users=300, start_ts=start,
        rng=np.random.default_rng(5),
    )
    stream = list(merge_streams(corpus_stream(small_corpus), event))
    if batch_size == 1:
        stream = stream[: len(stream) // 4] + event  # keep the per-tweet case quick
        stream.sort(key=lambda t: t.timestamp)
    sparse, dense, raised = _replay_both(
        AREAS,
        search_radius_km(Scale.NATIONAL),
        stream,
        batch_size,
        window_seconds=30 * 86_400.0,
        check_interval_seconds=5 * 86_400.0,
        anomaly_ratio=2.5,
        min_flow=10.0,
    )
    # The replay must exercise what the oracle pins: anomalies and fits.
    assert any(a.source == "Sydney" and a.dest == "Melbourne" for a in raised["dense"])
    assert len(dense.gamma_history()) >= 3
    _assert_identical(sparse, dense, raised)


def test_country_scale_replay_matches_dense_oracle():
    """A 300-area synthetic world: grid-labelled flows, drops and surges."""
    config = SynthConfig(n_users=3000, seed=11, gazetteer="synth:300@5")
    corpus = generate_corpus(config).corpus
    world = World.from_scale(Scale.METROPOLITAN, gazetteer="synth:300@5")
    stream = list(corpus_stream(corpus))
    sparse, dense, raised = _replay_both(
        world,
        world.radius_km,
        stream,
        512,
        window_seconds=30 * 86_400.0,
        check_interval_seconds=6 * 86_400.0,
        anomaly_ratio=1.5,
        min_flow=2.0,
        warmup_checks=2,
    )
    assert world.n_areas > 128  # labels route through the grid index
    assert len(raised["dense"]) >= 5
    assert len(dense.gamma_history()) >= 5
    _assert_identical(sparse, dense, raised)
