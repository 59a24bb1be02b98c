"""Tests for repro.extraction.mobility on hand-built label sequences."""

import numpy as np
import pytest

from repro.data.corpus import TweetCorpus
from repro.data.gazetteer import Area, Scale
from repro.extraction.mobility import ODFlows, extract_od_flows, sparse_od_pairs, symmetrize
from repro.geo.coords import Coordinate


def _areas(n):
    return tuple(
        Area(
            name=f"A{i}",
            center=Coordinate(lat=-30.0 - i, lon=150.0 + i),
            population=1000 * (i + 1),
            scale=Scale.NATIONAL,
        )
        for i in range(n)
    )


def _corpus(user_ids, timestamps=None):
    n = len(user_ids)
    ts = np.arange(n, dtype=np.float64) if timestamps is None else np.asarray(timestamps, dtype=np.float64)
    return TweetCorpus.from_arrays(
        np.asarray(user_ids), ts, np.zeros(n), np.zeros(n)
    )


class TestExtractOdFlows:
    def test_consecutive_pairs_counted(self):
        areas = _areas(3)
        corpus = _corpus([1, 1, 1, 1])
        labels = np.array([0, 1, 1, 2])
        flows = extract_od_flows(corpus, labels, areas)
        assert flows.matrix[0, 1] == 1
        assert flows.matrix[1, 2] == 1
        assert flows.total_trips == 2

    def test_same_area_pairs_not_trips(self):
        areas = _areas(2)
        corpus = _corpus([1, 1, 1])
        labels = np.array([0, 0, 0])
        flows = extract_od_flows(corpus, labels, areas)
        assert flows.total_trips == 0

    def test_unlabelled_tweets_break_pairs(self):
        areas = _areas(2)
        corpus = _corpus([1, 1, 1])
        labels = np.array([0, -1, 1])
        flows = extract_od_flows(corpus, labels, areas)
        assert flows.total_trips == 0

    def test_cross_user_pairs_not_counted(self):
        areas = _areas(2)
        corpus = _corpus([1, 2])
        labels = np.array([0, 1])
        flows = extract_od_flows(corpus, labels, areas)
        assert flows.total_trips == 0

    def test_direction_matters(self):
        areas = _areas(2)
        corpus = _corpus([1, 1, 1])
        labels = np.array([0, 1, 0])
        flows = extract_od_flows(corpus, labels, areas)
        assert flows.matrix[0, 1] == 1
        assert flows.matrix[1, 0] == 1

    def test_misaligned_labels_raise(self):
        areas = _areas(2)
        corpus = _corpus([1, 1])
        with pytest.raises(ValueError):
            extract_od_flows(corpus, np.array([0]), areas)

    def test_label_out_of_range_raises(self):
        areas = _areas(2)
        corpus = _corpus([1, 1])
        with pytest.raises(ValueError):
            extract_od_flows(corpus, np.array([0, 5]), areas)

    def test_empty_corpus(self):
        areas = _areas(2)
        flows = extract_od_flows(_corpus([]), np.empty(0, dtype=np.int64), areas)
        assert flows.total_trips == 0


class TestODFlows:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ODFlows(areas=_areas(3), matrix=np.zeros((2, 2), dtype=np.int64))

    def test_populations_and_distances(self):
        areas = _areas(3)
        flows = ODFlows(areas=areas, matrix=np.zeros((3, 3), dtype=np.int64))
        assert flows.populations().tolist() == [1000.0, 2000.0, 3000.0]
        d = flows.distance_matrix_km()
        assert d.shape == (3, 3)
        assert np.all(np.diag(d) == 0)

    def test_pairs_excludes_zero_flows_and_diagonal(self):
        areas = _areas(3)
        matrix = np.array([[5, 2, 0], [0, 7, 1], [3, 0, 0]], dtype=np.int64)
        flows = ODFlows(areas=areas, matrix=matrix)
        pairs = flows.pairs()
        observed = {(int(s), int(d)): f for s, d, f in zip(pairs.source, pairs.dest, pairs.flow)}
        assert observed == {(0, 1): 2.0, (1, 2): 1.0, (2, 0): 3.0}
        assert len(pairs) == 3

    def test_pairs_min_flow_threshold(self):
        areas = _areas(2)
        matrix = np.array([[0, 1], [5, 0]], dtype=np.int64)
        flows = ODFlows(areas=areas, matrix=matrix)
        assert len(flows.pairs(min_flow=2)) == 1

    def test_pairs_masses_and_distances_align(self):
        areas = _areas(3)
        matrix = np.zeros((3, 3), dtype=np.int64)
        matrix[0, 2] = 4
        flows = ODFlows(areas=areas, matrix=matrix)
        pairs = flows.pairs()
        assert pairs.m[0] == 1000.0
        assert pairs.n[0] == 3000.0
        assert pairs.d_km[0] == pytest.approx(flows.distance_matrix_km()[0, 2])

    def test_symmetrize(self):
        areas = _areas(2)
        matrix = np.array([[0, 3], [1, 0]], dtype=np.int64)
        sym = symmetrize(ODFlows(areas=areas, matrix=matrix))
        assert sym.matrix[0, 1] == 4
        assert sym.matrix[1, 0] == 4


def test_sparse_pairs_equal_dense_pairs_bitwise():
    from repro.core.world import World

    world = World.from_areas(_areas(9), radius_km=50.0)
    rng = np.random.default_rng(4)
    matrix = rng.integers(0, 4, size=(9, 9)) * (rng.random((9, 9)) < 0.4)
    np.fill_diagonal(matrix, 0)
    source, dest = np.nonzero(matrix)
    sparse = sparse_od_pairs(world, source, dest, matrix[source, dest])
    dense = ODFlows(areas=world.areas, matrix=matrix).pairs()
    for name in ("source", "dest", "m", "n", "d_km", "flow"):
        got, want = getattr(sparse, name), getattr(dense, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
