"""Tests for repro.geo.index — the centre grid must match brute force exactly.

A radius query around one centre is the membership column of a
one-centre index: the points whose ``label_members`` row lists it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo.distance import points_to_point_km
from repro.geo.index import CenterGridIndex


def _random_points(n, seed=0, lat_range=(-44, -10), lon_range=(113, 154)):
    rng = np.random.default_rng(seed)
    lats = rng.uniform(*lat_range, n)
    lons = rng.uniform(*lon_range, n)
    return lats, lons


def _brute_force(lats, lons, center, radius_km):
    """Indices of the points within ``radius_km`` of ``center``, ascending."""
    return np.flatnonzero(points_to_point_km(lats, lons, center) <= radius_km)


def _query(index, lats, lons):
    """Indices of the points whose ε-membership includes centre 0."""
    _labels, indptr, areas = index.label_members(lats, lons)
    rows = np.repeat(np.arange(lats.size), np.diff(indptr))
    return rows[areas == 0]


def _one_centre(center, radius_km, **kwargs):
    return CenterGridIndex(np.array([center[0]]), np.array([center[1]]), radius_km, **kwargs)


class TestBruteForce:
    """A one-cell grid: every centre is a candidate of every point."""

    def test_empty_index(self):
        index = _one_centre((0.0, 0.0), 100.0, max_cells_per_side=1)
        assert len(index) == 1
        labels, indptr, areas = index.label_members(np.empty(0), np.empty(0))
        assert labels.size == 0 and indptr.tolist() == [0] and areas.size == 0

    def test_query_finds_exact_point(self):
        index = _one_centre((-33.87, 151.21), 1.0, max_cells_per_side=1)
        labels, indptr, areas = index.label_members(np.array([-33.87]), np.array([151.21]))
        assert labels.tolist() == [0]
        assert areas.tolist() == [0]

    def test_negative_radius_raises(self):
        with pytest.raises(ValueError):
            _one_centre((0.0, 0.0), -1.0)
        with pytest.raises(ValueError):
            _one_centre((0.0, 0.0), 0.0)

    def test_count_matches_query(self):
        lats, lons = _random_points(500)
        center = (-33.0, 151.0)
        index = _one_centre(center, 200.0, max_cells_per_side=1)
        labelled = int((index.label_points(lats, lons) >= 0).sum())
        assert labelled == _query(index, lats, lons).size
        assert np.array_equal(_query(index, lats, lons), _brute_force(lats, lons, center, 200.0))

    def test_mismatched_arrays_raise(self):
        with pytest.raises(ValueError):
            CenterGridIndex(np.zeros(3), np.zeros(4), 10.0)
        index = _one_centre((0.0, 0.0), 10.0)
        with pytest.raises(ValueError):
            index.label_members(np.zeros(3), np.zeros(4))


class TestGridIndex:
    def test_matches_brute_force_on_random_data(self):
        lats, lons = _random_points(2000, seed=3)
        for center in [(-33.87, 151.21), (-37.81, 144.96), (-20.0, 130.0)]:
            for radius in (0.5, 5.0, 50.0, 500.0):
                index = _one_centre(center, radius)
                assert np.array_equal(
                    _query(index, lats, lons), _brute_force(lats, lons, center, radius)
                ), (center, radius)

    @given(
        st.integers(min_value=1, max_value=200),
        st.floats(min_value=0.1, max_value=3000.0),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_equivalence_property(self, n, radius, seed):
        lats, lons = _random_points(n, seed=seed)
        rng = np.random.default_rng(seed + 1)
        center = (rng.uniform(-44, -10), rng.uniform(113, 154))
        assert np.array_equal(
            _query(_one_centre(center, radius), lats, lons),
            _brute_force(lats, lons, center, radius),
        )

    def test_query_center_far_outside_grid(self):
        lats, lons = _random_points(100, seed=9)
        center = (60.0, -100.0)  # nowhere near the data
        assert np.array_equal(
            _query(_one_centre(center, 20000.0), lats, lons),
            _brute_force(lats, lons, center, 20000.0),
        )
        assert _query(_one_centre(center, 10.0), lats, lons).size == 0

    def test_empty_grid_index(self):
        with pytest.raises(ValueError, match="zero centres"):
            CenterGridIndex(np.empty(0), np.empty(0), 100.0)

    def test_duplicate_points_all_returned(self):
        lats = np.full(7, -33.87)
        lons = np.full(7, 151.21)
        assert _query(_one_centre((-33.87, 151.21), 1.0), lats, lons).size == 7

    def test_explicit_spec(self):
        lats, lons = _random_points(300, seed=4)
        index = _one_centre((-30.0, 140.0), 300.0, max_cells_per_side=20)
        assert index.spec.n_rows <= 20 and index.spec.n_cols <= 20
        assert np.array_equal(
            _query(index, lats, lons), _brute_force(lats, lons, (-30.0, 140.0), 300.0)
        )

    def test_count_radius(self):
        lats, lons = _random_points(400, seed=5)
        centres = np.array([[-33.0, 151.0], [-33.5, 150.5], [-20.0, 130.0]])
        index = CenterGridIndex(centres[:, 0], centres[:, 1], 150.0)
        _labels, _indptr, areas = index.label_members(lats, lons)
        counts = np.bincount(areas, minlength=len(centres))
        for j, center in enumerate(centres):
            assert counts[j] == _brute_force(lats, lons, tuple(center), 150.0).size
