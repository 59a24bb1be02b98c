"""Equivalence suite: the labelling kernel vs the dense reference.

Every ε-disc decision runs through :class:`repro.geo.index.CenterGridIndex`.
Its acceptance contract is *exact* agreement with the dense
masked-argmin reference — same winner, same first-minimum tie-break,
same outside-ε misses, same CSR membership — on every world: the
paper's legacy gazetteer and a synthetic one at each paper radius
(ε ∈ {2, 25, 50} km), a world whose discs straddle ±180° longitude, and
a near-polar world.  Points include ones sitting exactly on grid cell
edges and exactly at distance ε from a centre.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.label import (
    label_members,
    label_point,
    label_points,
    label_points_dense,
    membership_points,
)
from repro.core.world import World
from repro.data.gazetteer import Area, Scale, gazetteer_from_spec
from repro.geo.bbox import AUSTRALIA_BBOX
from repro.geo.coords import Coordinate
from repro.geo.distance import destination_point, points_to_point_km
from repro.geo.index import CenterGridIndex

#: One synthetic world per paper scale; 300 leaves keeps builds fast
#: while giving the metro scale hundreds of areas.
GAZETTEER = "synth:300@5"

#: ε per scale, as Section III fixes them.
RADII = {Scale.NATIONAL: 50.0, Scale.STATE: 25.0, Scale.METROPOLITAN: 2.0}


@lru_cache(maxsize=None)
def world_for(scale: Scale, gazetteer: str | None = GAZETTEER) -> World:
    return World.from_scale(scale, gazetteer=gazetteer)


def _custom_world(centres: list[tuple[float, float]], radius_km: float) -> World:
    return World.from_areas(
        tuple(
            Area(
                name=f"c{i}",
                center=Coordinate(lat=lat, lon=lon),
                population=1000,
                scale=Scale.NATIONAL,
            )
            for i, (lat, lon) in enumerate(centres)
        ),
        radius_km,
    )


#: Fiji-like centres on both sides of ±180°: discs cross the antimeridian.
ANTIMERIDIAN = _custom_world(
    [(-17.7, 179.99), (-18.1, 178.44), (-16.5, -179.9), (-17.0, 179.5), (-17.7, -179.8)],
    25.0,
)

#: Centres within a few degrees of the North Pole, spread in longitude.
NEAR_POLAR = _custom_world(
    [(89.9, 0.0), (88.5, 120.0), (87.0, -60.0), (89.5, 179.0), (86.0, -179.5)],
    50.0,
)

_AUSTRALIA = (
    AUSTRALIA_BBOX.min_lat - 1.0,
    AUSTRALIA_BBOX.max_lat + 1.0,
    AUSTRALIA_BBOX.min_lon - 1.0,
    AUSTRALIA_BBOX.max_lon + 1.0,
)

#: Every world under test, with the (lat, lon) box points are drawn from.
WORLD_BOXES = {
    **{
        f"{scale.value}-synth": (lambda scale=scale: world_for(scale), _AUSTRALIA)
        for scale in Scale
    },
    **{
        f"{scale.value}-legacy": (lambda scale=scale: world_for(scale, None), _AUSTRALIA)
        for scale in Scale
    },
    "antimeridian": (lambda: ANTIMERIDIAN, (-20.0, -15.0, 176.0, 184.0)),
    "near-polar": (lambda: NEAR_POLAR, (80.0, 90.0, -180.0, 180.0)),
}
WORLD_NAMES = sorted(WORLD_BOXES)

world_strategy = st.sampled_from(WORLD_NAMES)
unit_points = st.lists(
    st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), min_size=1, max_size=64
)


def _wrap(lons: np.ndarray) -> np.ndarray:
    return (lons + 180.0) % 360.0 - 180.0


def points_in(name: str, unit: list[tuple[float, float]]) -> tuple[World, np.ndarray, np.ndarray]:
    """Map unit-square draws into the named world's box (longitudes wrapped)."""
    make, (lat0, lat1, lon0, lon1) = WORLD_BOXES[name]
    u = np.array([p[0] for p in unit])
    v = np.array([p[1] for p in unit])
    return make(), lat0 + u * (lat1 - lat0), _wrap(lon0 + v * (lon1 - lon0))


def assert_equivalent(world: World, lats: np.ndarray, lons: np.ndarray) -> None:
    """Kernel labelling must match the dense reference element-for-element."""
    grid = world.center_grid.label_points(lats, lons)
    dense = label_points_dense(world, lats, lons)
    assert np.array_equal(grid, dense), (
        f"grid/dense disagree at ε={world.radius_km}: "
        f"{grid.tolist()} != {dense.tolist()}"
    )


def _edge_point(world: World, row: int, col: int) -> tuple[np.ndarray, np.ndarray]:
    """A point exactly on one of the index's own cell boundary lines."""
    spec = world.center_grid.spec
    lat = spec.bbox.min_lat + (row % (spec.n_rows + 1)) * spec.cell_height_deg
    lon = spec.bbox.min_lon + (col % (spec.n_cols + 1)) * spec.cell_width_deg
    return np.array([lat, lat]), np.array([lon, _wrap(np.array(lon))])


class TestGridDenseEquivalence:
    @given(unit=unit_points, name=world_strategy)
    @settings(max_examples=80, deadline=None)
    def test_random_points_every_radius(self, unit, name):
        world, lats, lons = points_in(name, unit)
        assert_equivalent(world, lats, lons)

    def test_paper_radii(self):
        for scale in Scale:
            assert world_for(scale).radius_km == RADII[scale]
            assert world_for(scale, None).radius_km == RADII[scale]

    @given(
        area=st.integers(min_value=0, max_value=299),
        bearing=st.floats(min_value=0.0, max_value=360.0),
        fraction=st.sampled_from([0.0, 0.5, 0.999999, 1.0, 1.000001, 1.5]),
        name=world_strategy,
    )
    @settings(max_examples=80, deadline=None)
    def test_points_near_the_epsilon_boundary(self, area, bearing, fraction, name):
        """Points at, just inside and just outside ε from a real centre."""
        world = WORLD_BOXES[name][0]()
        center = world.areas[area % world.n_areas].center
        point = destination_point(center, bearing, world.radius_km * fraction)
        lons = np.array([point.lon])
        assert_equivalent(world, np.array([point.lat] * 2), np.r_[lons, _wrap(lons)])

    @given(
        row=st.integers(min_value=0, max_value=10_000),
        col=st.integers(min_value=0, max_value=10_000),
        name=world_strategy,
    )
    @settings(max_examples=80, deadline=None)
    def test_points_on_grid_cell_edges(self, row, col, name):
        """Points exactly on the index's own cell boundary lines."""
        world = WORLD_BOXES[name][0]()
        assert_equivalent(world, *_edge_point(world, row, col))

    def test_centres_label_to_themselves(self):
        for name in WORLD_NAMES:
            world = WORLD_BOXES[name][0]()
            labels = world.center_grid.label_points(
                world.centers_lat, world.centers_lon
            )
            dense = label_points_dense(world, world.centers_lat, world.centers_lon)
            assert np.array_equal(labels, dense)
            # A centre is distance 0 from itself; some other centre can
            # only tie, and ties break to the earlier index.
            assert np.all(labels <= np.arange(world.n_areas))

    def test_legacy_world_unaffected_and_equivalent(self):
        """The paper's worlds take the kernel too, bitwise the dense oracle."""
        rng = np.random.default_rng(11)
        lats = rng.uniform(-45.0, -10.0, 500)
        lons = rng.uniform(112.0, 155.0, 500)
        for scale in Scale:
            world = world_for(scale, gazetteer=None)
            assert np.array_equal(
                label_points(world, lats, lons),
                label_points_dense(world, lats, lons),
            )
            assert_equivalent(world, lats, lons)

    def test_large_world_dispatch_routes_through_grid(self):
        world = world_for(Scale.METROPOLITAN)
        rng = np.random.default_rng(12)
        lats = rng.uniform(-45.0, -10.0, 2000)
        lons = rng.uniform(112.0, 155.0, 2000)
        assert np.array_equal(
            label_points(world, lats, lons),
            label_points_dense(world, lats, lons),
        )

    def test_label_point_matches_batch(self):
        for name in WORLD_NAMES:
            world = WORLD_BOXES[name][0]()
            for area in (0, world.n_areas // 2, world.n_areas - 1):
                center = world.areas[area].center
                scalar = label_point(world, center.lat, center.lon)
                batch = label_points(
                    world, np.array([center.lat]), np.array([center.lon])
                )
                assert scalar == int(batch[0])

    def test_antimeridian_neighbour_is_found(self):
        """A disc straddling ±180° reaches points on the other side."""
        world = _custom_world([(-17.7, 179.99)], 25.0)
        lats, lons = np.array([-17.7]), np.array([-179.99])
        assert label_points_dense(world, lats, lons).tolist() == [0]
        assert world.center_grid.label_points(lats, lons).tolist() == [0]
        assert label_members(world, lats, lons)[2].tolist() == [0]

    def test_chunked_scan_equals_dense(self):
        """Inputs longer than one scan chunk stitch back together exactly."""
        from repro.geo.index import SCAN_CHUNK

        world = world_for(Scale.NATIONAL, None)
        rng = np.random.default_rng(16)
        picks = rng.integers(0, world.n_areas, SCAN_CHUNK + 777)
        lats = world.centers_lat[picks] + rng.normal(0.0, 0.5, picks.size)
        lons = world.centers_lon[picks] + rng.normal(0.0, 0.5, picks.size)
        assert_membership_equivalent(world, lats, lons)


def _csr_to_dense(indptr: np.ndarray, areas: np.ndarray, n_areas: int) -> np.ndarray:
    dense = np.zeros((indptr.size - 1, n_areas), dtype=bool)
    rows = np.repeat(np.arange(indptr.size - 1), np.diff(indptr))
    dense[rows, areas] = True
    return dense


def assert_membership_equivalent(world: World, lats: np.ndarray, lons: np.ndarray) -> None:
    """Sparse membership (grid scan and entry point) ≡ dense ``membership_points``."""
    dense_members = membership_points(world, lats, lons)
    dense_labels = label_points_dense(world, lats, lons)
    for labels, indptr, areas in (
        world.center_grid.label_members(lats, lons),
        label_members(world, lats, lons),
    ):
        assert indptr[0] == 0 and indptr[-1] == areas.size
        rows = np.repeat(np.arange(lats.size), np.diff(indptr))
        assert np.all((np.diff(areas) > 0) | (np.diff(rows) > 0)), "areas must ascend per row"
        assert np.array_equal(
            _csr_to_dense(indptr, areas, world.n_areas), dense_members
        ), f"CSR/dense membership disagree at ε={world.radius_km}"
        assert np.array_equal(labels, dense_labels)


class TestMembershipCsrEquivalence:
    """``label_members``' CSR ε-membership vs the dense reference matrix.

    Checked both on the grid scan directly and through the
    :func:`label_members` entry point.
    """

    @given(unit=unit_points, name=world_strategy)
    @settings(max_examples=80, deadline=None)
    def test_random_points_every_radius(self, unit, name):
        world, lats, lons = points_in(name, unit)
        assert_membership_equivalent(world, lats, lons)

    @given(
        area=st.integers(min_value=0, max_value=299),
        bearing=st.floats(min_value=0.0, max_value=360.0),
        fraction=st.sampled_from([0.0, 0.5, 0.999999, 1.0, 1.000001, 1.5]),
        name=world_strategy,
    )
    @settings(max_examples=80, deadline=None)
    def test_points_near_the_epsilon_boundary(self, area, bearing, fraction, name):
        world = WORLD_BOXES[name][0]()
        center = world.areas[area % world.n_areas].center
        point = destination_point(center, bearing, world.radius_km * fraction)
        lons = np.array([point.lon])
        assert_membership_equivalent(
            world, np.array([point.lat] * 2), np.r_[lons, _wrap(lons)]
        )

    @given(
        area=st.integers(min_value=0, max_value=299),
        bearing=st.floats(min_value=0.0, max_value=360.0),
        name=world_strategy,
    )
    @settings(max_examples=60, deadline=None)
    def test_points_exactly_at_epsilon_are_members(self, area, bearing, name):
        """ε set to a point's exact kernel distance: the disc includes it."""
        base = WORLD_BOXES[name][0]()
        index = area % base.n_areas
        center = base.areas[index].center
        point = destination_point(center, bearing, base.radius_km * 0.9)
        lats, lons = np.array([point.lat]), np.array([point.lon])
        exact = float(points_to_point_km(lats, lons, (center.lat, center.lon))[0])
        if exact <= 0.0:
            return
        world = base.with_radius(exact)
        _labels, indptr, areas = world.center_grid.label_members(lats, lons)
        assert index in areas.tolist()
        assert_membership_equivalent(world, lats, lons)

    @given(
        row=st.integers(min_value=0, max_value=10_000),
        col=st.integers(min_value=0, max_value=10_000),
        name=world_strategy,
    )
    @settings(max_examples=80, deadline=None)
    def test_points_on_grid_cell_edges(self, row, col, name):
        world = WORLD_BOXES[name][0]()
        assert_membership_equivalent(world, *_edge_point(world, row, col))

    def test_centres_and_dense_clouds(self):
        rng = np.random.default_rng(14)
        for name in WORLD_NAMES:
            world = WORLD_BOXES[name][0]()
            assert_membership_equivalent(world, world.centers_lat, world.centers_lon)
            # Jitter around the centres so many points sit in overlaps.
            picks = rng.integers(0, world.n_areas, 400)
            jitter = world.radius_km / 111.0
            lats = np.clip(world.centers_lat[picks] + rng.uniform(-jitter, jitter, 400), -90, 90)
            lons = _wrap(world.centers_lon[picks] + rng.uniform(-jitter, jitter, 400))
            assert_membership_equivalent(world, lats, lons)

    def test_legacy_world_equals_dense_oracle(self):
        rng = np.random.default_rng(15)
        lats = rng.uniform(-45.0, -10.0, 500)
        lons = rng.uniform(112.0, 155.0, 500)
        for scale in Scale:
            assert_membership_equivalent(world_for(scale, gazetteer=None), lats, lons)

    def test_empty_input(self):
        world = world_for(Scale.METROPOLITAN)
        labels, indptr, areas = label_members(world, np.empty(0), np.empty(0))
        assert labels.size == 0 and indptr.tolist() == [0] and areas.size == 0


class TestPinnedCases:
    def _two_centre_world(self, radius_km: float = 50.0) -> World:
        return _custom_world([(0.0, -0.1), (0.0, 0.1)], radius_km)

    def test_exact_tie_breaks_to_lower_index(self):
        world = self._two_centre_world()
        grid = CenterGridIndex(world.centers_lat, world.centers_lon, world.radius_km)
        # (0, 0) is bitwise equidistant from the mirrored centres.
        assert grid.label_points(np.zeros(1), np.zeros(1)).tolist() == [0]
        assert label_points_dense(world, np.zeros(1), np.zeros(1))[0] == 0

    def test_outside_epsilon_is_minus_one(self):
        world = self._two_centre_world(radius_km=5.0)
        grid = CenterGridIndex(world.centers_lat, world.centers_lon, world.radius_km)
        labels = grid.label_points(np.array([3.0, 0.0]), np.array([0.0, 0.1]))
        assert labels.tolist() == [-1, 1]

    def test_point_far_outside_grid_box_short_circuits(self):
        world = self._two_centre_world(radius_km=5.0)
        grid = CenterGridIndex(world.centers_lat, world.centers_lon, world.radius_km)
        labels = grid.label_points(np.array([80.0, -80.0]), np.array([170.0, -170.0]))
        assert labels.tolist() == [-1, -1]


class TestLegacyNeverRoutesThroughGenerator:
    def test_legacy_paths_never_import_or_call_the_generator(self, monkeypatch):
        """The paper's worlds must not depend on the synthesiser at all."""
        import repro.geo.gazetteer as generator

        def _boom(*args, **kwargs):  # pragma: no cover - must never run
            raise AssertionError("legacy path reached the gazetteer generator")

        monkeypatch.setattr(generator, "build_gazetteer", _boom)
        monkeypatch.setattr(generator, "cached_gazetteer", _boom)

        for spec in (None, "", "legacy"):
            assert gazetteer_from_spec(spec).is_legacy
        for scale in Scale:
            world = World.from_scale(scale)
            assert world.n_areas == 20
            assert not world.has_footprints

    def test_legacy_synth_config_never_touches_generator(self, monkeypatch):
        import repro.geo.gazetteer as generator
        from repro.synth.config import SynthConfig

        def _boom(*args, **kwargs):  # pragma: no cover - must never run
            raise AssertionError("legacy config reached the gazetteer generator")

        monkeypatch.setattr(generator, "parse_gazetteer_spec", _boom)
        config = SynthConfig(n_users=10)
        assert config.gazetteer == "legacy"

    def test_synth_spec_does_use_generator(self):
        gazetteer = gazetteer_from_spec("synth:60@7")
        assert not gazetteer.is_legacy
        assert gazetteer.n_areas >= 60
        with pytest.raises(Exception):
            gazetteer_from_spec("synth:nope")
