"""ε-disc labelling over a fixed set of area centres.

Section III of the paper decides, for every tweet, which area centres
lie within the search radius ε (population counts the tweet toward each
of them) and which of those is nearest (the OD label).
:class:`CenterGridIndex` answers both questions for a whole array of
points in one vectorised scan; :mod:`repro.core.label` routes every
labelling entry point through it.
"""

from __future__ import annotations

import math

import numpy as np

from repro.geo.bbox import BoundingBox
from repro.geo.distance import EARTH_RADIUS_KM
from repro.geo.grid import GridSpec

#: Points scanned per chunk.  Bounds the (point, candidate) pair arrays
#: a scan materialises, so memory stays flat however many points are
#: labelled at once.
SCAN_CHUNK = 16_384


class CenterGridIndex:
    """Grid-bucketed ε-membership and nearest-centre labels.

    Every cell of a uniform lat/lon grid lists the centres whose ε-disc
    could reach it (CSR arrays, centres ascending).  A scan expands each
    point into (point, candidate) pairs, computes every pair's haversine
    in one call, and reduces per point.

    The answers equal a dense ``(n_points, n_centres)`` distance matrix
    masked to ``distance <= ε`` — bitwise, by construction:

    * each pair's distance runs the exact elementwise arithmetic of
      :func:`repro.geo.distance.points_to_point_km` (the centre's
      ``cos φ`` from :func:`math.cos`), so it equals the dense entry;
    * registration is conservative (a centre is a candidate of every
      cell its margin rectangle touches, the longitude margin widened
      for the pole-most latitude the disc can reach), so a
      non-candidate is provably farther than ε;
    * candidates ascend, and the label is the first pair per point at
      the point's minimum distance: ``argmin``'s first-minimum rule,
      i.e. ties go to the earlier centre.

    Longitude wraps: a point's longitude is moved into the grid's
    window for the cell lookup only, and every centre is also
    registered at ±360°, so discs that straddle ±180° find their
    points.  Distances use the original longitudes.
    """

    #: Longitude-margin safety factor: the planar ε→degrees conversion
    #: underestimates the true spherical disc width by O((ε/R)²); 5 % is
    #: orders of magnitude more than needed for ε ≤ 100 km.
    _LON_SAFETY = 1.05

    def __init__(
        self,
        lats_deg: np.ndarray,
        lons_deg: np.ndarray,
        radius_km: float,
        max_cells_per_side: int = 512,
    ) -> None:
        if radius_km <= 0:
            raise ValueError(f"radius must be positive, got {radius_km}")
        self._lats = np.asarray(lats_deg, dtype=np.float64)
        self._lons = np.asarray(lons_deg, dtype=np.float64)
        if self._lats.shape != self._lons.shape or self._lats.ndim != 1:
            raise ValueError("lats/lons must be equal-length 1-D arrays")
        if self._lats.size == 0:
            raise ValueError("cannot index zero centres")
        self.radius_km = float(radius_km)
        # The scalar cos φ₂ of points_to_point_km, one per centre.
        self._cos_lats = np.array([math.cos(math.radians(lat)) for lat in self._lats.tolist()])

        km_per_deg = np.pi * EARTH_RADIUS_KM / 180.0
        margin_lat = self.radius_km / km_per_deg
        lo_lat = float(self._lats.min()) - margin_lat
        hi_lat = float(self._lats.max()) + margin_lat
        # The pole-most latitude any in-range point can have bounds how
        # wide (in degrees of longitude) an ε separation can be.
        extreme_lat = min(max(abs(lo_lat), abs(hi_lat)), 89.9)
        cos_extreme = np.cos(np.radians(extreme_lat))
        margin_lon = self.radius_km / (km_per_deg * max(cos_extreme, 0.1)) * self._LON_SAFETY
        if cos_extreme < 0.1 or margin_lon >= 180.0:
            margin_lon = 360.0  # near-polar or huge ε: discs span every column
        self._margin_lat = margin_lat
        self._margin_lon = margin_lon

        bbox = BoundingBox(
            min_lat=max(-90.0, lo_lat),
            max_lat=min(90.0, hi_lat),
            min_lon=float(self._lons.min()) - margin_lon,
            max_lon=float(self._lons.max()) + margin_lon,
        )
        # Cells roughly ε across (so a disc touches O(1) cells), capped
        # so tiny radii over a country box cannot explode the grid.
        lat_cells = int(np.ceil(bbox.lat_span * km_per_deg / self.radius_km))
        lon_km_per_deg = km_per_deg * max(np.cos(np.radians(bbox.center.lat)), 0.1)
        lon_cells = int(np.ceil(bbox.lon_span * lon_km_per_deg / self.radius_km))
        self.spec = GridSpec(
            bbox=bbox,
            n_rows=int(np.clip(lat_cells, 1, max_cells_per_side)),
            n_cols=int(np.clip(lon_cells, 1, max_cells_per_side)),
        )
        self._build_candidates()

    def _build_candidates(self) -> None:
        """CSR cell → candidate lists from every centre's margin rectangle.

        Each centre is registered at longitude offsets -360, 0 and +360;
        duplicate (cell, centre) pairs collapse.  Cell ``n_rows * n_cols``
        is an always-empty sentinel for points outside the grid.
        """
        spec = self.spec
        bbox = spec.bbox
        n_centres = self._lats.size
        n_cells = spec.n_rows * spec.n_cols
        lo_row = np.floor((self._lats - self._margin_lat - bbox.min_lat) / spec.cell_height_deg)
        hi_row = np.floor((self._lats + self._margin_lat - bbox.min_lat) / spec.cell_height_deg)
        lo_row = np.maximum(lo_row, 0).astype(np.int64)
        hi_row = np.minimum(hi_row, spec.n_rows - 1).astype(np.int64)
        rects: list[tuple[np.ndarray, ...]] = []
        for offset in (-360.0, 0.0, 360.0):
            lons = self._lons + offset
            lo_col = np.floor((lons - self._margin_lon - bbox.min_lon) / spec.cell_width_deg)
            hi_col = np.floor((lons + self._margin_lon - bbox.min_lon) / spec.cell_width_deg)
            lo_col = np.maximum(lo_col, 0).astype(np.int64)
            hi_col = np.minimum(hi_col, spec.n_cols - 1).astype(np.int64)
            keep = (lo_row <= hi_row) & (lo_col <= hi_col)
            centre = np.flatnonzero(keep)
            rects.append((centre, lo_row[keep], hi_row[keep], lo_col[keep], hi_col[keep]))
        centre, r0, r1, c0, c1 = (np.concatenate(parts) for parts in zip(*rects))
        n_cols = c1 - c0 + 1
        sizes = (r1 - r0 + 1) * n_cols
        rect = np.repeat(np.arange(sizes.size), sizes)
        k = np.arange(int(sizes.sum())) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        cells = (r0[rect] + k // n_cols[rect]) * spec.n_cols + c0[rect] + k % n_cols[rect]
        keys = np.unique(cells * n_centres + centre[rect])
        self._candidates = keys % n_centres
        self._cell_ptr = np.zeros(n_cells + 2, dtype=np.int64)
        np.cumsum(np.bincount(keys // n_centres, minlength=n_cells + 1), out=self._cell_ptr[1:])

    def __len__(self) -> int:
        return int(self._lats.size)

    def label_points(self, lats_deg: np.ndarray, lons_deg: np.ndarray) -> np.ndarray:
        """Nearest centre within ε for each point, else -1."""
        return self.label_members(lats_deg, lons_deg)[0]

    def label_members(
        self, lats_deg: np.ndarray, lons_deg: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Labels plus the CSR ε-membership, from one candidate scan.

        Returns ``(labels, indptr, areas)``: ``labels[i]`` is the
        nearest centre within ε of point ``i`` (ties to the earlier
        centre) or -1, and the centres whose ε-disc contains point ``i``
        (``distance <= ε``) are ``areas[indptr[i]:indptr[i + 1]]``,
        ascending.  Points are scanned :data:`SCAN_CHUNK` at a time.
        """
        lats = np.asarray(lats_deg, dtype=np.float64)
        lons = np.asarray(lons_deg, dtype=np.float64)
        if lats.shape != lons.shape or lats.ndim != 1:
            raise ValueError("lats/lons must be equal-length 1-D arrays")
        n = lats.size
        labels = np.full(n, -1, dtype=np.int64)
        counts = np.zeros(n, dtype=np.int64)
        members = [np.empty(0, dtype=np.int64)]
        for lo in range(0, n, SCAN_CHUNK):
            hi = min(lo + SCAN_CHUNK, n)
            members.append(self._scan(lats[lo:hi], lons[lo:hi], labels[lo:hi], counts[lo:hi]))
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return labels, indptr, np.concatenate(members)

    def _cells(self, lats: np.ndarray, lons: np.ndarray) -> np.ndarray:
        """Each point's cell id; the empty sentinel cell when outside the grid."""
        spec = self.spec
        bbox = spec.bbox
        offsets = np.mod(lons - bbox.min_lon, 360.0)
        inside = (lats >= bbox.min_lat) & (lats <= bbox.max_lat) & (offsets <= bbox.lon_span)
        # Inside points have non-negative rows and columns; the top and
        # right box edges clamp into the last row and column.
        rows = np.minimum(np.floor((lats - bbox.min_lat) / spec.cell_height_deg), spec.n_rows - 1)
        cols = np.minimum(np.floor(offsets / spec.cell_width_deg), spec.n_cols - 1)
        sentinel = spec.n_rows * spec.n_cols
        return np.where(inside, rows * spec.n_cols + cols, sentinel).astype(np.int64)

    def _scan(
        self, lats: np.ndarray, lons: np.ndarray, labels: np.ndarray, counts: np.ndarray
    ) -> np.ndarray:
        """Fill one chunk's ``labels``/``counts`` in place; return its members."""
        cells = self._cells(lats, lons)
        starts = self._cell_ptr[cells]
        sizes = self._cell_ptr[cells + 1] - starts
        first = np.cumsum(sizes) - sizes
        row = np.repeat(np.arange(lats.size), sizes)
        cand = self._candidates[np.arange(row.size) - np.repeat(first - starts, sizes)]
        if cand.size == 0:
            return cand
        # points_to_point_km's arithmetic, pair by pair.
        plats = lats[row]
        phi1 = np.radians(plats)
        dphi = np.radians(self._lats[cand] - plats)
        dlmb = np.radians(self._lons[cand] - lons[row])
        h = np.sin(dphi / 2.0) ** 2 + np.cos(phi1) * self._cos_lats[cand] * np.sin(dlmb / 2.0) ** 2
        np.clip(h, 0.0, 1.0, out=h)
        dist = 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(h))

        inside = dist <= self.radius_km
        scanned = sizes > 0
        best = np.full(lats.size, np.inf)
        best[scanned] = np.minimum.reduceat(np.where(inside, dist, np.inf), first[scanned])
        hits = np.flatnonzero(dist == best[row])
        hit_rows = row[hits]
        first_hit = np.ones(hits.size, dtype=bool)
        first_hit[1:] = hit_rows[1:] != hit_rows[:-1]
        labels[hit_rows[first_hit]] = cand[hits[first_hit]]
        counts[:] = np.bincount(row[inside], minlength=lats.size)
        return cand[inside]
