"""A11 — extraction geometry: ε-discs vs hexagonal cells.

Real deployments have boundary polygons, not discs.  This ablation runs
metropolitan population extraction with both geometries and compares
census correlations and cost — quantifying how much the paper's disc
simplification matters.
"""

import numpy as np

from repro.data.gazetteer import Scale, areas_for_scale
from repro.extraction.polygons import extract_polygon_observations, hexagon_areas
from repro.extraction.population import (
    extract_area_observations,
    twitter_population_arrays,
)
from repro.stats import log_pearson


def test_disc_extraction(benchmark, bench_context):
    """The paper's 2 km disc extraction at metropolitan scale."""
    areas = areas_for_scale(Scale.METROPOLITAN)

    def extract():
        return extract_area_observations(bench_context.corpus, areas, 2.0)

    observations = benchmark(extract)
    twitter, census = twitter_population_arrays(observations)
    print(f"\nA11 disc (eps=2 km): r={log_pearson(twitter, census).r:.3f}")


def test_hexagon_extraction(benchmark, bench_context):
    """Hexagonal cells of 2 km circumradius around the same centres."""
    hexes = hexagon_areas(areas_for_scale(Scale.METROPOLITAN), 2.0)
    corpus = bench_context.corpus

    def extract():
        return extract_polygon_observations(corpus, hexes)

    observations = benchmark.pedantic(extract, rounds=1, iterations=1)
    users = np.array([o.n_users for o in observations], dtype=np.float64)
    census = np.array([o.census_population for o in observations], dtype=np.float64)
    print(f"\nA11 hexagon (R=2 km): r={log_pearson(users, census).r:.3f}")
