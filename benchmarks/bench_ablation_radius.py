"""A1 — search-radius sensitivity sweep.

The paper probes a single alternative metropolitan radius (0.5 km,
Fig 3b).  This ablation sweeps ε from 0.25 km to 8 km and prints the
metropolitan census correlation per radius, quantifying the window in
which the suburb-level estimate is usable.
"""

import pytest

from repro.data.gazetteer import Scale, areas_for_scale
from repro.extraction.population import (
    extract_area_observations,
    twitter_population_arrays,
)
from repro.stats import log_pearson

RADII_KM = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)


@pytest.mark.parametrize("radius_km", RADII_KM)
def test_radius_sweep(benchmark, bench_context, radius_km):
    """Time metropolitan extraction at one ε and print its correlation."""
    areas = areas_for_scale(Scale.METROPOLITAN)
    corpus = bench_context.corpus

    def extract():
        return extract_area_observations(corpus, areas, radius_km)

    observations = benchmark(extract)
    twitter, census = twitter_population_arrays(observations)
    correlation = log_pearson(twitter, census)
    print(
        f"\nA1 radius sweep: eps={radius_km:>5.2f} km  "
        f"r={correlation.r:+.3f}  median_users={sorted(twitter)[10]:.0f}"
    )
