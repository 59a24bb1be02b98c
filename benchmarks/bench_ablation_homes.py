"""A6 — population estimation: presence-based vs home-based counts.

The paper counts every user who *tweeted* inside an area's disc
("presence").  The home-detection alternative counts each user once, at
their modal location.  This ablation times both estimators on the
national scale and prints their census correlations; home-based counts
remove double counting and usually tighten the fit.
"""

import numpy as np

from repro.data.gazetteer import Scale, areas_for_scale
from repro.extraction.homes import detect_home_locations, home_based_population
from repro.extraction.population import (
    extract_area_observations,
    twitter_population_arrays,
)
from repro.stats import log_pearson


def test_presence_based(benchmark, bench_context):
    """Time the paper's presence-based estimator."""
    areas = areas_for_scale(Scale.NATIONAL)

    def extract():
        return extract_area_observations(bench_context.corpus, areas, 50.0)

    observations = benchmark(extract)
    twitter, census = twitter_population_arrays(observations)
    correlation = log_pearson(twitter, census)
    print(f"\nA6 presence-based: r={correlation.r:.3f}")


def test_home_based(benchmark, bench_context):
    """Time home detection + home-based counting."""
    areas = areas_for_scale(Scale.NATIONAL)
    corpus = bench_context.corpus

    def pipeline():
        homes = detect_home_locations(corpus)
        return home_based_population(homes, areas, 50.0)

    counts = benchmark.pedantic(pipeline, rounds=1, iterations=1)
    census = np.array([a.population for a in areas], dtype=np.float64)
    correlation = log_pearson(counts.astype(np.float64), census)
    print(f"\nA6 home-based: r={correlation.r:.3f} ({counts.sum()} users placed)")
