"""Population mapping: density maps and census correlation (Fig 1 + Fig 3).

The scenario from the paper's Section III: a public-health analyst needs
a population distribution estimate *now*, without waiting for a census.

    python examples/population_mapping.py [n_users]

Produces:
* the Fig 1 tweet-density map of Australia;
* the per-scale Twitter-vs-census correlation, with the rescaling
  factor C an analyst would apply to convert user counts to people;
* a search-radius sweep showing where the metropolitan estimate breaks
  down (the paper's Fig 3(b) observation, generalised).
"""

import sys

from repro.data.gazetteer import Scale, areas_for_scale
from repro.experiments import ExperimentContext, run_fig1, run_fig3
from repro.extraction.population import (
    extract_area_observations,
    twitter_population_arrays,
)
from repro.stats import log_pearson
from repro.synth import SynthConfig, generate_corpus


def radius_sweep(context: ExperimentContext) -> None:
    """Print the metropolitan correlation across search radii."""
    print("Search-radius sweep (metropolitan scale):")
    areas = areas_for_scale(Scale.METROPOLITAN)
    for radius_km in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0):
        observations = extract_area_observations(context.corpus, areas, radius_km)
        twitter, census = twitter_population_arrays(observations)
        correlation = log_pearson(twitter, census)
        bar = "#" * max(0, int(correlation.r * 40))
        print(f"  eps={radius_km:>5.2f} km  r={correlation.r:+.3f}  {bar}")
    print(
        "  -> too small a radius misses the activity hotspots; too large\n"
        "     a radius bleeds neighbouring suburbs in.  The paper's 2 km\n"
        "     choice sits in the usable window."
    )


def main() -> None:
    n_users = int(sys.argv[1]) if len(sys.argv) > 1 else 20_000
    print(f"Synthesising {n_users} users ...\n")
    corpus = generate_corpus(SynthConfig(n_users=n_users)).corpus
    context = ExperimentContext(corpus)

    print(run_fig1(corpus).render(max_width=90))
    print()
    print(run_fig3(context).render())
    print()
    radius_sweep(context)


if __name__ == "__main__":
    main()
