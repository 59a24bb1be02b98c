"""repro — reproduction of Liu et al., "Multi-scale Population and
Mobility Estimation with Geo-tagged Tweets" (ICDE 2015).

The package estimates population distributions and inter-area mobility
from geo-tagged tweets, compares Gravity and Radiation mobility models
at national/state/metropolitan scales, and extends the pipeline to
metapopulation disease-spread forecasting.

Quick start::

    from repro.synth import SynthConfig, generate_corpus
    from repro.experiments import run_all_experiments

    corpus = generate_corpus(SynthConfig(n_users=40_000)).corpus
    print(run_all_experiments(corpus).render())

Subpackages
-----------
``repro.geo``         geodesy, spatial indexing, density grids
``repro.data``        tweet records, Australian gazetteer, I/O, corpus
``repro.synth``       synthetic geo-tagged tweet generator
``repro.extraction``  population / mobility / dynamics extraction
``repro.models``      Gravity, Radiation, intervening opportunities
``repro.stats``       correlation, binning, metrics, power-law fits
``repro.experiments`` one module per paper table/figure
``repro.epidemic``    metapopulation SEIR on fitted mobility networks
``repro.viz``         terminal figure rendering


The top-level names below resolve on first access, so ``import repro``
(and with it ``repro --version``, ``--help`` and ``repro check``) loads
only the standard library; numpy and scipy arrive with the first
subpackage that needs them.
"""

import importlib

__version__ = "1.0.0"

#: Public name -> defining module, imported on first attribute access.
_LAZY = {
    "Scale": "repro.data.gazetteer",
    "SynthConfig": "repro.synth.config",
    "TweetCorpus": "repro.data.corpus",
    "generate_corpus": "repro.synth.generator",
}

__all__ = ["Scale", "SynthConfig", "TweetCorpus", "__version__", "generate_corpus"]


def __getattr__(name: str) -> object:
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))
