"""The package root's public names survive lazy resolution."""

import pytest

import repro
from repro import Scale, SynthConfig, TweetCorpus, generate_corpus
from repro.cli import SCALES


def test_root_names_resolve_to_their_defining_modules():
    from repro.data.corpus import TweetCorpus as corpus_cls
    from repro.data.gazetteer import Scale as scale_cls
    from repro.synth.config import SynthConfig as config_cls
    from repro.synth.generator import generate_corpus as generate

    assert (Scale, SynthConfig, TweetCorpus, generate_corpus) == (
        scale_cls, config_cls, corpus_cls, generate,
    )


def test_all_dir_and_version():
    assert sorted(repro.__all__) == [
        "Scale", "SynthConfig", "TweetCorpus", "__version__", "generate_corpus",
    ]
    assert set(repro.__all__) <= set(dir(repro))
    assert all(getattr(repro, name) is not None for name in repro.__all__)
    assert isinstance(repro.__version__, str) and repro.__version__


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        repro.no_such_name


def test_cli_scale_choices_match_the_enum():
    assert list(SCALES) == [s.value for s in Scale]


#: The experiments package's public names (resolved lazily since the
#: pipeline imports single experiment modules).
EXPERIMENTS_ALL = [
    "DistanceAnalysisResult", "ExperimentContext", "ExperimentSuiteResult",
    "Fig1Result", "Fig2Result", "Fig3Result", "Fig4Result", "ForecastResult",
    "GroundTruthResult", "ScaleSpec", "Table1Result", "Table2Result",
    "default_scale_specs", "generate_report", "reproduction_checklist",
    "run_all_experiments", "run_distance_analysis", "run_fig1", "run_fig2",
    "run_fig3", "run_fig4", "run_forecast_experiment",
    "run_ground_truth_validation", "run_table1", "run_table2", "true_area_flows",
]


def test_experiments_all_and_dir():
    import repro.experiments as experiments

    assert sorted(experiments.__all__) == EXPERIMENTS_ALL
    assert set(EXPERIMENTS_ALL) <= set(dir(experiments))
    for name in EXPERIMENTS_ALL:
        value = getattr(experiments, name)
        assert value.__name__ == name
        assert value.__module__.startswith("repro.experiments.")
    with pytest.raises(AttributeError, match="no_such_name"):
        experiments.no_such_name
