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
