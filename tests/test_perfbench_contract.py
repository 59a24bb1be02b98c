"""The benchmark's layer map installs against this tree and restores it.

``perfbench`` wraps named ``repro`` entry points for its traced runs
(``benchlib.layers.install``).  Renaming or deleting any of them breaks
every traced benchmark run, and ``perfbench/tests`` sits outside
``testpaths``, so the contract is pinned here: installing the wrappers
must find every name, and leaving the context must put every original
back.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

#: Module-level functions the layer map wraps by name.
GUARDED_FUNCTIONS = (
    ("repro.core.label", "label_points"),
    ("repro.core.label", "label_corpus"),
    ("repro.core.label", "membership_points"),
    ("repro.data.schema", "parse_tweet_record"),
)


@pytest.fixture
def benchlib(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from benchlib import layers, tracing

    # One install/restore first, so every module it imports is loaded
    # before the snapshots below are taken.
    with layers.install(tracing.Tracer()):
        pass
    return layers, tracing


def _snapshot() -> dict:
    """Identity of every repro module attribute and class attribute."""
    seen = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for key, value in list(vars(module).items()):
            seen[(name, key)] = value
            if isinstance(value, type) and value.__module__.startswith("repro"):
                for attr, member in vars(value).items():
                    seen[(name, key, attr)] = member
    return seen


def test_guarded_names_exist():
    for module, attr in GUARDED_FUNCTIONS:
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)
    from repro.stream.online import OnlineMobilityCounter

    assert "push_batch" in vars(OnlineMobilityCounter)


def test_install_wraps_then_restores_every_original(benchlib):
    layers, tracing = benchlib
    from repro.stream.online import OnlineMobilityCounter

    before = _snapshot()
    with layers.install(tracing.Tracer()) as tracer:
        for module, attr in GUARDED_FUNCTIONS:
            wrapped = getattr(sys.modules[module], attr)
            assert wrapped is not before[(module, attr)], (module, attr)
            assert wrapped.__wrapped__ is before[(module, attr)]
        assert vars(OnlineMobilityCounter)["push_batch"] is not before[
            ("repro.stream.online", "OnlineMobilityCounter", "push_batch")
        ]
        assert tracer._saved
    after = _snapshot()
    assert before.keys() == after.keys()
    changed = [key for key in before if before[key] is not after[key]]
    assert changed == []
