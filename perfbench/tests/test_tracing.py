"""The wrappers time nested calls and put every original back."""

import sys
import time

from benchlib import layers
from benchlib.tracing import Tracer


def _snapshot():
    """Every repro attribute the traced run may replace, by identity."""
    import repro.check.callgraph as callgraph
    import repro.check.rules as rules
    import repro.pipeline.store as store
    import repro.serve.app as app

    seen = {}
    for name, module in list(sys.modules.items()):
        if module is not None and name.startswith("repro"):
            for key, value in vars(module).items():
                if callable(value):
                    seen[(name, key)] = value
    for cls in (callgraph.CallGraph, store.ArtifactStore, app.RequestHandler,
                *rules.RULE_FACTORIES.values()):
        for key, value in vars(cls).items():
            seen[(cls.__qualname__, key)] = value
        seen[(cls.__qualname__, "__dict_keys__")] = tuple(sorted(vars(cls)))
    return seen


def test_install_restores_every_original():
    with layers.install(Tracer()):
        pass  # import everything install touches, so the snapshot sees it
    before = _snapshot()
    with layers.install(Tracer()) as tracer:
        from repro.core import label
        from repro.summary import store as summary_store

        assert label.label_points is not before[("repro.core.label", "label_points")]
        assert summary_store.label_points is label.label_points
        assert tracer._saved
    after = _snapshot()
    assert before.keys() == after.keys()
    changed = [key for key in before if before[key] is not after[key]
               and before[key] != after[key]]
    assert changed == []


def test_install_restores_after_an_error():
    before = _snapshot()
    try:
        with layers.install(Tracer()):
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    after = _snapshot()
    assert all(before[key] is after[key] or before[key] == after[key] for key in before)


class _Thing:
    def outer(self):
        time.sleep(0.02)
        self.inner()
        return 7

    def inner(self):
        time.sleep(0.03)


def test_self_time_subtracts_children():
    tracer = Tracer()
    tracer.patch_method(_Thing, "outer", "a.outer", "a")
    tracer.patch_method(_Thing, "inner", "b.inner", "b")
    try:
        assert _Thing().outer() == 7
    finally:
        tracer.restore()
    assert "outer" in vars(_Thing) and not hasattr(_Thing.outer, "__wrapped__")
    outer, inner = tracer.spans
    assert inner.parent == 0 and outer.parent == -1
    assert abs(outer.self_s - (outer.duration - inner.duration)) < 1e-9
    assert 0.015 < outer.self_s < 0.03
    totals = tracer.layer_totals()
    assert totals["a"]["calls"] == 1 and totals["b"]["calls"] == 1
    assert abs(tracer.self_total() - outer.duration) < 1e-9
