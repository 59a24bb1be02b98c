"""Oracle for the shared analysis: one run equals its families run alone.

``run_check`` builds the call graph + lock model once and hands it to
every family, and each file's imports / ``TYPE_CHECKING`` spans are
computed once on its :class:`SourceFile`.  Sharing must be invisible in
the answers: on the repository tree and on every seeded fixture project,
the full run reports exactly what the families report one at a time —
fingerprints included — and the pair is built once per run, or not at
all when no selected family needs it.
"""

from pathlib import Path

import pytest

from repro.check.callgraph import CallGraph
from repro.check.lockmodel import LockModel
from repro.check.rules import RULE_FACTORIES
from repro.check.runner import run_check
from tests.check.test_rule_fixtures import FIXTURES

REPO_ROOT = Path(__file__).resolve().parents[2]

#: The families that read the call graph + lock model.
INTERPROCEDURAL = ("concurrency", "forksafety")


def _key(violation):
    return (violation.path, violation.line, violation.col, violation.code)


def _assert_full_equals_families(root: Path) -> None:
    full = run_check(root=root)
    alone = [run_check(root=root, rules=(name,)) for name in RULE_FACTORIES]
    joined = sorted((v for result in alone for v in result.new), key=_key)
    assert [v.to_dict() for v in full.new] == [v.to_dict() for v in joined]
    assert full.suppressed == sum(result.suppressed for result in alone)
    assert full.files_scanned == alone[0].files_scanned


@pytest.fixture
def builds(monkeypatch):
    """Counts of CallGraph.build / LockModel.build calls, by class name."""
    counts = {"CallGraph": 0, "LockModel": 0}
    for cls in (CallGraph, LockModel):
        original = cls.build.__func__

        def counting(klass, *args, _original=original, **kwargs):
            counts[klass.__name__] += 1
            return _original(klass, *args, **kwargs)

        monkeypatch.setattr(cls, "build", classmethod(counting))
    return counts


def test_repository_full_run_equals_families_alone():
    _assert_full_equals_families(REPO_ROOT)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixture_full_run_equals_families_alone(make_project, name):
    _assert_full_equals_families(make_project(FIXTURES[name]))


@pytest.mark.parametrize(
    "rules",
    [None, INTERPROCEDURAL, ("forksafety", "layering", "concurrency")],
    ids=["all", "interprocedural", "mixed"],
)
def test_pair_built_once_per_run(make_project, builds, rules):
    root = make_project(FIXTURES["fork-shared-lock"])
    run_check(root=root, rules=rules)
    assert builds == {"CallGraph": 1, "LockModel": 1}


def test_pair_not_built_without_interprocedural_family(make_project, builds):
    root = make_project(FIXTURES["abba"])
    others = tuple(name for name in RULE_FACTORIES if name not in INTERPROCEDURAL)
    run_check(root=root, rules=others)
    assert builds == {"CallGraph": 0, "LockModel": 0}


def test_rule_run_alone_builds_its_own_pair(make_project, builds):
    from repro.check.walker import iter_source_files

    root = make_project(FIXTURES["abba"])
    sources = list(iter_source_files(root / "src" / "repro"))
    found = RULE_FACTORIES["concurrency"]().run(sources)
    assert {v.code for v in found} == {"concurrency/lock-order-cycle"}
    assert builds == {"CallGraph": 1, "LockModel": 1}


def test_repository_run_builds_pair_once(builds):
    assert run_check(root=REPO_ROOT).ok
    assert builds == {"CallGraph": 1, "LockModel": 1}
