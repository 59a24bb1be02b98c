"""Cache-correctness tests for the experiment-suite pipeline graph.

Covers the acceptance guarantees: identical config -> full cache hit
with zero executed bodies; any ``SynthConfig`` field change or task
code-version bump invalidates; sharded generation feeds the cache the
same artifact as serial generation.
"""

import pytest

from repro.cli import main
from repro.experiments import run_all_experiments
from repro.pipeline import ArtifactStore, TaskFailure, run_suite, suite_pipeline
from repro.pipeline.executor import Executor
from repro.pipeline.graphs import TASK_VERSIONS
from repro.synth import SynthConfig, generate_corpus

CFG = SynthConfig(n_users=500, seed=9)


@pytest.fixture()
def store(tmp_path):
    return ArtifactStore(tmp_path / "cache")


class TestCacheCorrectness:
    def test_cold_then_warm(self, store):
        suite, cold = run_suite(config=CFG, store=store)
        assert cold.manifest.executed == 7
        warm_suite, warm = run_suite(config=CFG, store=store)
        assert warm.manifest.executed == 0
        assert warm.manifest.hits == 7
        assert warm_suite.render() == suite.render()

    def test_config_field_change_invalidates(self, store):
        run_suite(config=CFG, store=store)
        _, run = run_suite(config=SynthConfig(n_users=500, seed=10), store=store)
        assert run.manifest.executed == 7
        # And a non-seed field too: the whole SynthConfig is in the key.
        _, run2 = run_suite(
            config=SynthConfig(n_users=500, seed=9, p_move=0.2), store=store
        )
        assert run2.manifest.executed == 7

    def test_version_bump_reruns_one_node(self, store, monkeypatch):
        run_suite(config=CFG, store=store)
        monkeypatch.setitem(TASK_VERSIONS, "table2", "2")
        _, run = run_suite(config=CFG, store=store)
        # Only the re-versioned leaf runs; everything upstream hits.
        assert run.manifest.executed == 1
        assert run.manifest.hits == 6
        record = {r.name: r.status for r in run.manifest.records}
        assert record["table2"] == "run"
        assert record["fig4"] == "hit"

    def test_sharded_generation_hits_serial_cache(self, store):
        _, cold = run_suite(config=CFG, store=store, jobs=1)
        _, warm = run_suite(config=CFG, store=store, jobs=4)
        # The sharded corpus is bit-identical, so even the parallel run
        # resolves entirely from the serial run's cache.
        assert warm.manifest.executed == 0
        assert warm.digests["corpus"] == cold.digests["corpus"]

    def test_matches_classic_runner(self, store):
        suite, _ = run_suite(config=CFG, store=store)
        classic = run_all_experiments(generate_corpus(CFG).corpus)
        assert suite.render() == classic.render()

    def test_partial_targets(self, store):
        suite, run = run_suite(config=CFG, store=store, targets=("fig2",))
        assert suite is None
        assert set(run.digests) == {"corpus", "fig2"}


class TestCorpusFileSource:
    def test_file_content_keys_the_cache(self, store, tmp_path):
        csv_path = tmp_path / "corpus.csv"
        main(["generate", "--users", "500", "--seed", "9", "--out", str(csv_path)])
        _, cold = run_suite(corpus_path=str(csv_path), store=store)
        assert cold.manifest.executed == 7
        _, warm = run_suite(corpus_path=str(csv_path), store=store)
        assert warm.manifest.executed == 0
        # Rewriting the file with different content invalidates everything.
        main(["generate", "--users", "500", "--seed", "10", "--out", str(csv_path)])
        _, changed = run_suite(corpus_path=str(csv_path), store=store)
        assert changed.manifest.executed == 7

    def test_malformed_corpus_fails_with_task_name(self, store, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("definitely,not,a,corpus\n1,2,3,4\n")
        with pytest.raises(TaskFailure) as excinfo:
            run_suite(corpus_path=str(bad), store=store)
        assert excinfo.value.task_name == "corpus"


class TestSuitePipelineShape:
    def test_dag_validates_and_names(self):
        pipeline = suite_pipeline(config=CFG)
        assert set(pipeline.names) == {
            "corpus", "table1", "fig1", "fig2", "fig3", "fig4", "table2",
        }

    def test_parallel_run_matches_serial(self, tmp_path):
        serial_suite, _ = run_suite(config=CFG, store=ArtifactStore(tmp_path / "a"))
        parallel_suite, run = run_suite(
            config=CFG, store=ArtifactStore(tmp_path / "b"), jobs=3
        )
        assert parallel_suite.render() == serial_suite.render()
        # Artefact bodies ran in workers, generation in the parent.
        where = {r.name: r.where for r in run.manifest.records}
        assert where["corpus"] == "parent"
        assert where["table2"] == "worker"

    def test_force_reruns(self, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        run_suite(config=CFG, store=store)
        executor = Executor(store=store, force=True)
        run = executor.run(suite_pipeline(config=CFG))
        assert run.manifest.executed == 7
