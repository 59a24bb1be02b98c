"""The paper's artefact suite expressed as a pipeline graph.

The DAG mirrors the data flow of ``run_all_experiments``::

    corpus ──┬── table1
             ├── fig1
             ├── fig2
             ├── fig3
             └── fig4 ── table2

``corpus`` either synthesises (sharded across ``ctx.jobs`` workers,
bit-identical to serial) or loads a CSV, keyed by the file's content
hash.  Downstream tasks are keyed by the corpus artifact digest, so
editing only e.g. the Table II scoring re-executes exactly one node on
the next run — everything else is served from the artifact store.

Each task carries a code-version tag in :data:`TASK_VERSIONS`; bump a
tag when the corresponding experiment implementation changes meaning,
and stale cached artifacts invalidate automatically.
"""

from __future__ import annotations

import dataclasses

from repro.data.corpus import TweetCorpus
from repro.data.io import read_tweets_csv
from repro.experiments.fig1 import run_fig1
from repro.experiments.fig2 import run_fig2
from repro.experiments.fig3 import run_fig3
from repro.experiments.fig4 import run_fig4
from repro.experiments.runner import ExperimentSuiteResult
from repro.experiments.scales import ExperimentContext
from repro.experiments.table1 import run_table1
from repro.experiments.table2 import table2_from_fig4
from repro.pipeline.executor import Executor, RunResult
from repro.pipeline.graph import Pipeline
from repro.pipeline.hashing import hash_file
from repro.pipeline.store import ArtifactStore
from repro.pipeline.task import Task, TaskContext
from repro.synth.config import SynthConfig
from repro.synth.generator import generate_corpus

#: Names of the artefact-producing tasks, in paper order.
ARTEFACT_TASKS = ("table1", "fig1", "fig2", "fig3", "fig4", "table2")

#: Per-task code-version tags.  Bump one to invalidate that task's
#: cached outputs (and, transitively, its dependents) without touching
#: anything upstream.
TASK_VERSIONS = {
    "corpus": "1",
    "table1": "1",
    "fig1": "1",
    "fig2": "1",
    "fig3": "1",
    "fig4": "1",
    "table2": "1",
}


def _task_generate(ctx: TaskContext) -> TweetCorpus:
    config = SynthConfig(**ctx.params)
    return generate_corpus(config, jobs=ctx.jobs).corpus


def _task_load_corpus(ctx: TaskContext) -> TweetCorpus:
    return TweetCorpus.from_tweets(read_tweets_csv(ctx.params["path"]))


def _context(ctx: TaskContext) -> ExperimentContext:
    return ExperimentContext(ctx.input("corpus"), gazetteer=ctx.params.get("gazetteer"))


def corpus_task(
    config: SynthConfig | None = None, corpus_path: str | None = None
) -> Task:
    """The shared ``corpus`` source task (synthesise or load a CSV).

    Exactly one source applies: ``corpus_path`` (cache-keyed by the
    file's content hash, so an edited file is a miss) wins over
    ``config`` (cache-keyed by every :class:`SynthConfig` field).  The
    task is *named* ``corpus`` with stable params, so every graph built
    from it — the experiment suite, scenario pipelines — shares one
    cached corpus artifact per configuration.
    """
    if corpus_path is not None:
        return Task(
            name="corpus",
            fn=_task_load_corpus,
            params={"path": str(corpus_path), "content": hash_file(corpus_path)},
            version=TASK_VERSIONS["corpus"],
        )
    config = config or SynthConfig()
    return Task(
        name="corpus",
        fn=_task_generate,
        params=dataclasses.asdict(config),
        version=TASK_VERSIONS["corpus"],
        # Generation shards across its own worker pool (ctx.jobs).
        run_in_parent=True,
    )


def _task_table1(ctx: TaskContext):
    return run_table1(ctx.input("corpus"))


def _task_fig1(ctx: TaskContext):
    return run_fig1(ctx.input("corpus"))


def _task_fig2(ctx: TaskContext):
    return run_fig2(ctx.input("corpus"))


def _task_fig3(ctx: TaskContext):
    return run_fig3(_context(ctx))


def _task_fig4(ctx: TaskContext):
    return run_fig4(_context(ctx))


def _task_table2(ctx: TaskContext):
    return table2_from_fig4(ctx.input("fig4"))


def suite_pipeline(
    config: SynthConfig | None = None,
    corpus_path: str | None = None,
    gazetteer: str | None = None,
) -> Pipeline:
    """The experiment-suite DAG over a synthesised or on-disk corpus.

    Exactly one corpus source applies: ``corpus_path`` (cache-keyed by
    the file's content hash, so an edited file is a miss) wins over
    ``config`` (cache-keyed by every :class:`SynthConfig` field).

    ``gazetteer`` selects the *measuring* area system for the
    scale-dependent tasks (fig3/fig4/table2); it defaults to the
    synthesis config's gazetteer so generating and measuring geography
    agree, and participates in those tasks' cache keys.
    """
    if gazetteer is None:
        gazetteer = config.gazetteer if config is not None else "legacy"
    pipeline = Pipeline([corpus_task(config=config, corpus_path=corpus_path)])
    simple = {"table1": _task_table1, "fig1": _task_fig1, "fig2": _task_fig2}
    for name, fn in simple.items():
        pipeline.add(
            Task(name=name, fn=fn, deps=("corpus",), version=TASK_VERSIONS[name])
        )
    pipeline.add(
        Task(
            name="fig3",
            fn=_task_fig3,
            deps=("corpus",),
            params={"gazetteer": gazetteer},
            version=TASK_VERSIONS["fig3"],
        )
    )
    pipeline.add(
        Task(
            name="fig4",
            fn=_task_fig4,
            deps=("corpus",),
            params={"gazetteer": gazetteer},
            version=TASK_VERSIONS["fig4"],
        )
    )
    pipeline.add(
        Task(
            name="table2",
            fn=_task_table2,
            deps=("fig4",),
            version=TASK_VERSIONS["table2"],
        )
    )
    pipeline.validate()
    return pipeline


def suite_result(run: RunResult) -> ExperimentSuiteResult:
    """Assemble the classic suite result from a run's artifacts."""
    return ExperimentSuiteResult(
        table1=run.artifact("table1"),
        fig1=run.artifact("fig1"),
        fig2=run.artifact("fig2"),
        fig3=run.artifact("fig3"),
        fig4=run.artifact("fig4"),
        table2=run.artifact("table2"),
    )


def run_suite(
    config: SynthConfig | None = None,
    corpus_path: str | None = None,
    store: ArtifactStore | None = None,
    jobs: int = 1,
    force: bool = False,
    targets: tuple[str, ...] | None = None,
    trace: bool = False,
    profile: bool = False,
    gazetteer: str | None = None,
) -> tuple[ExperimentSuiteResult | None, RunResult]:
    """Run (or cache-resolve) the suite; returns (suite, run provenance).

    The first element is ``None`` when ``targets`` excludes part of the
    suite — use :meth:`RunResult.artifact` for partial runs.  ``trace``
    records a span tree into the run manifest; ``profile`` writes
    per-task cProfile hotspot reports into the run directory.
    """
    pipeline = suite_pipeline(config=config, corpus_path=corpus_path, gazetteer=gazetteer)
    executor = Executor(store=store, jobs=jobs, force=force, trace=trace, profile=profile)
    run = executor.run(pipeline, targets=targets)
    if targets is not None and set(ARTEFACT_TASKS) - run.digests.keys():
        return None, run
    return suite_result(run), run


def run_all_experiments_cached(
    config: SynthConfig | None = None,
    corpus_path: str | None = None,
    cache_dir: str | None = None,
    jobs: int = 1,
    force: bool = False,
    gazetteer: str | None = None,
) -> tuple[ExperimentSuiteResult, RunResult]:
    """Pipeline-backed suite: artifact-cached and process-parallel.

    The convenience form of :func:`run_suite` for full-suite callers —
    a warm cache resolves the whole suite without executing a single
    task body.  Returns ``(ExperimentSuiteResult, RunResult)`` — the
    second element carries the run manifest (timings, cache hits,
    digests).
    """
    store = ArtifactStore(cache_dir) if cache_dir else None
    suite, run = run_suite(
        config=config, corpus_path=corpus_path, store=store, jobs=jobs,
        force=force, gazetteer=gazetteer,
    )
    assert suite is not None  # no targets filter -> full suite
    return suite, run
