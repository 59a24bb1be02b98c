"""DAG-based experiment pipeline with content-addressed artifact caching.

The subsystem has three layers:

* the core runner — :class:`Task`, :class:`Pipeline`, :class:`Executor`
  and the on-disk :class:`ArtifactStore` (``~/.cache/repro`` by default,
  ``REPRO_CACHE_DIR`` or an explicit path to override);
* run provenance — :class:`RunManifest`, one ``manifest.json`` per run;
* the paper's artefact suite expressed as a graph —
  :func:`suite_pipeline` / :func:`run_suite` in
  :mod:`repro.pipeline.graphs`.

Cache keys are content-addressed: a task's key hashes its config, its
code-version tag and the digests of its upstream artifacts, so a change
anywhere upstream re-executes exactly the affected subgraph and nothing
else.
"""

from repro.pipeline.executor import Executor, RunResult
from repro.pipeline.graph import CycleError, Pipeline
from repro.pipeline.graphs import (
    ARTEFACT_TASKS,
    corpus_task,
    run_all_experiments_cached,
    run_suite,
    suite_pipeline,
    suite_result,
)
from repro.pipeline.hashing import fingerprint, hash_file
from repro.pipeline.manifest import RunManifest, TaskRecord
from repro.pipeline.store import ArtifactStore, default_cache_dir
from repro.pipeline.task import PipelineError, Task, TaskContext, TaskFailure

__all__ = [
    "ARTEFACT_TASKS",
    "ArtifactStore",
    "CycleError",
    "Executor",
    "Pipeline",
    "PipelineError",
    "RunManifest",
    "RunResult",
    "Task",
    "TaskContext",
    "TaskFailure",
    "TaskRecord",
    "corpus_task",
    "default_cache_dir",
    "fingerprint",
    "hash_file",
    "run_all_experiments_cached",
    "run_suite",
    "suite_pipeline",
    "suite_result",
]
