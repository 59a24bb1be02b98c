"""Compile scenarios into pipeline DAG nodes.

A scenario compiles to three content-addressed tasks::

    corpus ── network-<fp> ── scenario-<name>

``corpus`` is *the same task* (same name, params and version) the
experiment suite uses, so scenario runs share cached corpora with
``repro pipeline run``.  The network task is keyed by the
(world, model) fingerprint, so every scenario on one world/model pair
shares one fitted network artifact; the scenario task is keyed by the
canonical config dict, so permuting an intervention stack — or renaming
nothing — is a cache hit.  A comparison is just a bigger DAG: shared
corpus, deduplicated network nodes, one scenario node per member
and a ``compare`` join task, all sharded across ``--jobs`` workers.
"""

from __future__ import annotations

from repro.data.gazetteer import Scale
from repro.experiments.scales import ExperimentContext
from repro.pipeline.executor import Executor, RunResult
from repro.pipeline.graph import Pipeline
from repro.pipeline.graphs import corpus_task
from repro.pipeline.hashing import fingerprint
from repro.pipeline.store import ArtifactStore
from repro.pipeline.task import Task, TaskContext
from repro.scenario.config import ScenarioConfig, ScenarioConfigError
from repro.scenario.engine import evaluate_on_network
from repro.scenario.result import ComparisonResult, ScenarioResult

#: Code-version tags for the scenario tasks; bump to invalidate caches
#: when the corresponding computation changes meaning.
SCENARIO_TASK_VERSIONS = {
    "network": "1",
    "scenario": "1",
    "compare": "1",
}


def network_params(config: ScenarioConfig) -> dict:
    """The parameters that determine a scenario's fitted network."""
    return {
        "gazetteer": config.world.gazetteer,
        "scale": config.world.scale.value,
        "model": config.model.kind,
        "trips_per_person_per_day": config.model.trips_per_person_per_day,
    }


def network_task_name(config: ScenarioConfig) -> str:
    """Stable task name for a (world, model) network node."""
    return f"network-{fingerprint(network_params(config))[:10]}"


def scenario_task_name(config: ScenarioConfig) -> str:
    """The scenario node's task name."""
    return f"scenario-{config.name}"


def _task_network(ctx: TaskContext) -> dict:
    context = ExperimentContext(ctx.input("corpus"), gazetteer=ctx.params["gazetteer"])
    scale = Scale(ctx.params["scale"])
    return {
        "network": context.network(
            scale, ctx.params["model"], ctx.params["trips_per_person_per_day"]
        ),
        "distances_km": context.world(scale).distance_matrix_km,
    }


def _task_scenario(ctx: TaskContext) -> ScenarioResult:
    config = ScenarioConfig.from_dict(ctx.params["config"])
    bundle = ctx.input(ctx.params["network_task"])
    return evaluate_on_network(config, bundle["network"], bundle["distances_km"])


def _task_compare(ctx: TaskContext) -> ComparisonResult:
    return ComparisonResult(tuple(ctx.input(name) for name in ctx.params["members"]))


def _add_scenario_nodes(pipeline: Pipeline, config: ScenarioConfig) -> str:
    """Add a scenario's network + scenario tasks; returns the scenario name."""
    net_name = network_task_name(config)
    if net_name not in pipeline:
        pipeline.add(
            Task(
                name=net_name,
                fn=_task_network,
                deps=("corpus",),
                params=network_params(config),
                version=SCENARIO_TASK_VERSIONS["network"],
            )
        )
    task_name = scenario_task_name(config)
    pipeline.add(
        Task(
            name=task_name,
            fn=_task_scenario,
            deps=(net_name,),
            params={"config": config.to_dict(), "network_task": net_name},
            version=SCENARIO_TASK_VERSIONS["scenario"],
        )
    )
    return task_name


def scenario_pipeline(config: ScenarioConfig) -> Pipeline:
    """The three-node DAG for one scenario."""
    pipeline = Pipeline([corpus_task(config.synth_config())])
    _add_scenario_nodes(pipeline, config)
    pipeline.validate()
    return pipeline


def comparison_pipeline(configs: tuple[ScenarioConfig, ...]) -> Pipeline:
    """One DAG over all member scenarios plus a ``compare`` join node.

    Members must agree on the corpus and gazetteer (a comparison is a
    counterfactual sweep over one world, not a corpus sweep) and carry
    distinct names; network nodes are deduplicated by fingerprint.
    """
    if len(configs) < 2:
        raise ScenarioConfigError("a comparison needs at least two scenarios")
    names = [config.name for config in configs]
    if len(set(names)) != len(names):
        duplicated = sorted({n for n in names if names.count(n) > 1})
        raise ScenarioConfigError(
            f"duplicate scenario names in comparison: {', '.join(duplicated)}"
        )
    first = configs[0]
    for config in configs[1:]:
        if config.corpus != first.corpus or config.world.gazetteer != first.world.gazetteer:
            raise ScenarioConfigError(
                "comparison members must share one corpus spec and gazetteer; "
                f"{config.name!r} disagrees with {first.name!r}"
            )
    pipeline = Pipeline([corpus_task(first.synth_config())])
    member_tasks = tuple(_add_scenario_nodes(pipeline, config) for config in configs)
    pipeline.add(
        Task(
            name="compare",
            fn=_task_compare,
            deps=member_tasks,
            params={"members": list(member_tasks)},
            version=SCENARIO_TASK_VERSIONS["compare"],
        )
    )
    pipeline.validate()
    return pipeline


def run_scenario(
    config: ScenarioConfig,
    store: ArtifactStore | None = None,
    jobs: int = 1,
    force: bool = False,
    trace: bool = False,
) -> tuple[ScenarioResult, RunResult]:
    """Run (or cache-resolve) one scenario; returns (result, provenance)."""
    pipeline = scenario_pipeline(config)
    executor = Executor(store=store, jobs=jobs, force=force, trace=trace)
    run = executor.run(pipeline, targets=(scenario_task_name(config),))
    return run.artifact(scenario_task_name(config)), run


def run_comparison(
    configs: tuple[ScenarioConfig, ...],
    store: ArtifactStore | None = None,
    jobs: int = 1,
    force: bool = False,
    trace: bool = False,
) -> tuple[ComparisonResult, RunResult]:
    """Run (or cache-resolve) a comparison; returns (result, provenance)."""
    pipeline = comparison_pipeline(tuple(configs))
    executor = Executor(store=store, jobs=jobs, force=force, trace=trace)
    run = executor.run(pipeline, targets=("compare",))
    return run.artifact("compare"), run
