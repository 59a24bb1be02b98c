"""Paper-artefact reproductions: one module per table/figure.

Every experiment takes an :class:`~repro.experiments.scales.ExperimentContext`
(a corpus plus cached spatial index / labels / flows) and returns a
structured ``*Result`` object with a ``render()`` method producing the
text the benchmark harness prints.

* ``table1`` — dataset statistics (Table I)
* ``fig1``   — tweet density map (Fig 1)
* ``fig2``   — heavy-tailed tweeting dynamics (Fig 2)
* ``fig3``   — Twitter population vs census at three scales (Fig 3a/3b)
* ``fig4``   — model estimation scatter at three scales (Fig 4)
* ``table2`` — model scores: Pearson upper, HitRate@50% lower (Table II)
* ``runner`` — run everything on one corpus
"""

import importlib

#: Public name -> defining module, imported on first attribute access,
#: so ``import repro.experiments.fig3`` (the pipeline's path) loads fig3
#: alone rather than every experiment, ``repro.epidemic`` and networkx.
_LAZY = {
    "DistanceAnalysisResult": "repro.experiments.distance",
    "run_distance_analysis": "repro.experiments.distance",
    "ForecastResult": "repro.experiments.epidemic_forecast",
    "run_forecast_experiment": "repro.experiments.epidemic_forecast",
    "Fig1Result": "repro.experiments.fig1",
    "run_fig1": "repro.experiments.fig1",
    "Fig2Result": "repro.experiments.fig2",
    "run_fig2": "repro.experiments.fig2",
    "Fig3Result": "repro.experiments.fig3",
    "run_fig3": "repro.experiments.fig3",
    "Fig4Result": "repro.experiments.fig4",
    "run_fig4": "repro.experiments.fig4",
    "GroundTruthResult": "repro.experiments.ground_truth",
    "run_ground_truth_validation": "repro.experiments.ground_truth",
    "true_area_flows": "repro.experiments.ground_truth",
    "generate_report": "repro.experiments.report",
    "reproduction_checklist": "repro.experiments.report",
    "ExperimentSuiteResult": "repro.experiments.runner",
    "run_all_experiments": "repro.experiments.runner",
    "ExperimentContext": "repro.experiments.scales",
    "ScaleSpec": "repro.experiments.scales",
    "default_scale_specs": "repro.experiments.scales",
    "Table1Result": "repro.experiments.table1",
    "run_table1": "repro.experiments.table1",
    "Table2Result": "repro.experiments.table2",
    "run_table2": "repro.experiments.table2",
}

__all__ = sorted(_LAZY)


def __getattr__(name: str) -> object:
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module 'repro.experiments' has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))
