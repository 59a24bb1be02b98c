"""The kernel layer: canonical domain objects and hot estimation kernels.

``repro.core`` sits between the data layer and every estimation cadence
(batch extraction, streaming counters, the serving stack).  It owns the
three things the paper's artefacts are made of, exactly once:

``world``
    :class:`World` — the area system: areas + ε radius + cached centre
    columns, population vector, pairwise distance matrix.
``label``
    The ε-disc labelling entry points, all answered by one scan of the
    world's centre index, plus the dense reference they are checked
    against.
``accumulate``
    Population and OD counting rules in vectorised-batch and
    incremental (windowed) forms.

Everything above this layer is an adapter: ``repro.extraction`` wraps
the batch kernels into the paper's artefact types, ``repro.stream``
wraps the incremental accumulators into sliding-window counters, and
``repro.serve`` ingests through those counters.  Batch ≡ stream ≡ serve
equivalence is therefore structural, not coincidental — and tested.
"""

from repro.core.accumulate import (
    ODAccumulator,
    PopulationAccumulator,
    od_matrix_from_labels,
)
from repro.core.label import (
    count_population,
    label_corpus,
    label_point,
    label_points,
    membership_points,
    point_area_distances,
)
from repro.core.world import World

__all__ = [
    "ODAccumulator",
    "PopulationAccumulator",
    "World",
    "count_population",
    "label_corpus",
    "label_point",
    "label_points",
    "membership_points",
    "od_matrix_from_labels",
    "point_area_distances",
]
