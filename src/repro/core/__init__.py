"""RTSP scheduling heuristics — the paper's primary contribution.

Builders construct a valid schedule from scratch:

* :class:`~repro.core.builders.rdf.RandomDeletionsFirst` (RDF, §4.1)
* :class:`~repro.core.builders.gsdf.GroupedServerDeletionsFirst` (GSDF, §4.1)
* :class:`~repro.core.builders.ar.AllRandom` (AR, §4.2)
* :class:`~repro.core.builders.golcf.GreedyObjectLowestCostFirst` (GOLCF, §4.2)

Optimizers rewrite an existing valid schedule:

* :class:`~repro.core.optimizers.h1.H1MoveDummyTransfers` (H1, §4.1)
* :class:`~repro.core.optimizers.h2.H2CreateSuperfluousReplicas` (H2, §4.1)
* :class:`~repro.core.optimizers.op1.OP1ReorderTransfers` (OP1, §4.2)

:mod:`repro.core.pipeline` composes them (``GOLCF+H1+H2+OP1`` is the
paper's winner); :mod:`repro.exact` provides the branch-and-bound
optimum for small instances.
"""

from repro.core.base import (
    ScheduleBuilder,
    ScheduleOptimizer,
    available_builders,
    available_optimizers,
    get_builder,
    get_optimizer,
)
from repro.core.builders.rdf import RandomDeletionsFirst
from repro.core.builders.gsdf import GroupedServerDeletionsFirst
from repro.core.builders.ar import AllRandom
from repro.core.builders.golcf import GreedyObjectLowestCostFirst
from repro.core.builders.gmc import GlobalMinimumCostFirst
from repro.core.optimizers.h1 import H1MoveDummyTransfers
from repro.core.optimizers.h2 import H2CreateSuperfluousReplicas
from repro.core.optimizers.op1 import OP1ReorderTransfers
from repro.core.optimizers.nsr import NearestSourceRefinement
from repro.core.pipeline import Pipeline, build_pipeline, PAPER_PIPELINES

__all__ = [
    "ScheduleBuilder",
    "ScheduleOptimizer",
    "available_builders",
    "available_optimizers",
    "get_builder",
    "get_optimizer",
    "RandomDeletionsFirst",
    "GroupedServerDeletionsFirst",
    "AllRandom",
    "GreedyObjectLowestCostFirst",
    "GlobalMinimumCostFirst",
    "H1MoveDummyTransfers",
    "H2CreateSuperfluousReplicas",
    "OP1ReorderTransfers",
    "NearestSourceRefinement",
    "Pipeline",
    "build_pipeline",
    "PAPER_PIPELINES",
]
