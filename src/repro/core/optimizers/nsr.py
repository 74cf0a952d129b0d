"""NSR — Nearest-Source Refinement (extension beyond the paper).

A single linear pass that re-points every transfer to the cheapest
source available *at its own position*. The builders already pick
nearest sources at build time, but the H1/H2/OP1 rewrites move actions
around, after which a transfer's recorded source may no longer be the
cheapest replicator at its (new) position. NSR closes those gaps:

* it never changes the action order, only transfer sources;
* each re-point strictly lowers that transfer's cost, so the schedule's
  total cost is non-increasing;
* sources are replicators at that position, so validity is preserved by
  construction (the state trajectory does not depend on sources at all).

The pass reads the schedule's int32 action columns and keeps one holder
set per object, started from the ``X_old`` holder index on the object's
first action. Cheap enough to append to any pipeline, e.g.
``GOLCF+H1+H2+OP1+NSR``.
"""

from __future__ import annotations

from typing import Dict, Set, Tuple

from repro.core.base import ScheduleOptimizer, register_optimizer
from repro.core.optimizers.common import (
    ActionColumns,
    Edit,
    Row,
    nearest,
    transfer_row,
)
from repro.model.instance import RtspInstance
from repro.model.schedule import KIND_TRANSFER, Schedule


@register_optimizer
class NearestSourceRefinement(ScheduleOptimizer):
    """Re-point every transfer to its position's cheapest source."""

    name = "NSR"

    def optimize(
        self, instance: RtspInstance, schedule: Schedule, rng=None
    ) -> Schedule:
        columns = ActionColumns.from_schedule(instance, schedule)
        costs, dummy = instance.costs, instance.dummy
        holders: Dict[int, Set[int]] = {}
        replace: Dict[int, Tuple[Row, ...]] = {}
        for x in range(len(columns)):
            kind, server, obj, source = columns.row(x)
            if obj not in holders:
                holders[obj] = set(columns.start.holders(obj))
            held = holders[obj]
            if kind == KIND_TRANSFER:
                best = nearest(costs, dummy, server, held)
                if costs[server, best] < costs[server, source]:
                    replace[x] = (transfer_row(server, obj, best),)
                held.add(server)
            else:
                held.discard(server)
        edit = Edit(0, len(columns), (), replace)
        return columns.apply(edit).to_schedule()
