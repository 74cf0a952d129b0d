"""GOLCF — Greedy Object Lowest Cost First (paper §4.2).

The paper's cost-aware builder serves objects one at a time. The next
object is the owner of the globally cheapest pending transfer (size times
nearest-replicator cost, evaluated against the *current* state); once an
object is selected, all of its outstanding targets are served before
moving on, each step picking the target whose nearest source is cheapest
at that moment. Serving an object contiguously is the point: the first
copies delivered immediately become nearby sources for the remaining
targets of the same object.

Deletions are interleaved on demand. When the chosen target lacks room,
superfluous replicas at that target are evicted in increasing order of the
deletion benefit ``B_ik`` (paper eq. 4) — the replica whose loss hurts
still-waiting targets least goes first. Superfluous replicas nobody
needed to evict are flushed, in random order, after the last transfer.

All tie-breaks (object selection, target selection, eviction victim) fall
to the first minimum of a per-seed shuffled work list, so runs are
deterministic per seed and vary across seeds.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.base import ScheduleBuilder, register_builder
from repro.core.builders.common import (
    BuildLog,
    EvictionBenefitCache,
    PendingTransferSelector,
    pending_deletion_map,
    pending_transfer_map,
)
from repro.flat.buffers import FlatSchedule
from repro.model.instance import RtspInstance
from repro.model.state import SystemState
from repro.util.rng import ensure_rng


def _cheapest_target(state: SystemState, pend: List[int], obj: int) -> int:
    """First-minimum position of the cheapest pending target of ``obj``.

    Adaptive like the selector's refresh (and on the same threshold,
    ``PendingTransferSelector._SCALAR_BLOCK``): a scalar scan for tiny
    blocks (the common case at the paper's replica counts), one padded
    gather + row-min over ``pend x (holders + dummy)`` otherwise. Both
    take the minimum over the same candidates and keep the first
    minimum, so the chosen position is identical.
    """
    holders = state.index.holders(obj)
    dummy = state.dummy
    costs = state.instance.costs
    if len(pend) * (len(holders) + 1) <= PendingTransferSelector._SCALAR_BLOCK:
        best_pos, best_unit = 0, None
        for pos, t in enumerate(pend):
            row = costs[t]
            unit = row[dummy]
            for j in holders:
                c = row[j]
                if c < unit:
                    unit = c
            if best_unit is None or unit < best_unit:
                best_pos, best_unit = pos, unit
        return best_pos
    rows = np.asarray(pend, dtype=np.intp)
    cand = np.full((len(pend), 1 + len(holders)), dummy, dtype=np.intp)
    if holders:
        cand[:, 1:] = list(holders)
    units = costs[rows[:, None], cand].min(axis=1)
    return int(np.argmin(units))


@register_builder
class GreedyObjectLowestCostFirst(ScheduleBuilder):
    """Cheapest object first, served whole; benefit-ordered evictions."""

    name = "GOLCF"

    def build(self, instance: RtspInstance, rng=None) -> FlatSchedule:
        gen = ensure_rng(rng)
        log = BuildLog(instance)
        targets, waiting = pending_transfer_map(instance, gen)
        deletions = pending_deletion_map(instance, gen)
        selector = PendingTransferSelector(log.state, targets)
        benefits = EvictionBenefitCache(log.state, waiting)
        while not selector.exhausted:
            best_obj, _, _ = selector.best()
            pend = targets.pop(best_obj)
            selector.pop_object(best_obj)
            obj_waiting = waiting[best_obj]
            while pend:
                # Cheapest target of the chosen object at this moment.
                target = pend.pop(_cheapest_target(log.state, pend, best_obj))
                selector.mark_dirty(
                    log.evict(target, best_obj, deletions, benefits)
                )
                log.transfer(target, best_obj)
                obj_waiting.discard(target)
        log.flush(deletions, gen)
        return log.schedule()
