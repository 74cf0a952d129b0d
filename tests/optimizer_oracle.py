"""Full-state oracles for the optimizers' touched-row proofs (test-only).

The optimizers prove each candidate rewrite on the rows it touches
(:meth:`repro.core.optimizers.common.ActionColumns.repair`) and pick
sources from per-object holder sets (:func:`~repro.core.optimizers.common.nearest`).
These are the full-state versions those replaced, kept as executable
references for the property tests: a slim replication state over the
whole placement matrix, the window replay that makes OP1's case (iii)
repairs on it, and the cost of an action sequence.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.model.actions import Action, Delete, Transfer
from repro.model.instance import RtspInstance
from repro.model.state import CAPACITY_EPS


class ArrayState:
    """Lightweight replication state for full window replays.

    Mirrors the action semantics of :class:`repro.model.state.SystemState`
    but keeps only the placement matrix and per-server free space, making
    ``copy`` a pair of numpy copies.
    """

    __slots__ = ("instance", "placement", "free")

    def __init__(
        self,
        instance: RtspInstance,
        placement: Optional[np.ndarray] = None,
        free: Optional[np.ndarray] = None,
    ) -> None:
        self.instance = instance
        if placement is None:
            self.placement = np.array(instance.x_old, dtype=np.int8, copy=True)
            self.free = instance.capacities - (
                self.placement.astype(np.float64) @ instance.sizes
            )
        else:
            self.placement = placement
            self.free = free

    def copy(self) -> "ArrayState":
        """Independent copy (two numpy copies; the instance is shared)."""
        return ArrayState(self.instance, self.placement.copy(), self.free.copy())

    def holds(self, server: int, obj: int) -> bool:
        """Whether ``server`` replicates ``obj`` (dummy holds everything)."""
        if server == self.instance.dummy:
            return True
        return bool(self.placement[server, obj])

    def is_valid(self, action: Action) -> bool:
        """Whether ``action`` may be applied (same semantics as
        :meth:`repro.model.state.SystemState.is_valid`)."""
        if isinstance(action, Transfer):
            i, k, j = action.target, action.obj, action.source
            return (
                i != self.instance.dummy
                and i != j
                and self.holds(j, k)
                and not self.placement[i, k]
                and self.free[i] + CAPACITY_EPS >= self.instance.sizes[k]
            )
        if isinstance(action, Delete):
            i = action.server
            return i != self.instance.dummy and bool(self.placement[i, action.obj])
        return False

    def apply(self, action: Action) -> None:
        """Apply without validity checking (caller checked already)."""
        if isinstance(action, Transfer):
            i, k = action.target, action.obj
            self.placement[i, k] = 1
            self.free[i] -= self.instance.sizes[k]
        else:
            i, k = action.server, action.obj
            self.placement[i, k] = 0
            self.free[i] += self.instance.sizes[k]

    def try_apply(self, action: Action) -> bool:
        """Apply if valid; returns whether it was applied."""
        if not self.is_valid(action):
            return False
        self.apply(action)
        return True

    def nearest(self, target: int, obj: int, exclude: int = -1) -> int:
        """Cheapest current source of ``obj`` for ``target`` (dummy fallback).

        Adaptive: a scalar scan of the holder column for the typical
        handful of replicas, one masked gather + first-minimum argmin
        when the column is dense. Both branches implement the contract of
        :meth:`repro.model.state.SystemState.nearest` — ties break to the
        lowest server index and a real holder beats an equal-cost dummy.
        """
        inst = self.instance
        holders = np.flatnonzero(self.placement[:, obj])
        if holders.size <= 16:
            row = inst.costs[target]
            best, best_cost = inst.dummy, row[inst.dummy]
            for j in holders:
                if j == target or j == exclude:
                    continue
                c = row[j]
                if c < best_cost or (c == best_cost and j < best):
                    best, best_cost = int(j), c
            return best
        holders = holders[(holders != target) & (holders != exclude)]
        if holders.size == 0:
            return inst.dummy
        costs = inst.costs[target, holders]
        pos = int(np.argmin(costs))
        if float(costs[pos]) <= float(inst.costs[target, inst.dummy]):
            return int(holders[pos])
        return inst.dummy


def window_replay_with_repairs(
    start_state: ArrayState,
    window: Sequence[Action],
    max_repairs: int = 64,
) -> Optional[List[Action]]:
    """Replay ``window``, re-pointing transfers whose source disappeared.

    Returns the (possibly repaired) window or ``None`` when unrepairable:
    OP1's case (iii) over a full state. Hoisted deletions can strand
    transfers that sourced from the hoist's server; those are re-pointed
    to the nearest replicator at their position (possibly the dummy, at
    dummy price).
    """
    state = start_state.copy()
    out: List[Action] = []
    repairs = 0
    for action in window:
        if not state.is_valid(action):
            if (
                isinstance(action, Transfer)
                and repairs < max_repairs
                and not state.holds(action.source, action.obj)
                and not state.holds(action.target, action.obj)
            ):
                repaired = action.with_source(
                    state.nearest(action.target, action.obj)
                )
                if not state.is_valid(repaired):
                    return None
                action = repaired
                repairs += 1
            else:
                return None
        state.apply(action)
        out.append(action)
    return out


def actions_cost(instance: RtspInstance, actions: Iterable[Action]) -> float:
    """Implementation cost of an action sequence."""
    total = 0.0
    sizes, costs = instance.sizes, instance.costs
    for a in actions:
        if isinstance(a, Transfer):
            total += float(sizes[a.obj] * costs[a.target, a.source])
    return total
