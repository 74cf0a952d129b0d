"""OP1 — reorder same-object transfers to cut cost (paper §4.2, from [14]).

OP1 scans the schedule for a pair of transfers of the same object,
``T_i'kj' … T_ikj``, and considers executing the *later* one first: moved
to the earlier position, ``S_i`` obtains the object sooner and can serve
as a cheap source for every subsequent transfer of that object (including
``T_i'kj'`` itself), which are re-pointed to ``S_i`` whenever that is
cheaper. The move happens only when the total benefit outweighs the moved
transfer's own cost change plus any penalties from the validity repairs of
the paper's cases (ii)–(iv):

* deletions on ``S_i`` that enabled the moved transfer are hoisted with it
  (case iv),
* transfers that used ``S_i`` as a source for a replica deleted earlier by
  the hoist are re-pointed to their then-nearest replicator, paying a
  penalty (case iii),
* rewrites that would duplicate replicas or delete not-yet-created ones
  simply fail the window replay and are dropped (case ii).

Each candidate is an :class:`~repro.core.optimizers.common.Edit` of the
schedule's int32 action columns: the hoisted deletions and the moved
transfer, re-sourced to its nearest holder at ``p1``, form the edit's
head; the moved transfer and the hoisted deletions leave their places;
re-pointed transfers are re-sourced. :meth:`ActionColumns.repair
<repro.core.optimizers.common.ActionColumns.repair>` proves it by a
touched-row replay that makes the case (iii) repairs, and every source
choice scans the object's holders before that position (a per-object
index), so no full replication state is ever built.

Acceptance requires the rewrite window to replay validly *and* the total
cost delta to be strictly negative, so the optimizer monotonically
decreases cost and terminates. After each accepted change the scan
restarts from the beginning (the paper's policy); ``restart=False``
continues in place — an ablation measured in
``benchmarks/test_op1_restart.py``.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Optional, Set

import numpy as np

from repro.core.base import ScheduleOptimizer, register_optimizer
from repro.core.optimizers.common import (
    ActionColumns,
    Edit,
    nearest,
    transfer_row,
)
from repro.model.instance import RtspInstance
from repro.model.schedule import KIND_DELETE, Schedule

#: Minimum cost improvement for a rewrite to be accepted (guards float
#: round-off from producing endless micro-"improvements").
COST_EPS = 1e-9


@register_optimizer
class OP1ReorderTransfers(ScheduleOptimizer):
    """Cost-driven reordering of same-object transfer pairs.

    Parameters
    ----------
    restart:
        Restart the scan from position 0 after each accepted change (the
        paper's behaviour). ``False`` continues scanning in place, which
        is faster and usually within a percent of the same final cost.
    max_rounds:
        Upper bound on accepted changes (safety rail; cost strictly
        decreases each round so the bound is rarely reached in practice).
    """

    name = "OP1"

    def __init__(self, restart: bool = True, max_rounds: int = 100_000) -> None:
        self.restart = restart
        self.max_rounds = max_rounds

    # ------------------------------------------------------------------
    def optimize(
        self, instance: RtspInstance, schedule: Schedule, rng=None
    ) -> Schedule:
        columns = ActionColumns.from_schedule(instance, schedule)
        # object -> ranks j (see ActionColumns.transfer_pairs) of the
        # pairs the optimistic bound ruled out. The bound reads only the
        # object's own actions, so it stands until an edit touches them.
        bounded: Dict[int, Set[int]] = {}
        rounds = 0
        while rounds < self.max_rounds:
            result = self._scan(columns, bounded)
            if result is None:
                break
            columns = result
            rounds += 1
        return columns.to_schedule()

    # ------------------------------------------------------------------
    def _scan(
        self, columns: ActionColumns, bounded: Dict[int, Set[int]]
    ) -> Optional[ActionColumns]:
        """One scan; returns the improved columns or ``None``.

        With ``restart=True`` the scan returns at the first accepted
        change; with ``restart=False`` it applies changes in place and
        returns the accumulated result at the end of the pass (``None``
        if nothing improved).
        """
        improved = False
        p1 = 0
        while True:
            for p1, p2, j in columns.transfer_pairs(p1):
                if j in bounded.get(columns.row(p1)[2], ()):
                    continue
                edit = self._consider(columns, p1, p2, j, bounded)
                if edit is not None:
                    break
            else:
                return columns if improved else None
            for obj in {row[2] for row in edit.head}:
                bounded.pop(obj, None)
            for x in edit.replace:
                bounded.pop(columns.row(x)[2], None)
            columns = columns.apply(edit)
            improved = True
            if self.restart:
                return columns
            # Continue in place: the prefix [0, p1) is unchanged;
            # re-examine from p1.

    # ------------------------------------------------------------------
    def _consider(
        self,
        columns: ActionColumns,
        p1: int,
        p2: int,
        j: int,
        bounded: Dict[int, Set[int]],
    ) -> Optional[Edit]:
        """Evaluate moving the transfer at ``p2`` to just before ``p1``.

        ``p2`` is the next transfer of the object of the transfer at
        ``p1``, the object's ``j``-th. Returns the edit on acceptance;
        records ``j`` in ``bounded`` when the optimistic bound rules the
        move out.
        """
        start = columns.start
        costs = start.instance.costs
        _, i, k, moved_source = columns.row(p2)
        size = start.sizes[k]
        positions = columns.object_positions(k)
        later = [
            x
            for x in positions[bisect_left(positions, p1) :]
            if columns.row(x)[0] != KIND_DELETE
        ]

        new_source = nearest(costs, start.dummy, i, columns.holders_before(p1, k))
        # Optimistic bound: the moved transfer's own cost change plus the
        # best-case re-pointing savings for every other transfer of the
        # object at or after p1. Skip candidate construction (the
        # expensive part) when even the optimistic total is non-positive.
        optimistic = size * (costs[i, moved_source] - costs[i, new_source])
        for x in later:
            _, t, _, s = columns.row(x)
            if x != p2 and t != i:
                optimistic += max(0.0, size * (costs[t, s] - costs[t, i]))
        if optimistic <= COST_EPS:
            bounded.setdefault(k, set()).add(j)
            return None

        # The window [p1, p2] holds one other transfer of the object: the
        # one at p1, re-pointed through S_i when that is cheaper.
        delta = size * (costs[i, new_source] - costs[i, moved_source])
        replace = {p2: ()}
        _, t, _, s = columns.row(p1)
        if t != i and costs[t, i] < costs[t, s]:
            delta += size * (costs[t, i] - costs[t, s])
            replace[p1] = (transfer_row(t, k, i),)

        # Re-pointing the tail through S_i is only safe while S_i keeps the
        # object; if some action deletes (i, k), skip tail re-points.
        tail = {}
        savings = []
        if not any(columns.row(x)[:2] == (KIND_DELETE, i) for x in positions):
            for x in later:
                _, t, _, s = columns.row(x)
                if x > p2 and t != i and costs[t, i] < costs[t, s]:
                    savings.append(size * (costs[t, i] - costs[t, s]))
                    tail[x] = (transfer_row(t, k, i),)

        # The plain move, then with S_i's deletions in the window hoisted
        # along (case iv).
        replacement = transfer_row(i, k, new_source)
        hoisted = columns.server_deletions_between(p1, p2, i)
        for moves in ([], hoisted) if hoisted else ([],):
            edit = Edit(
                p1,
                p2 + 1,
                tuple(columns.row(x) for x in moves) + (replacement,),
                {**replace, **dict.fromkeys(moves, ())},
            )
            repaired = columns.repair(edit)
            if repaired is None:
                continue
            total = delta
            if repaired is not edit:
                # Repair penalties (case iii): cost difference of the
                # window after source re-pointing repairs.
                total += _window_cost(columns, repaired) - _window_cost(
                    columns, edit
                )
            for saving in savings:
                total += saving
            if total >= -COST_EPS:
                continue
            end = max(tail, default=p2) + 1
            return Edit(p1, end, repaired.head, {**repaired.replace, **tail})
        return None


def _window_cost(columns: ActionColumns, edit: Edit) -> float:
    """Implementation cost of the window ``edit`` rewrites, summed in
    window order (deletions add nothing)."""
    instance = columns.start.instance
    sizes, costs = instance.sizes, instance.costs

    def cost(row) -> float:
        kind, target, obj, source = row
        if kind == KIND_DELETE:
            return 0.0
        return float(sizes[obj] * costs[target, source])

    lo, hi, head, replace = edit
    kind, target, obj, source = columns.table[lo:hi].T
    unmoved = np.where(
        kind == KIND_DELETE, 0.0, sizes[obj] * costs[target, source]
    ).tolist()
    total = 0.0
    for row in head:
        total += cost(row)
    for x, unmoved_cost in enumerate(unmoved, lo):
        group = replace.get(x)
        if group is None:
            total += unmoved_cost
        else:
            for row in group:
                total += cost(row)
    return total
