"""H2 — create superfluous replicas to source dummy transfers (paper §4.1).

H2 complements H1: instead of moving the dummy transfer itself (which may
be impossible when the target's capacity is violated at any earlier
position), it *stages* a temporary copy of the object on a third server
``S_i`` that has free space:

* inject ``T_iki''`` immediately before the deletion ``D_i''k`` that
  destroyed the (last) source,
* re-point the dummy transfer ``T_i'kd`` to the staged copy (``T_i'ki``),
* delete the staged copy immediately afterwards (it is superfluous).

When no server has free space, H2 tries to *create* space by hoisting
deletions of superfluous replicas scheduled later, provided every object
keeps at least one replica where later transfers need one (enforced by the
window replay: destroying the source of a later transfer invalidates the
candidate and it is rejected).

Each accepted rewrite converts exactly one dummy transfer into a real one
(the injected staging transfer is always real — its source holds the
object by construction), so H2 monotonically decreases the dummy count.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.base import ScheduleOptimizer, register_optimizer
from repro.core.optimizers.common import (
    ActionColumns,
    Edit,
    delete_row,
    remove_dummies,
    transfer_row,
)
from repro.model.instance import RtspInstance
from repro.model.schedule import Schedule


@register_optimizer
class H2CreateSuperfluousReplicas(ScheduleOptimizer):
    """Stage temporary replicas on spare storage to feed dummy transfers.

    Parameters
    ----------
    max_deletion_candidates:
        How many preceding deletions of the object to consider as staging
        points (nearest first; the paper uses the first one found).
    max_stage_candidates:
        How many staging servers to try per deletion point (cheapest
        relays first).
    max_space_makers:
        Cap on how many later deletions may be hoisted to free space for
        the staged replica on one server.
    max_passes:
        Number of full sweeps over the schedule.
    """

    name = "H2"

    def __init__(
        self,
        max_deletion_candidates: int = 4,
        max_stage_candidates: int = 16,
        max_space_makers: int = 4,
        max_passes: int = 4,
    ) -> None:
        self.max_deletion_candidates = max_deletion_candidates
        self.max_stage_candidates = max_stage_candidates
        self.max_space_makers = max_space_makers
        self.max_passes = max_passes

    # ------------------------------------------------------------------
    def optimize(
        self, instance: RtspInstance, schedule: Schedule, rng=None
    ) -> Schedule:
        return remove_dummies(instance, schedule, self._restore, self.max_passes)

    # ------------------------------------------------------------------
    def _restore(self, columns: ActionColumns, p: int) -> Optional[ActionColumns]:
        _, i_prime, k, _ = columns.row(p)
        destinations = columns.deletion_positions_before(p, k)[
            : self.max_deletion_candidates
        ]
        for q in destinations:
            source = columns.row(q)[1]  # the paper's S_i''
            stages = self._stage_candidates(columns, i_prime, k, source, q)
            result = self._stage_on_free_server(
                columns, p, q, i_prime, k, source, stages
            )
            if result is not None:
                return result
            result = self._stage_with_space_making(
                columns, p, q, i_prime, k, source, stages
            )
            if result is not None:
                return result
        return None

    # ------------------------------------------------------------------
    def _stage_candidates(
        self, columns: ActionColumns, i_prime: int, k: int, source: int, q: int
    ) -> List[int]:
        """Servers eligible to hold the staged replica, cheapest first.

        Eligibility: not the deleting server, not the dummy-transfer's own
        target (that case is H1's move), and not already a replicator at
        the staging point. Ordered by the added transfer cost
        ``l[i, source] + l[i_prime, i]`` so the cheapest staging relay is
        tried first (the paper picks any server with space; ordering by
        cost is a pure refinement); ties go to the lower index.
        """
        costs = columns.start.instance.costs
        m = columns.start.instance.num_servers
        eligible = np.ones(m, dtype=bool)
        eligible[[source, i_prime, *columns.holders_before(q, k)]] = False
        servers = np.flatnonzero(eligible)
        added = costs[servers, source] + costs[i_prime, servers]
        ranked = servers[np.argsort(added, kind="stable")]
        return ranked[: self.max_stage_candidates].tolist()

    def _stage_on_free_server(
        self,
        columns: ActionColumns,
        p: int,
        q: int,
        i_prime: int,
        k: int,
        source: int,
        stages: List[int],
    ) -> Optional[ActionColumns]:
        size = columns.start.sizes[k]
        for i in stages:
            if columns.row_before(q, i)[1] < size:
                continue
            edit = Edit(
                q,
                p + 1,
                (transfer_row(i, k, source),),
                {p: (transfer_row(i_prime, k, i), delete_row(i, k))},
            )
            if columns.proves(edit):
                return columns.apply(edit)
        return None

    def _stage_with_space_making(
        self,
        columns: ActionColumns,
        p: int,
        q: int,
        i_prime: int,
        k: int,
        source: int,
        stages: List[int],
    ) -> Optional[ActionColumns]:
        """Hoist later deletions at a candidate server to make room."""
        sizes = columns.start.sizes
        size = sizes[k]
        n = len(columns)
        for i in stages:
            deficit = size - columns.row_before(q, i)[1]
            if deficit <= 0:
                continue  # already tried by _stage_on_free_server
            later_dels = [
                idx
                for idx in columns.server_deletions_between(q, n, i)
                if columns.row(idx)[2] != k
            ][: self.max_space_makers]
            freed = 0.0
            head: Tuple = ()
            replace = {p: (transfer_row(i_prime, k, i), delete_row(i, k))}
            for idx in later_dels:
                head += (columns.row(idx),)
                replace[idx] = ()
                freed += sizes[columns.row(idx)[2]]
                if freed < deficit:
                    continue
                end = max(p, idx) + 1
                edit = Edit(q, end, head + (transfer_row(i, k, source),), dict(replace))
                if columns.proves(edit):
                    return columns.apply(edit)
        return None
