"""H1 — move dummy transfers before deletions (paper §4.1).

H1 scans an existing schedule left to right; whenever it finds a dummy
transfer ``T_ikd`` it tries to move it back in time, to just before a
deletion ``D_jk`` of the same object, turning it into a proper transfer
``T_ikj``. Moving a transfer earlier can violate the target's storage
constraint, which H1 repairs in three escalating ways (paper cases i–iii):

(i)   nothing at the target happens in between — the plain move is valid;
(ii)  hoist *standalone* deletions of the target (deletions not fed by, or
      feeding, any transfer in the separating window) before the moved
      transfer to make room;
(iii) move a deletion *together with* the transfer that re-homes its
      replica; if that transfer's own target now lacks space, recursively
      treat it as a dummy transfer and restore it the same way, over an
      ever-shrinking window. Failing that, backtrack and leave the
      original dummy transfer in place.

Every candidate is an :class:`~repro.core.optimizers.common.Edit` of the
schedule's int32 action columns, proven by a touched-row replay of its
window (see :mod:`repro.core.optimizers.common` for why that decides
whole-schedule validity), and every accepted rewrite converts exactly one
dummy transfer into a real one, so the optimizer terminates with a valid
schedule whose dummy count never increases.
"""

from __future__ import annotations

from typing import Optional

from repro.core.base import ScheduleOptimizer, register_optimizer
from repro.core.optimizers.common import (
    ActionColumns,
    Edit,
    Row,
    remove_dummies,
    transfer_row,
)
from repro.model.instance import RtspInstance
from repro.model.schedule import Schedule


@register_optimizer
class H1MoveDummyTransfers(ScheduleOptimizer):
    """Eliminate dummy transfers by moving them before deletions.

    Parameters
    ----------
    max_depth:
        Recursion budget for case (iii) (the paper's recursion terminates
        because the separating window shrinks; the budget is a safety rail).
    max_deletion_candidates:
        How many preceding deletions of the object to try as the move
        destination. The paper uses the nearest one only; trying a few
        more is a strict superset that can only remove more dummies.
    max_passes:
        Number of full left-to-right sweeps (a sweep that changes nothing
        ends the loop early).
    """

    name = "H1"

    def __init__(
        self,
        max_depth: int = 6,
        max_deletion_candidates: int = 4,
        max_passes: int = 4,
    ) -> None:
        self.max_depth = max_depth
        self.max_deletion_candidates = max_deletion_candidates
        self.max_passes = max_passes

    # ------------------------------------------------------------------
    def optimize(
        self, instance: RtspInstance, schedule: Schedule, rng=None
    ) -> Schedule:
        return remove_dummies(
            instance,
            schedule,
            lambda columns, p: self._restore(columns, p, self.max_depth),
            self.max_passes,
        )

    # ------------------------------------------------------------------
    def _restore(
        self, columns: ActionColumns, p: int, depth: int
    ) -> Optional[ActionColumns]:
        """Try to eliminate the dummy transfer at ``p``.

        Returns the columns of a rewritten schedule whose dummy count is
        strictly lower than the input's, or ``None``.
        """
        _, i, k, _ = columns.row(p)
        destinations = columns.deletion_positions_before(p, k)[
            : self.max_deletion_candidates
        ]
        for q in destinations:
            j = columns.row(q)[1]
            if j == i:
                continue
            restored = transfer_row(i, k, j)
            # Case (i): plain move right before D_jk.
            edit = Edit(q, p + 1, (restored,), {p: ()})
            if columns.proves(edit):
                return columns.apply(edit)
            result = self._hoist_standalone(columns, p, q, restored)
            if result is not None:
                return result
            result = self._move_pairs(columns, p, q, restored, depth)
            if result is not None:
                return result
        return None

    # ------------------------------------------------------------------
    def _hoist_standalone(
        self, columns: ActionColumns, p: int, q: int, restored: Row
    ) -> Optional[ActionColumns]:
        """Case (ii): hoist standalone deletions of the target to make room.

        Standalone deletions are tried in schedule order, accumulating one
        more per attempt until capacity suffices (the replay decides).
        """
        i = restored[1]
        dels = columns.server_deletions_between(q, p, i)
        standalone = [r for r in dels if columns.is_standalone_deletion(q, r)]
        replace = {p: ()}
        head = ()
        for r in standalone:
            replace[r] = ()
            head += (columns.row(r),)
            edit = Edit(q, p + 1, head + (restored,), dict(replace))
            if columns.proves(edit):
                return columns.apply(edit)
        return None

    def _move_pairs(
        self,
        columns: ActionColumns,
        p: int,
        q: int,
        restored: Row,
        depth: int,
    ) -> Optional[ActionColumns]:
        """Case (iii): hoist a deletion together with its feeding transfer.

        For a deletion ``D_ik'`` whose replica is re-homed by a preceding
        transfer ``T_i''k'i``, move the pair before the restored transfer.
        If the pair move fails (typically capacity at ``S_i''``), convert
        the feeding transfer into a dummy transfer in place and recursively
        restore *it* — the separating window shrinks at each level, so the
        recursion terminates; on failure everything backtracks.
        """
        i = restored[1]
        dummy = columns.start.dummy
        for r in columns.server_deletions_between(q, p, i):
            if columns.is_standalone_deletion(q, r):
                continue  # handled by case (ii)
            b = columns.blocking_transfer(q, r)
            if b is None:
                continue  # blocked by a creation, not a re-homing: unmovable
            feeding, deletion = columns.row(b), columns.row(r)
            # Pair move: feeding transfer, then the deletion, then the
            # restored transfer, all placed before D_jk at q.
            edit = Edit(
                q, p + 1, (feeding, deletion, restored), {p: (), b: (), r: ()}
            )
            if columns.proves(edit):
                return columns.apply(edit)
            if depth <= 0:
                continue
            # Recursive variant (paper's H''): hoist the deletion, restore
            # our transfer, and leave the feeding transfer in place as a
            # *dummy* transfer to be restored recursively.
            converted = transfer_row(feeding[1], feeding[2], dummy)
            edit = Edit(q, p + 1, (deletion, restored), {p: (), r: (), b: (converted,)})
            if not columns.proves(edit):
                continue
            staged = columns.apply(edit)
            # Position of the converted transfer: two actions were inserted
            # at q and only positions after b changed (r > b always).
            pos = b + 2
            assert staged.row(pos) == converted
            deeper = self._restore(staged, pos, depth - 1)
            if deeper is not None:
                return deeper
        return None
