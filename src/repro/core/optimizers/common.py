"""Shared machinery for the schedule optimizers.

Every optimizer follows the same pattern: construct a candidate rewrite,
then *prove* it by replay before acceptance.

A crucial performance property makes the proof cheap: the replication
state trajectory depends only on each action's (server, object) effect —
never on transfer *sources*. All rewrites performed by H1/H2/OP1 permute
or inject actions inside a contiguous window and preserve the multiset of
per-cell effects, so the state at the window's end (and therefore the
validity of the untouched suffix) is unchanged. A candidate is valid iff
its *window* replays validly from the state at the window's start, which
turns an O(schedule) proof into an O(window) one.

The proof narrows further, to the rows the rewrite touches.

**Touched-row lemma.** Let ``W`` be a window that replays validly from
state ``S``, and ``W'`` a rewrite of ``W`` that keeps its unmoved actions
in their original order. Let ``T`` be the set of servers that appear as
target, deletion server or real (non-dummy) source of any action that
``W'`` injects, moves, re-sources or drops. Then ``W'`` is valid from
``S`` iff the actions of ``W'`` whose target or source lies in ``T``
replay validly on the rows of ``T`` alone, checking the target side only
for targets in ``T`` and source holding only for sources in ``T``.
*Proof.* A row outside ``T`` is written only by unmoved actions, which
keep their order, so its trajectory in ``W'`` equals the one in ``W``;
and an unmoved action keeps its place among them. Every check an unmoved
action makes against such a row therefore has the outcome it had in
``W``, where it passed. The rows of ``T`` are rebuilt exactly: every
action writing them is selected and replayed in order.

**Repairs.** OP1's case (iii) replays ``W'`` re-sourcing each transfer
whose source lost the object (while its target still lacks it) to the
cheapest holder at its place, or the dummy, up to a budget. The lemma
covers that replay with ``T`` unchanged. A re-sourced transfer keeps its
cell effect, so its target row's trajectory is unchanged, and its new
source is only read. A source check can fail only for a source in
``T``: a source outside ``T`` follows its trajectory in ``W``, where the
check passed. So every transfer a full replay repairs is selected, and
is repaired in the same order, against the same budget. The holders it
chooses from are the rows of ``T`` as replayed, plus the holders outside
``T`` before its position in the original schedule, since those rows
follow the original trajectory.

Free space of a row starts from the expression a full replay starts
from, ``capacities - X_old @ sizes`` over the whole vector, and changes
by the same float operations in the same order, so every capacity check
is bit-identical to a full replay, ``CAPACITY_EPS`` edge included.

:class:`ActionColumns` holds a schedule in the kind /
target-or-server / object / source encoding of
:class:`~repro.flat.buffers.FlatActionBuffer` (row tuples for scalar
reads, an ``n x 4`` int32 table for the window masks), with the
per-server and per-object position indices the optimizers query;
:class:`Edit` is a candidate rewrite of it, proven by
:meth:`ActionColumns.proves` (or repaired by
:meth:`ActionColumns.repair`) and applied (building new columns) only on
acceptance. :func:`nearest` picks the cheapest source among a holder
set, for OP1 and NSR.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.flat.buffers import FlatSchedule
from repro.model.actions import Action, Delete, Transfer
from repro.model.instance import RtspInstance
from repro.model.schedule import (
    KIND_DELETE,
    KIND_TRANSFER,
    Schedule,
    actions_from_arrays,
)
from repro.model.state import CAPACITY_EPS


def nearest(
    costs: np.ndarray, dummy: int, target: int, holders: Iterable[int]
) -> int:
    """Cheapest of ``holders`` to send an object to ``target``, else the dummy.

    ``target`` itself is skipped. Ties break to the lowest server index,
    and a real holder beats an equal-cost dummy (the contract of
    :meth:`repro.model.state.SystemState.nearest`); the result does not
    depend on the order of ``holders``.
    """
    row = costs[target]
    best, best_cost = dummy, row[dummy]
    for j in holders:
        if j != target:
            c = row[j]
            if c < best_cost or (c == best_cost and j < best):
                best, best_cost = j, c
    return best


def count_dummies(instance: RtspInstance, actions: Iterable[Action]) -> int:
    """Number of dummy-sourced transfers in an action sequence."""
    dummy = instance.dummy
    return sum(
        1 for a in actions if isinstance(a, Transfer) and a.source == dummy
    )


# ----------------------------------------------------------------------
# int32 action columns and touched-row proofs
# ----------------------------------------------------------------------
#: One action in the flat encoding: ``(kind, primary, obj, source)``,
#: ``primary`` being the transfer target or deletion server and
#: ``source`` 0 for deletions (the layout of ``FlatActionBuffer``).
Row = Tuple[int, int, int, int]
_SERVER, _OBJ = 1, 2  # row fields the position indices group by


def transfer_row(target: int, obj: int, source: int) -> Row:
    """Row of ``T(target, obj, source)``."""
    return (KIND_TRANSFER, target, obj, source)


def delete_row(server: int, obj: int) -> Row:
    """Row of ``D(server, obj)``."""
    return (KIND_DELETE, server, obj, 0)


class Edit(NamedTuple):
    """A candidate rewrite of the window ``[lo, hi)`` of a schedule.

    The rewritten window is ``head`` followed by the window's positions
    in order, position ``pos`` replaced by ``replace[pos]`` when present
    (an empty tuple drops it). Moving an action is dropping it from its
    position and putting its row in ``head``.
    """

    lo: int
    hi: int
    head: Tuple[Row, ...]
    replace: Dict[int, Tuple[Row, ...]]


class _StartRows:
    """Per-instance data every :class:`ActionColumns` of a run shares."""

    __slots__ = ("instance", "dummy", "sizes", "_free", "_held", "_holders")

    def __init__(self, instance: RtspInstance) -> None:
        self.instance = instance
        self.dummy = instance.dummy
        self.sizes: List[float] = instance.sizes.tolist()
        self._free: Optional[List[float]] = None
        self._held: Dict[int, FrozenSet[int]] = {}
        self._holders: Optional[List[FrozenSet[int]]] = None

    def free(self, server: int) -> float:
        """Free space of ``server`` in ``X_old``."""
        if self._free is None:
            # The full-vector expression a full replay starts from, so
            # each row's float sequence is bit-identical to a full replay's.
            inst = self.instance
            self._free = (
                inst.capacities - inst.x_old.astype(np.float64) @ inst.sizes
            ).tolist()
        return self._free[server]

    def held(self, server: int) -> FrozenSet[int]:
        """Objects ``server`` holds in ``X_old``."""
        held = self._held.get(server)
        if held is None:
            held = frozenset(np.flatnonzero(self.instance.x_old[server]).tolist())
            self._held[server] = held
        return held

    def holders(self, obj: int) -> FrozenSet[int]:
        """Servers holding ``obj`` in ``X_old``."""
        if self._holders is None:
            # One row-major pass (a column gather per object is strided),
            # over booleans, where numpy finds nonzeros fastest.
            inst = self.instance
            cells = np.flatnonzero(inst.x_old.astype(bool))
            servers, objs = np.divmod(cells, inst.num_objects)
            servers = servers[np.argsort(objs, kind="stable")].tolist()
            ends = np.cumsum(np.bincount(objs, minlength=inst.num_objects))
            starts = [0] + ends[:-1].tolist()
            self._holders = [
                frozenset(servers[a:b]) for a, b in zip(starts, ends.tolist())
            ]
        return self._holders[obj]


def _as_action(row: Row) -> Action:
    kind, primary, obj, source = row
    if kind == KIND_TRANSFER:
        return Transfer(primary, obj, source)
    return Delete(primary, obj)


def _as_table(rows: Sequence[Row]) -> np.ndarray:
    return np.array(rows, dtype=np.int32).reshape(-1, 4)


class ActionColumns:
    """A schedule as int32 action columns, for the optimizers' rewrite proofs.

    Immutable: an accepted :class:`Edit` builds new columns
    (:meth:`apply`). The ``n x 4`` table, position indices and start rows
    are built on first use and cached for the lifetime of the columns,
    which is all the candidates proven against one schedule. Action
    objects the columns were read from are kept and reused for every
    position an edit leaves in place.
    """

    __slots__ = (
        "start",
        "_rows",
        "_actions",
        "_table",
        "_groups",
        "_dummies",
        "_row_cache",
    )

    def __init__(
        self,
        start: _StartRows,
        rows: List[Row],
        table: Optional[np.ndarray] = None,
        actions: Optional[List[Action]] = None,
    ) -> None:
        self.start = start
        self._rows = rows
        self._table = table
        self._actions = actions
        self._groups: Dict[int, Tuple[np.ndarray, List[int]]] = {}
        self._dummies: Optional[List[int]] = None
        self._row_cache: Dict[Tuple[int, int], Tuple[FrozenSet[int], float]] = {}

    @classmethod
    def from_schedule(
        cls, instance: RtspInstance, schedule: Schedule
    ) -> "ActionColumns":
        """Columns of ``schedule``; a lazy ``FlatSchedule`` is read from
        its buffer without materializing."""
        start = _StartRows(instance)
        if isinstance(schedule, FlatSchedule) and not schedule.materialized:
            table = np.stack(schedule._buffer.columns(), axis=1)
            rows = list(zip(*(column.tolist() for column in table.T)))
            return cls(start, rows, table=table)
        actions = schedule.actions()
        rows = [
            (KIND_TRANSFER, a.target, a.obj, a.source)
            if isinstance(a, Transfer)
            else (KIND_DELETE, a.server, a.obj, 0)
            for a in actions
        ]
        return cls(start, rows, actions=actions)

    @property
    def table(self) -> np.ndarray:
        """``n x 4`` int32: kind, primary, obj, source of each action."""
        if self._table is None:
            self._table = _as_table(self._rows)
        return self._table

    def __len__(self) -> int:
        return len(self._rows)

    def row(self, pos: int) -> Row:
        """The action at ``pos`` as a row."""
        return self._rows[pos]

    def to_schedule(self) -> Schedule:
        """The schedule as a plain :class:`Schedule` of action objects."""
        if self._actions is None:
            self._actions = actions_from_arrays(*self.table.T.tolist())
        return Schedule(self._actions)

    # ------------------------------------------------------------------
    # position indices
    # ------------------------------------------------------------------
    def _positions(self, column: int, key: int, lo: int, hi: int) -> List[int]:
        """Positions in ``[lo, hi)`` whose ``column`` (1: primary server,
        2: object) equals ``key``, in order."""
        group = self._groups.get(column)
        if group is None:
            values = self.table[:, column]
            inst = self.start.instance
            size = inst.num_servers if column == _SERVER else inst.num_objects
            order = np.argsort(values, kind="stable")
            bounds = np.zeros(size + 1, dtype=np.int64)
            np.cumsum(np.bincount(values, minlength=size), out=bounds[1:])
            group = self._groups[column] = (order, bounds.tolist())
        order, bounds = group
        positions = order[bounds[key] : bounds[key + 1]].tolist()
        return positions[bisect_left(positions, lo) : bisect_left(positions, hi)]

    def object_positions(self, obj: int) -> List[int]:
        """Positions holding an action on ``obj``, in order."""
        return self._positions(_OBJ, obj, 0, len(self._rows))

    def transfer_pairs(self, lo: int = 0) -> Iterator[Tuple[int, int, int]]:
        """``(p1, p2, j)`` for every transfer at ``p1 >= lo`` that has a
        later transfer of its object, the first of which is at ``p2``;
        ``j`` counts the object's transfers before ``p1``. Ordered by
        ``p1``."""
        table = self.table
        transfers = np.flatnonzero(table[:, 0] == KIND_TRANSFER)
        order = np.argsort(table[transfers, 2], kind="stable")
        transfers = transfers[order]  # by object, then position
        objs = table[transfers, 2]
        rank = np.arange(len(objs)) - np.searchsorted(objs, objs)
        chained = np.flatnonzero(objs[1:] == objs[:-1])
        by_first = chained[np.argsort(transfers[chained])]
        first = transfers[by_first]
        cut = int(np.searchsorted(first, lo))
        by_first = by_first[cut:]
        return zip(
            first[cut:].tolist(),
            transfers[by_first + 1].tolist(),
            rank[by_first].tolist(),
        )

    def dummy_positions(self) -> List[int]:
        """Positions of dummy-sourced transfers, in order."""
        if self._dummies is None:
            dummy = self.start.dummy
            self._dummies = [
                x
                for x, (kind, _, _, source) in enumerate(self._rows)
                if kind == KIND_TRANSFER and source == dummy
            ]
        return self._dummies

    def deletion_positions_before(self, position: int, obj: int) -> List[int]:
        """Positions ``< position`` holding a deletion of ``obj``, nearest first."""
        rows = self._rows
        return [
            x
            for x in reversed(self._positions(_OBJ, obj, 0, position))
            if rows[x][0] == KIND_DELETE
        ]

    def server_deletions_between(self, lo: int, hi: int, server: int) -> List[int]:
        """Positions in ``(lo, hi)`` holding deletions at ``server``, in order."""
        rows = self._rows
        return [
            x
            for x in self._positions(_SERVER, server, lo + 1, hi)
            if rows[x][0] == KIND_DELETE
        ]

    def is_standalone_deletion(self, window_start: int, del_pos: int) -> bool:
        """Whether the deletion at ``del_pos`` can be hoisted to ``window_start``.

        Per paper H1 case (ii), a deletion ``D_ik'`` is *standalone* within
        the separating sub-schedule when no transfer between the hoist
        destination and the deletion either uses ``S_i`` as a source of
        ``O_k'`` (hoisting would destroy that source) or creates ``O_k'``
        on ``S_i`` (the replica would not exist yet at the destination).
        """
        kind, server, obj, _ = self._rows[del_pos]
        assert kind == KIND_DELETE
        for x in self._positions(_OBJ, obj, window_start, del_pos):
            kind, target, _, source = self._rows[x]
            if kind == KIND_TRANSFER and server in (source, target):
                return False
        return True

    def blocking_transfer(self, window_start: int, del_pos: int) -> Optional[int]:
        """Last transfer in the window using the deletion's replica as source.

        This is the ``T_i''k'i`` of paper H1 case (iii): the transfer that
        re-homes the replica before it is deleted. Returns its position, or
        ``None`` when no such transfer exists.
        """
        kind, server, obj, _ = self._rows[del_pos]
        assert kind == KIND_DELETE
        for x in reversed(self._positions(_OBJ, obj, window_start, del_pos)):
            kind, _, _, source = self._rows[x]
            if kind == KIND_TRANSFER and source == server:
                return x
        return None

    # ------------------------------------------------------------------
    # state before a position
    # ------------------------------------------------------------------
    def row_before(self, position: int, server: int) -> Tuple[FrozenSet[int], float]:
        """``(held objects, free space)`` of ``server`` before ``position``.

        Replays only that server's earlier actions, in schedule order,
        from ``X_old``.
        """
        key = (position, server)
        hit = self._row_cache.get(key)
        if hit is not None:
            return hit
        start = self.start
        sizes = start.sizes
        held = set(start.held(server))
        free = start.free(server)
        for x in self._positions(_SERVER, server, 0, position):
            kind, _, obj, _ = self._rows[x]
            if kind == KIND_TRANSFER:
                held.add(obj)
                free -= sizes[obj]
            else:
                held.discard(obj)
                free += sizes[obj]
        hit = self._row_cache[key] = (frozenset(held), free)
        return hit

    def holders_before(self, position: int, obj: int) -> Set[int]:
        """Servers holding ``obj`` before ``position``."""
        holders = set(self.start.holders(obj))
        for x in self._positions(_OBJ, obj, 0, position):
            kind, server, _, _ = self._rows[x]
            if kind == KIND_TRANSFER:
                holders.add(server)
            else:
                holders.discard(server)
        return holders

    # ------------------------------------------------------------------
    # edits
    # ------------------------------------------------------------------
    def proves(self, edit: Edit) -> bool:
        """Whether the rewrite ``edit`` keeps the schedule valid.

        The touched-row proof of the module docstring: exactly the answer
        of replaying the whole rewritten window over a full state. The
        edit must keep the window's multiset of per-cell effects (H1, H2
        and OP1 rewrites do), so the suffix after the window stays valid.
        """
        return self.repair(edit, max_repairs=0) is not None

    def repair(self, edit: Edit, max_repairs: int = 64) -> Optional[Edit]:
        """``edit`` proven with OP1's source repairs (case iii).

        Replays like :meth:`proves`, but a transfer whose source no longer
        holds its object, while its target still lacks it, is re-sourced
        to the cheapest holder at its place (:func:`nearest`; possibly the
        dummy), at most ``max_repairs`` times. Returns ``edit`` itself when
        nothing needed a repair, the repaired edit, or ``None`` when the
        rewrite is invalid even so: the answer of a full replay of the
        window that makes the same repairs (module docstring).
        """
        lo, hi, head, replace = edit
        rows = self._rows
        dummy = self.start.dummy
        injected = [row for group in (head, *replace.values()) for row in group]
        # Static checks; unmoved actions passed them in the original window.
        for kind, target, _, source in injected:
            if target == dummy or (kind == KIND_TRANSFER and target == source):
                return None
        touched = set()
        for kind, primary, _, source in injected + [rows[x] for x in replace]:
            touched.add(primary)
            if kind == KIND_TRANSFER:
                touched.add(source)
        touched.discard(dummy)

        window = self.table[lo:hi]
        primary, source = window[:, 1], window[:, 3]
        hits = np.zeros(hi - lo, dtype=bool)
        sourced = np.zeros(hi - lo, dtype=bool)
        for server in touched:
            hits |= primary == server
            sourced |= source == server
        # A deletion's source column is 0, not a server: mask by kind.
        hits |= sourced & (window[:, 0] == KIND_TRANSFER)

        selected = (np.flatnonzero(hits) + lo).tolist()
        sequence = list(head)
        for x in selected:
            swap = replace.get(x)
            if swap is None:
                sequence.append(rows[x])
            else:
                sequence.extend(swap)

        held: Dict[int, Set[int]] = {}
        free: Dict[int, float] = {}
        for server in touched:
            start_held, free[server] = self.row_before(lo, server)
            held[server] = set(start_held)
        sizes, costs = self.start.sizes, self.start.instance.costs
        repairs: List[Tuple[Optional[int], int, int]] = []  # origin, source
        for n, (kind, target, obj, source) in enumerate(sequence):
            if kind == KIND_TRANSFER:
                objs = held.get(source)
                if objs is not None and obj not in objs:
                    objs = held.get(target)
                    if len(repairs) >= max_repairs or (
                        objs is not None and obj in objs
                    ):
                        return None
                    x, j = _origin(edit, selected, n)
                    holders = self.holders_before(lo if x is None else x, obj)
                    holders -= touched
                    holders.update(s for s in touched if obj in held[s])
                    repairs.append((x, j, nearest(costs, dummy, target, holders)))
                objs = held.get(target)
                if objs is not None:
                    size = sizes[obj]
                    if obj in objs or not free[target] + CAPACITY_EPS >= size:
                        return None
                    objs.add(obj)
                    free[target] -= size
            else:
                objs = held.get(target)
                if objs is not None:
                    if obj not in objs:
                        return None
                    objs.discard(obj)
                    free[target] += sizes[obj]
        if not repairs:
            return edit
        head, replace = list(head), dict(replace)
        for x, j, new_source in repairs:
            group = head if x is None else list(replace.get(x, (rows[x],)))
            group[j] = group[j][:3] + (new_source,)
            if x is not None:
                replace[x] = tuple(group)
        return Edit(lo, hi, tuple(head), replace)

    def apply(self, edit: Edit) -> "ActionColumns":
        """New columns with ``edit`` applied (the receiver is unchanged).

        The result is spliced from ranges of the receiver's rows, table
        and action objects, with only the edit's own rows converted.
        """
        lo, _, head, replace = edit
        # (kept range of old positions, edit rows that follow it)
        parts = [((0, lo), head)]
        cursor = lo
        for x in sorted(replace):
            parts.append(((cursor, x), replace[x]))
            cursor = x + 1
        parts.append(((cursor, len(self._rows)), ()))

        rows: List[Row] = []
        for (a, b), new in parts:
            rows += self._rows[a:b]
            rows += new
        table = None
        if self._table is not None:
            blocks = []
            for (a, b), new in parts:
                blocks += [self._table[a:b], _as_table(new)]
            table = np.concatenate(blocks)
        actions = None
        if self._actions is not None:
            actions = []
            for (a, b), new in parts:
                actions += self._actions[a:b]
                actions += map(_as_action, new)
        return ActionColumns(self.start, rows, table, actions)


def _origin(edit: Edit, selected: List[int], n: int) -> Tuple[Optional[int], int]:
    """Where element ``n`` of a proof's replay sequence comes from, the
    window positions it replayed being ``selected``: ``(None, j)`` for
    ``edit.head[j]``, else ``(x, j)`` for row ``j`` of what position ``x``
    becomes."""
    if n < len(edit.head):
        return None, n
    n -= len(edit.head)
    for x in selected:
        width = len(edit.replace.get(x, (None,)))
        if n < width:
            return x, n
        n -= width
    raise IndexError(n)


def remove_dummies(
    instance: RtspInstance,
    schedule: Schedule,
    restore: Callable[[ActionColumns, int], Optional[ActionColumns]],
    max_passes: int,
) -> Schedule:
    """The sweep H1 and H2 share, around their ``restore`` step.

    Each pass goes left to right, trying every ``(target, object)`` of a
    dummy transfer once: always the leftmost dummy transfer not tried
    yet. ``restore(columns, position)`` returns the rewritten columns, or
    ``None`` to leave that transfer. Passes stop when no dummy transfer
    is left or a pass changed nothing.
    """
    columns = ActionColumns.from_schedule(instance, schedule)
    for _ in range(max_passes):
        if not columns.dummy_positions():
            break
        progressed = False
        attempted: Set[Tuple[int, int]] = set()
        while True:
            position = next(
                (
                    x
                    for x in columns.dummy_positions()
                    if columns.row(x)[1:3] not in attempted
                ),
                None,
            )
            if position is None:
                break
            attempted.add(columns.row(position)[1:3])
            result = restore(columns, position)
            if result is not None:
                columns = result
                progressed = True
        if not progressed:
            break
    return columns.to_schedule()
