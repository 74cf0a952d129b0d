"""Tests for the optimizer machinery (action columns, touched-row proofs
and repairs, the holder-index nearest source) and for the full-state
oracles in ``tests/optimizer_oracle.py`` the property tests check them
against."""

import numpy as np
import pytest

from repro.core.optimizers.common import (
    ActionColumns,
    Edit,
    count_dummies,
    delete_row,
    nearest,
    transfer_row,
)
from repro.model.actions import Delete, Transfer
from repro.model.instance import RtspInstance
from repro.model.schedule import Schedule
from repro.model.state import SystemState
from tests.optimizer_oracle import (
    ArrayState,
    actions_cost,
    window_replay_with_repairs,
)


@pytest.fixture
def inst():
    x_old = np.array([[1, 0], [0, 1], [0, 0]], dtype=np.int8)
    x_new = np.array([[0, 0], [0, 1], [1, 0]], dtype=np.int8)
    costs = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    return RtspInstance.create([1.0, 1.0], [1.0, 1.0, 1.0], costs, x_old, x_new)


class TestArrayState:
    def test_mirrors_system_state_semantics(self, inst):
        """ArrayState and SystemState agree on validity for a batch of
        random action attempts."""
        rng = np.random.default_rng(0)
        heavy = SystemState(inst)
        light = ArrayState(inst)
        candidates = [
            Transfer(2, 0, 0),
            Transfer(2, 0, 1),
            Transfer(0, 1, 1),
            Transfer(2, 1, inst.dummy),
            Delete(0, 0),
            Delete(2, 0),
            Transfer(inst.dummy, 0, 0),
            Transfer(0, 0, 0),
        ]
        for _ in range(50):
            a = candidates[int(rng.integers(0, len(candidates)))]
            assert light.is_valid(a) == heavy.is_valid(a), str(a)
            if light.is_valid(a):
                light.apply(a)
                heavy.apply(a)

    def test_copy_independent(self, inst):
        s = ArrayState(inst)
        dup = s.copy()
        s.apply(Delete(0, 0))
        assert dup.holds(0, 0) and not s.holds(0, 0)

    def test_nearest_matches_system_state(self, inst):
        light = ArrayState(inst)
        heavy = SystemState(inst)
        for target in range(3):
            for obj in range(2):
                assert light.nearest(target, obj) == heavy.nearest(target, obj)

    def test_nearest_exclude(self, inst):
        light = ArrayState(inst)
        assert light.nearest(2, 0, exclude=0) == inst.dummy

    def test_holder_index_nearest_matches(self, inst):
        """The optimizers' holder-set nearest agrees with the oracle's."""
        light = ArrayState(inst)
        for target in range(3):
            for obj in range(2):
                holders = np.flatnonzero(light.placement[:, obj]).tolist()
                assert nearest(inst.costs, inst.dummy, target, holders) == (
                    light.nearest(target, obj)
                )

    def test_try_apply(self, inst):
        s = ArrayState(inst)
        assert not s.try_apply(Transfer(2, 0, 1))
        assert s.try_apply(Transfer(2, 0, 0))
        assert s.holds(2, 0)


def columns(inst, actions):
    return ActionColumns.from_schedule(inst, Schedule(actions))


class TestStartRows:
    """Rows of the state before a position, replayed from ``X_old``."""

    def test_snapshots_before_positions(self, inst):
        cols = columns(inst, [Delete(0, 0), Transfer(2, 0, inst.dummy), Delete(2, 0)])
        assert 0 in cols.row_before(0, 0)[0]
        assert 0 not in cols.row_before(1, 0)[0]
        assert cols.row_before(1, 0)[1] == 1.0
        assert 0 in cols.row_before(2, 2)[0]
        assert cols.row_before(2, 2)[1] == 0.0
        assert cols.row_before(3, 2) == (frozenset(), 1.0)

    def test_duplicate_positions_ok(self, inst):
        cols = columns(inst, [Delete(0, 0)])
        first = cols.row_before(0, 0)
        assert cols.row_before(0, 0) == first == (frozenset({0}), 0.0)
        assert cols.row_before(1, 0) == (frozenset(), 1.0)

    def test_rows_match_full_replay(self, inst):
        actions = [Delete(0, 0), Transfer(2, 0, inst.dummy), Transfer(0, 1, 1)]
        cols = columns(inst, actions)
        state = ArrayState(inst)
        for pos in range(len(actions) + 1):
            for server in range(inst.num_servers):
                held, free = cols.row_before(pos, server)
                assert held == set(np.flatnonzero(state.placement[server]))
                assert free == state.free[server]
            if pos < len(actions):
                state.apply(actions[pos])

    def test_holders_before(self, inst):
        cols = columns(inst, [Delete(0, 0), Transfer(2, 0, inst.dummy)])
        assert cols.holders_before(0, 0) == {0}
        assert cols.holders_before(1, 0) == set()
        assert cols.holders_before(2, 0) == {2}

    def test_flat_schedule_read_without_materializing(self):
        from repro.core import get_builder
        from repro.workloads.regular import paper_instance
        from tests.builder_oracle import oracle_build

        inst = paper_instance(2, 8, 20, rng=1)
        flat = get_builder("GOLCF").build(inst, rng=3)
        cols = ActionColumns.from_schedule(inst, flat)
        assert not flat.materialized
        assert cols.to_schedule() == oracle_build("GOLCF", inst, rng=3)


class TestWindowReplay:
    def test_window_valid_accepts(self, inst):
        # [D(0,0), T(2,0,d)] -> [T(2,0,0), D(0,0)]: H1's move before the
        # deletion.
        cols = columns(inst, [Delete(0, 0), Transfer(2, 0, inst.dummy)])
        edit = Edit(0, 2, (transfer_row(2, 0, 0),), {1: ()})
        assert cols.proves(edit)
        assert cols.apply(edit).to_schedule() == Schedule(
            [Transfer(2, 0, 0), Delete(0, 0)]
        )

    def test_window_valid_rejects_and_preserves_start(self, inst):
        # Re-sourcing the transfer in place to the deleted replica.
        original = [Delete(0, 0), Transfer(2, 0, inst.dummy)]
        cols = columns(inst, original)
        start = cols.row_before(0, 0)
        edit = Edit(0, 2, (), {1: (transfer_row(2, 0, 0),)})
        assert not cols.proves(edit)
        assert cols.row_before(0, 0) == start == (frozenset({0}), 0.0)
        assert 0 in cols.start.held(0)  # start state untouched
        assert cols.to_schedule() == Schedule(original)

    def test_rejects_capacity_overflow(self, inst):
        # Server 0 is full until D(0,0): a transfer of object 1 before it
        # overflows, after it fits.
        actions = [Delete(0, 0), Transfer(0, 1, 1), Delete(0, 1)]
        cols = columns(inst, actions)
        assert not cols.proves(Edit(0, 2, (transfer_row(0, 1, 1),), {1: ()}))
        assert cols.proves(Edit(0, 2, (), {}))

    def test_rejects_static_violations(self, inst):
        cols = columns(inst, [Delete(0, 0), Transfer(2, 0, inst.dummy)])
        assert not cols.proves(Edit(0, 2, (transfer_row(2, 0, 2),), {1: ()}))
        assert not cols.proves(
            Edit(0, 2, (transfer_row(inst.dummy, 0, 0),), {1: ()})
        )

    def test_repairs_broken_source(self, inst):
        start = ArrayState(inst)
        window = [Delete(0, 0), Transfer(2, 0, 0)]
        repaired = window_replay_with_repairs(start, window)
        assert repaired is not None
        assert repaired[1] == Transfer(2, 0, inst.dummy)
        # The same rewrite as an edit of [T(2,0,0), D(0,0)]: hoist the
        # deletion, which strands the transfer's source.
        cols = columns(inst, [Transfer(2, 0, 0), Delete(0, 0)])
        edit = Edit(0, 2, (delete_row(0, 0),), {1: ()})
        assert not cols.proves(edit)
        fixed = cols.repair(edit)
        resourced = (transfer_row(2, 0, inst.dummy),)
        assert fixed == Edit(0, 2, (delete_row(0, 0),), {1: (), 0: resourced})
        assert cols.apply(fixed).to_schedule() == Schedule(repaired)

    def test_unrepairable_returns_none(self, inst):
        start = ArrayState(inst)
        # deleting an absent replica cannot be repaired
        assert window_replay_with_repairs(start, [Delete(2, 0)]) is None
        cols = columns(inst, [Transfer(2, 0, 0)])
        assert cols.repair(Edit(0, 1, (delete_row(2, 0),), {})) is None

    def test_repair_budget(self, inst):
        start = ArrayState(inst)
        window = [Delete(0, 0), Transfer(2, 0, 0)]
        assert window_replay_with_repairs(start, window, max_repairs=0) is None
        cols = columns(inst, [Transfer(2, 0, 0), Delete(0, 0)])
        edit = Edit(0, 2, (delete_row(0, 0),), {1: ()})
        assert cols.repair(edit, max_repairs=0) is None
        assert cols.repair(edit, max_repairs=1) is not None

    def test_repair_returns_the_edit_when_nothing_breaks(self, inst):
        cols = columns(inst, [Delete(0, 0), Transfer(2, 0, inst.dummy)])
        edit = Edit(0, 2, (transfer_row(2, 0, 0),), {1: ()})
        assert cols.repair(edit) is edit


class TestAccounting:
    def test_actions_cost(self, inst):
        actions = [Transfer(2, 0, 0), Delete(0, 0), Transfer(0, 1, 1)]
        assert actions_cost(inst, actions) == 2.0 + 1.0

    def test_count_dummies(self, inst):
        actions = [Transfer(2, 0, inst.dummy), Transfer(0, 1, 1)]
        assert count_dummies(inst, actions) == 1


@pytest.fixture
def wide():
    """Room for the structure queries' servers 0-2 and objects 0-8."""
    m, n = 3, 9
    costs = np.ones((m, m)) - np.eye(m)
    x = np.zeros((m, n), dtype=np.int8)
    return RtspInstance.create(np.ones(n), np.full(m, n), costs, x, x)


class TestStructureQueries:
    def test_deletion_positions_before_nearest_first(self, wide):
        actions = [Delete(0, 5), Transfer(1, 5, 0), Delete(2, 5), Delete(1, 6)]
        assert columns(wide, actions).deletion_positions_before(4, 5) == [2, 0]

    def test_server_deletions_between_exclusive(self, wide):
        actions = [Delete(1, 0), Delete(1, 1), Delete(1, 2), Delete(1, 3)]
        assert columns(wide, actions).server_deletions_between(0, 3, 1) == [1, 2]

    def test_standalone_detection(self, wide):
        # deletion fed by a transfer sourcing from its server: not standalone
        actions = [Transfer(2, 7, 1), Delete(1, 7)]
        assert not columns(wide, actions).is_standalone_deletion(0, 1)
        # creation at the server: not standalone either
        actions = [Transfer(1, 7, 2), Delete(1, 7)]
        assert not columns(wide, actions).is_standalone_deletion(0, 1)
        # unrelated actions: standalone
        actions = [Transfer(2, 8, 0), Delete(1, 7)]
        assert columns(wide, actions).is_standalone_deletion(0, 1)
        # a feeding transfer before the window does not count
        actions = [Transfer(2, 7, 1), Delete(1, 7)]
        assert columns(wide, actions).is_standalone_deletion(1, 1)

    def test_blocking_transfer_found(self, wide):
        actions = [Transfer(2, 7, 1), Delete(1, 7)]
        assert columns(wide, actions).blocking_transfer(0, 1) == 0

    def test_blocking_transfer_absent(self, wide):
        actions = [Transfer(1, 7, 2), Delete(1, 7)]
        assert columns(wide, actions).blocking_transfer(0, 1) is None
        actions = [Transfer(2, 7, 1), Delete(1, 7)]
        assert columns(wide, actions).blocking_transfer(1, 1) is None

    def test_object_positions(self, wide):
        actions = [Delete(0, 5), Transfer(1, 6, 0), Transfer(2, 5, 0)]
        assert columns(wide, actions).object_positions(5) == [0, 2]
        assert columns(wide, actions).object_positions(6) == [1]

    def test_transfer_pairs(self, wide):
        actions = [
            Transfer(0, 1, 3),
            Transfer(1, 2, 0),
            Delete(0, 1),
            Transfer(2, 1, 3),
            Transfer(2, 2, 1),
            Transfer(1, 1, 2),
        ]
        cols = columns(wide, actions)
        assert list(cols.transfer_pairs()) == [(0, 3, 0), (1, 4, 0), (3, 5, 1)]
        assert list(cols.transfer_pairs(2)) == [(3, 5, 1)]

    def test_dummy_positions(self, wide):
        actions = [
            Transfer(0, 1, 3),
            Delete(0, 2),
            Transfer(1, 1, 0),
            Transfer(2, 1, 3),
        ]
        assert columns(wide, actions).dummy_positions() == [0, 3]
