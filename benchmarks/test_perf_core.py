"""Performance micro-benchmarks: state machine, validator, network.

Ablation 1 of DESIGN.md: the schedule validator is the optimizers' inner
loop — ``test_full_validation`` vs. ``test_window_validation`` (H1's
proof) and ``test_op1_repair_proof`` (OP1's repairing proof) quantifies
what the touched-row window proofs buy. Ablation 3: nearest-source
queries on the full state and on the optimizers' per-object holder sets.

The full-state checks come from ``tests/optimizer_oracle.py``; run from
the repository root so ``tests`` is importable.
"""

import numpy as np
import pytest

from repro.core import get_builder
from repro.core.optimizers.common import (
    ActionColumns,
    Edit,
    nearest,
    transfer_row,
)
from repro.model.state import SystemState
from repro.network.brite import brite_paper_topology
from repro.network.paths import all_pairs_shortest_paths
from repro.workloads.regular import paper_instance
from tests.optimizer_oracle import ArrayState, window_replay_with_repairs


@pytest.fixture(scope="module")
def instance(bench_scale):
    return paper_instance(
        replicas=2,
        num_servers=bench_scale.num_servers,
        num_objects=bench_scale.num_objects,
        rng=bench_scale.base_seed,
    )


@pytest.fixture(scope="module")
def schedule(instance):
    return get_builder("GOLCF").build(instance, rng=2)


def test_full_validation(benchmark, instance, schedule):
    """Full-schedule replay (the optimizers' pre-rewrite baseline)."""
    report = benchmark(schedule.validate, instance)
    assert report.ok


def test_window_validation(benchmark, instance, schedule):
    """Touched-row proof of H1's plain move (case i) for the last dummy
    transfer, to just before the nearest preceding deletion of its
    object — the per-candidate cost inside H1/H2 after the rewrite.

    The proof must agree with a full replay of the rewritten window over
    a full state, and must leave the cached start rows untouched.
    """
    columns = ActionColumns.from_schedule(instance, schedule)
    p = columns.dummy_positions()[-1]
    _, i, k, _ = columns.row(p)
    q = next(
        x for x in columns.deletion_positions_before(p, k) if columns.row(x)[1] != i
    )
    edit = Edit(q, p + 1, (transfer_row(i, k, columns.row(q)[1]),), {p: ()})
    start_rows = {r: columns.row_before(q, r) for r in (i, columns.row(q)[1])}

    ok = benchmark(columns.proves, edit)

    actions = schedule.actions()
    state = ArrayState(instance)
    for action in actions[:q]:
        state.apply(action)
    window = columns.apply(edit).to_schedule().actions()[q : p + 1]
    assert ok == all(state.try_apply(a) for a in window)
    assert {r: columns.row_before(q, r) for r in start_rows} == start_rows


def test_op1_repair_proof(benchmark, instance):
    """Repairing touched-row proofs of OP1's hoisting moves (case iv, with
    case iii repairs) on an AR schedule, where OP1 is active — the
    per-candidate cost inside OP1.

    Every timed candidate must agree with a full-state replay of the
    rewritten window that makes the same repairs, and some must need a
    repair.
    """
    schedule = get_builder("AR").build(instance, rng=2)
    columns = ActionColumns.from_schedule(instance, schedule)
    edits = []
    for p1, p2, _ in columns.transfer_pairs():
        _, i, k, _ = columns.row(p2)
        hoisted = columns.server_deletions_between(p1, p2, i)
        if not hoisted:
            continue
        holders = columns.holders_before(p1, k)
        head = tuple(columns.row(x) for x in hoisted) + (
            transfer_row(i, k, nearest(instance.costs, instance.dummy, i, holders)),
        )
        edits.append(Edit(p1, p2 + 1, head, {p2: (), **dict.fromkeys(hoisted, ())}))
        if len(edits) == 32:
            break

    results = benchmark(lambda: [columns.repair(edit) for edit in edits])

    actions = schedule.actions()
    for edit, got in zip(edits, results):
        state = ArrayState(instance)
        for action in actions[: edit.lo]:
            state.apply(action)
        window = columns.apply(edit).to_schedule().actions()[edit.lo : edit.hi]
        expected = window_replay_with_repairs(state, window)
        if expected is None:
            assert got is None
        else:
            repaired = columns.apply(got).to_schedule().actions()
            assert repaired[edit.lo : edit.hi] == expected
    assert any(got is not None and got is not edit for edit, got in zip(edits, results))


def test_state_apply_throughput(benchmark, instance, schedule):
    actions = schedule.actions()

    def replay():
        state = SystemState(instance)
        for a in actions:
            state.apply(a)
        return state

    state = benchmark(replay)
    assert state.matches(instance.x_new)


def test_nearest_query_system_state(benchmark, instance):
    state = SystemState(instance)
    targets = [(i, k) for i in range(instance.num_servers) for k in range(8)]

    def queries():
        return sum(state.nearest(i, k) for i, k in targets)

    benchmark(queries)


def test_nearest_query_holder_index(benchmark, instance):
    state = SystemState(instance)
    targets = [(i, k) for i in range(instance.num_servers) for k in range(8)]
    holders = [np.flatnonzero(instance.x_old[:, k]).tolist() for k in range(8)]
    costs, dummy = instance.costs, instance.dummy

    def queries():
        return sum(nearest(costs, dummy, i, holders[k]) for i, k in targets)

    assert benchmark(queries) == sum(state.nearest(i, k) for i, k in targets)


def test_brite_topology_generation(benchmark, bench_scale):
    topo = benchmark(brite_paper_topology, n=bench_scale.num_servers, rng=0)
    assert topo.is_tree()


def test_all_pairs_shortest_paths(benchmark, bench_scale):
    topo = brite_paper_topology(n=bench_scale.num_servers, rng=0)
    costs = benchmark(all_pairs_shortest_paths, topo)
    assert np.isfinite(costs).all()
