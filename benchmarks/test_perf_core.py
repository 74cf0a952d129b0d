"""Performance micro-benchmarks: state machine, validator, network.

Ablation 1 of DESIGN.md: the schedule validator is the optimizers' inner
loop — ``test_full_validation`` vs. ``test_window_validation`` quantifies
what the touched-row window proof buys. Ablation 3: nearest-source
queries under the two state representations.
"""

import numpy as np
import pytest

from repro.core import get_builder
from repro.core.optimizers.common import (
    ActionColumns,
    ArrayState,
    Edit,
    transfer_row,
)
from repro.model.state import SystemState
from repro.network.brite import brite_paper_topology
from repro.network.paths import all_pairs_shortest_paths
from repro.workloads.regular import paper_instance


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


def test_state_apply_throughput(benchmark, instance, schedule):
    actions = schedule.actions()

    def replay():
        state = SystemState(instance)
        for a in actions:
            state.apply(a)
        return state

    state = benchmark(replay)
    assert state.matches(instance.x_new)


def test_array_state_apply_throughput(benchmark, instance, schedule):
    actions = schedule.actions()

    def replay():
        state = ArrayState(instance)
        for a in actions:
            state.apply(a)
        return state

    state = benchmark(replay)
    assert (state.placement == instance.x_new).all()


def test_nearest_query_system_state(benchmark, instance):
    state = SystemState(instance)
    targets = [(i, k) for i in range(instance.num_servers) for k in range(8)]

    def queries():
        return sum(state.nearest(i, k) for i, k in targets)

    benchmark(queries)


def test_nearest_query_array_state(benchmark, instance):
    state = ArrayState(instance)
    targets = [(i, k) for i in range(instance.num_servers) for k in range(8)]

    def queries():
        return sum(state.nearest(i, k) for i, k in targets)

    benchmark(queries)


def test_brite_topology_generation(benchmark, bench_scale):
    topo = benchmark(brite_paper_topology, n=bench_scale.num_servers, rng=0)
    assert topo.is_tree()


def test_all_pairs_shortest_paths(benchmark, bench_scale):
    topo = brite_paper_topology(n=bench_scale.num_servers, rng=0)
    costs = benchmark(all_pairs_shortest_paths, topo)
    assert np.isfinite(costs).all()
