"""Properties: OP1's and NSR's holder-index sources and OP1's repairing
touched-row proof decide exactly like the full-state oracles.

* :func:`~repro.core.optimizers.common.nearest` over a holder set equals
  ``ArrayState.nearest`` over the whole placement column, ties included:
  equal-cost holders, and a real holder against a dummy at the same price.
* :meth:`ActionColumns.repair <repro.core.optimizers.common.ActionColumns.repair>`
  equals ``window_replay_with_repairs`` on OP1-shaped edits of random
  valid schedules: hoisted deletions that strand transfer sources,
  repairs that fall back to the dummy, and the ``max_repairs`` cap.
  Capacities sit within ``CAPACITY_EPS`` of a load.
  OP1's window cost (its repair penalty's two sums) equals the oracle's
  ``actions_cost`` of the same windows, exactly.
* OP1 and NSR produce the same schedules as with those oracles.
"""

import numpy as np
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from repro.core import get_builder, get_optimizer
from repro.core.optimizers.common import (
    ActionColumns,
    Edit,
    nearest,
    transfer_row,
)
from repro.core.optimizers.op1 import _window_cost
from repro.model.actions import Transfer
from repro.model.instance import RtspInstance
from repro.model.schedule import KIND_DELETE, Schedule
from tests.optimizer_oracle import (
    ArrayState,
    actions_cost,
    window_replay_with_repairs,
)
from tests.properties.test_touched_row_properties import (
    edge_instance,
    random_walk,
    rewritten_window,
    tight_instances,
)

PROFILE = settings(
    deadline=None, max_examples=300, suppress_health_check=[HealthCheck.too_slow]
)


@PROFILE
@given(seed=st.integers(0, 2**32 - 1))
def test_holder_index_nearest_matches_array_state(seed):
    gen = np.random.default_rng(seed)
    m = int(gen.integers(2, 40))
    n = 4
    # Few distinct prices, the dummy's among them, so ties are common.
    costs = gen.integers(1, 4, size=(m + 1, m + 1)).astype(float)
    costs = costs + costs.T
    np.fill_diagonal(costs, 0.0)
    density = gen.choice([0.1, 0.5, 0.9])  # 0.9 reaches the dense branch
    x = (gen.random((m, n)) < density).astype(np.int8)
    inst = RtspInstance.create(
        np.ones(n), np.full(m, float(n)), costs, x, x, validate=False
    )
    state = ArrayState(inst)
    for obj in range(n):
        holders = np.flatnonzero(x[:, obj]).tolist()
        event("dense column" if len(holders) > 16 else "sparse column")
        for target in range(m):
            got = nearest(inst.costs, inst.dummy, target, holders)
            assert got == state.nearest(target, obj)
            prices = sorted(costs[target, j] for j in holders if j != target)
            if prices and prices[0] == costs[target, inst.dummy]:
                event("real holder vs dummy at equal price")
            elif len(prices) > 1 and prices[0] == prices[1]:
                event("equal-cost holders")


def op1_edit(inst, columns, p1, p2, gen) -> Edit:
    """OP1's edit moving the transfer at ``p2`` to ``p1``, with a random
    replacement source and random choices of what is hoisted and
    re-pointed (OP1 itself hoists the moved target's deletions)."""
    _, i, k, _ = columns.row(p2)
    replace = {p2: ()}
    _, t, _, s = columns.row(p1)
    if t != i and gen.random() < 0.5:
        replace[p1] = (transfer_row(t, k, i),)
    deletions = [
        x for x in range(p1 + 1, p2) if columns.row(x)[0] == KIND_DELETE
    ]
    if gen.random() < 0.7:
        hoisted = [x for x in deletions if columns.row(x)[1] == i]
    else:
        hoisted = [x for x in deletions if gen.random() < 0.5]
    sources = sorted(columns.holders_before(p1, k) - {i}) + [inst.dummy]
    source = sources[int(gen.integers(0, len(sources)))]
    if gen.random() < 0.2:
        # Not a holder at p1: the replacement itself needs a repair.
        source = int(gen.choice([j for j in range(inst.num_servers) if j != i]))
    head = tuple(columns.row(x) for x in hoisted) + (transfer_row(i, k, source),)
    replace.update(dict.fromkeys(hoisted, ()))
    return Edit(p1, p2 + 1, head, replace)


@PROFILE
@given(seed=st.integers(0, 2**32 - 1), length=st.integers(8, 30))
def test_repair_matches_window_replay_with_repairs(seed, length):
    gen = np.random.default_rng(seed)
    inst = edge_instance(gen)
    actions = random_walk(inst, gen, length)
    columns = ActionColumns.from_schedule(inst, Schedule(actions))
    pairs = list(columns.transfer_pairs())
    if not pairs:
        event("no transfer pair")
        return
    for _ in range(6):
        p1, p2, _ = pairs[int(gen.integers(0, len(pairs)))]
        edit = op1_edit(inst, columns, p1, p2, gen)
        cap = int(gen.choice([0, 1, 2, 64]))
        state = ArrayState(inst)
        for action in actions[:p1]:
            state.apply(action)
        window = rewritten_window(actions, edit)
        expected = window_replay_with_repairs(state, window, max_repairs=cap)
        got = columns.repair(edit, max_repairs=cap)
        if expected is None:
            assert got is None, edit
            if window_replay_with_repairs(state, window) is not None:
                event("reject: repair cap")
            else:
                event("reject")
            continue
        assert got is not None, edit
        assert rewritten_window(actions, got) == expected
        assert _window_cost(columns, got) == actions_cost(inst, expected)
        assert _window_cost(columns, edit) == actions_cost(inst, window)
        repaired = [b for a, b in zip(window, expected) if a != b]
        if not repaired:
            assert got is edit
            event("accept")
        elif any(a.source == inst.dummy for a in repaired):
            event("accept: dummy-fallback repair")
        else:
            event("accept: repaired")
    assert columns.to_schedule() == Schedule(actions)


@settings(deadline=None, max_examples=40,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    inst=tight_instances(),
    seed=st.integers(0, 50),
    builder=st.sampled_from(["AR", "RDF"]),
    restart=st.booleans(),
)
def test_op1_decides_like_the_oracle(inst, seed, builder, restart):
    """OP1 produces the same schedule when every repairing proof is
    checked against the full-state repair replay."""
    schedule = get_builder(builder).build(inst, rng=seed)
    if builder == "RDF":
        for name in ("H1", "H2"):
            schedule = get_optimizer(name).optimize(inst, schedule)
    op1 = type(get_optimizer("OP1"))(restart=restart)
    fast = op1.optimize(inst, schedule)
    calls = {"accept": 0, "repair": 0, "reject": 0}
    original = ActionColumns.repair

    def oracle(columns, edit, max_repairs=64):
        actions = columns.to_schedule().actions()
        state = ArrayState(inst)
        for action in actions[: edit.lo]:
            state.apply(action)
        window = rewritten_window(actions, edit)
        expected = window_replay_with_repairs(state, window, max_repairs)
        got = original(columns, edit, max_repairs)
        if expected is None:
            assert got is None
            calls["reject"] += 1
        else:
            assert rewritten_window(actions, got) == expected
            calls["accept" if got is edit else "repair"] += 1
        return got

    ActionColumns.repair = oracle
    try:
        slow = op1.optimize(inst, schedule)
    finally:
        ActionColumns.repair = original
    for verdict, count in calls.items():
        if count:
            event(f"OP1 {verdict}")
    assert slow == fast
    assert fast.validate(inst).ok
    assert fast.cost(inst) <= schedule.cost(inst)


def nsr_oracle(inst, actions):
    """NSR over a full state: each transfer re-pointed to
    ``ArrayState.nearest`` at its position when that is cheaper."""
    state = ArrayState(inst)
    out = []
    for action in actions:
        if isinstance(action, Transfer):
            row = inst.costs[action.target]
            best = state.nearest(action.target, action.obj)
            if row[best] < row[action.source]:
                action = action.with_source(best)
        state.apply(action)
        out.append(action)
    return Schedule(out)


@PROFILE
@given(seed=st.integers(0, 2**32 - 1), length=st.integers(1, 30))
def test_nsr_matches_full_state_nearest(seed, length):
    gen = np.random.default_rng(seed)
    inst = edge_instance(gen)
    actions = random_walk(inst, gen, length)
    got = get_optimizer("NSR").optimize(inst, Schedule(actions))
    assert got == nsr_oracle(inst, actions)
    event("re-pointed" if got != Schedule(actions) else "unchanged")
