"""Property: the touched-row proof decides exactly like a full replay.

H1 and H2 prove a candidate rewrite on the rows of the servers it
touches (:meth:`repro.core.optimizers.common.ActionColumns.proves`).
The oracle below is the proof it replaced: replay the whole rewritten
window, action by action, over a full ``ArrayState`` (the test-only
oracle in ``tests/optimizer_oracle.py``) at the
window's start. On random valid schedules with random rewrites —
injected actions, hoisted (moved) actions, re-sourced transfers, dropped
actions — the two must agree on every candidate. Sizes are fractional
and capacities sit within ``CAPACITY_EPS`` of a load, so capacity
checks land on the epsilon edge.
"""

import numpy as np
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from repro.core import get_builder, get_optimizer
from repro.core.optimizers.common import (
    ActionColumns,
    Edit,
    delete_row,
    transfer_row,
)
from repro.model.actions import Action, Delete, Transfer
from repro.model.instance import RtspInstance
from repro.model.schedule import KIND_TRANSFER, Schedule
from repro.model.state import CAPACITY_EPS
from repro.workloads.regular import regular_placement_pair
from tests.optimizer_oracle import ArrayState

SIZES = (0.1, 0.2, 0.3, 1.0 / 3.0, 0.7, 1.0)


def edge_instance(gen: np.random.Generator) -> RtspInstance:
    """Small instance with fractional sizes and capacities on the edge."""
    m = int(gen.integers(2, 6))
    n = int(gen.integers(2, 6))
    sizes = gen.choice(SIZES, size=n)
    x_old = (gen.random((m, n)) < 0.4).astype(np.int8)
    load = x_old.astype(np.float64) @ sizes
    # Room for zero or one more object, then nudged within half an
    # epsilon either way.
    room = np.where(gen.random(m) < 0.5, 0.0, gen.choice(sizes, size=m))
    nudge = gen.choice([-0.5, 0.0, 0.5], size=m) * CAPACITY_EPS
    capacities = np.maximum(load + room + nudge, 0.0)
    costs = gen.integers(1, 5, size=(m, m)).astype(float)
    costs = costs + costs.T
    np.fill_diagonal(costs, 0.0)
    return RtspInstance.create(sizes, capacities, costs, x_old, x_old)


def random_walk(inst: RtspInstance, gen: np.random.Generator, length: int):
    """A schedule of valid actions from ``X_old`` (not aimed at ``X_new``)."""
    state = ArrayState(inst)
    m, n = inst.num_servers, inst.num_objects
    out = []
    for _ in range(length):
        options = []
        for i in range(m):
            for k in range(n):
                if state.placement[i, k]:
                    options.append(Delete(i, k))
                else:
                    holders = [j for j in range(m) if state.placement[j, k]]
                    for j in holders + [inst.dummy]:
                        options.append(Transfer(i, k, j))
        gen.shuffle(options)
        action = next((a for a in options if state.is_valid(a)), None)
        if action is None:
            break
        state.apply(action)
        out.append(action)
    return out


def as_row(action: Action):
    if isinstance(action, Transfer):
        return transfer_row(action.target, action.obj, action.source)
    return delete_row(action.server, action.obj)


def random_row(inst: RtspInstance, gen: np.random.Generator):
    i = int(gen.integers(0, inst.num_servers))
    k = int(gen.integers(0, inst.num_objects))
    if gen.random() < 0.35:
        return delete_row(i, k)
    return transfer_row(i, k, int(gen.integers(0, inst.num_servers + 1)))


def random_edit(inst, actions, gen: np.random.Generator) -> Edit:
    """Inject, hoist, re-source and drop inside a random window."""
    n = len(actions)
    lo = int(gen.integers(0, n))
    hi = int(gen.integers(lo + 1, n + 1))
    head = []
    replace = {}
    for _ in range(int(gen.integers(1, 4))):
        op = gen.choice(["inject", "hoist", "resource", "drop", "insert"])
        x = int(gen.integers(lo, hi))
        if op == "inject":
            head.append(random_row(inst, gen))
        elif x in replace:
            continue
        elif op == "hoist":
            head.append(as_row(actions[x]))
            replace[x] = ()
        elif op == "drop":
            replace[x] = ()
        elif op == "insert":
            replace[x] = (as_row(actions[x]), random_row(inst, gen))
        elif isinstance(actions[x], Transfer):
            a = actions[x]
            source = int(gen.integers(0, inst.num_servers + 1))
            replace[x] = (transfer_row(a.target, a.obj, source),)
    gen.shuffle(head)
    return Edit(lo, hi, tuple(head), replace)


def rewritten_window(actions, edit: Edit):
    rows = list(edit.head)
    for x in range(edit.lo, edit.hi):
        rows.extend(edit.replace.get(x, (as_row(actions[x]),)))
    return [
        Transfer(a, k, j) if kind == KIND_TRANSFER else Delete(a, k)
        for kind, a, k, j in rows
    ]


def full_window_replay(inst: RtspInstance, actions, edit: Edit) -> bool:
    """The oracle: replay the rewritten window over a full state."""
    state = ArrayState(inst)
    for action in actions[: edit.lo]:
        state.apply(action)
    return all(state.try_apply(a) for a in rewritten_window(actions, edit))


@settings(deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), length=st.integers(1, 24))
def test_proof_matches_full_window_replay(seed, length):
    gen = np.random.default_rng(seed)
    inst = edge_instance(gen)
    actions = random_walk(inst, gen, length)
    if not actions:
        event("empty schedule")
        return
    columns = ActionColumns.from_schedule(inst, Schedule(actions))
    for _ in range(8):
        edit = random_edit(inst, actions, gen)
        expected = full_window_replay(inst, actions, edit)
        event("accept" if expected else "reject")
        assert columns.proves(edit) == expected, edit
    # Proofs never disturb the columns they ran on.
    assert columns.to_schedule() == Schedule(actions)


@st.composite
def tight_instances(draw) -> RtspInstance:
    """Paper-shaped: two replicas per object, reshuffled with no overlap,
    minimal capacities (nudged within half an epsilon), so GOLCF leaves
    dummy transfers for H1 and H2 to work on."""
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = int(gen.integers(4, 8))
    n = m * int(gen.integers(2, 4))
    if gen.random() < 0.5:
        sizes = gen.choice(SIZES, size=n)
    else:
        sizes = np.full(n, 1.0 / 3.0)
    x_old, x_new = regular_placement_pair(m, n, 2, rng=gen)
    load = np.maximum(x_old.astype(float) @ sizes, x_new.astype(float) @ sizes)
    nudge = gen.choice([-0.5, 0.0, 0.5], size=m) * CAPACITY_EPS
    capacities = np.maximum(load + nudge, 0.0)
    costs = gen.integers(1, 5, size=(m, m)).astype(float)
    costs = costs + costs.T
    np.fill_diagonal(costs, 0.0)
    return RtspInstance.create(sizes, capacities, costs, x_old, x_new)


@settings(deadline=None, max_examples=40,
          suppress_health_check=[HealthCheck.too_slow])
@given(inst=tight_instances(), seed=st.integers(0, 50))
def test_optimizers_decide_like_the_oracle(inst, seed):
    """H1 and H2 produce the same schedules when every proof is replaced
    by the full-window replay oracle."""
    schedule = get_builder("GOLCF").build(inst, rng=seed)
    for name in ("H1", "H2"):
        fast = get_optimizer(name).optimize(inst, schedule)
        calls = {"accept": 0, "reject": 0}
        original = ActionColumns.proves

        def oracle(columns, edit):
            actions = columns.to_schedule().actions()
            verdict = full_window_replay(inst, actions, edit)
            assert original(columns, edit) == verdict
            calls["accept" if verdict else "reject"] += 1
            return verdict

        ActionColumns.proves = oracle
        try:
            slow = get_optimizer(name).optimize(inst, schedule)
        finally:
            ActionColumns.proves = original
        for verdict, count in calls.items():
            if count:
                event(f"{name} {verdict}")
        assert slow == fast
        assert fast.validate(inst).ok
        schedule = fast
