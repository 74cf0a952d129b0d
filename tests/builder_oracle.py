"""Reference object-path builders: the test oracle for the builder core.

The registered builders (RDF, GSDF, AR, GOLCF, GMC) run on int32 action
columns with trusted state mutators and a wave-batched selector
(:mod:`repro.core.builders`). Their first implementation, kept here
test-only, walks the object path instead: one validated
:meth:`~repro.model.state.SystemState.apply` and one
``Transfer``/``Delete`` object per action, a per-object pending-transfer
selector, and its own eq. 4 eviction without the benefit cache.

The differential suites assert, for every builder, instance and seed::

    oracle_build(name, instance, rng=seed).actions()
        == get_builder(name).build(instance, rng=seed).actions()

Both sides draw the same RNG stream in the same order (the shuffled work
lists come from the shared :func:`~repro.core.base.shuffled_pairs`
helpers) and break every tie at the first minimum, so any divergence is
a behaviour change in the production core.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, Dict, List, Set, Tuple

import numpy as np

from repro.core.base import ScheduleBuilder, shuffled_pairs
from repro.core.builders.common import (
    pending_deletion_map,
    pending_transfer_map,
)
from repro.model.actions import Delete, Transfer
from repro.model.instance import RtspInstance
from repro.model.schedule import Schedule
from repro.model.state import CAPACITY_EPS, SystemState
from repro.util.errors import ConfigurationError
from repro.util.rng import ensure_rng

__all__ = [
    "BUILDERS",
    "OracleBuilder",
    "ReferenceTransferSelector",
    "oracle_build",
]


# ----------------------------------------------------------------------
# object-path building blocks
# ----------------------------------------------------------------------
def append_transfer_from_nearest(
    schedule: Schedule, state: SystemState, target: int, obj: int
) -> Transfer:
    """Append (and apply) a transfer of ``obj`` to ``target`` from the
    currently nearest source — the dummy server when no real source exists.
    """
    source = state.nearest(target, obj)
    action = Transfer(target, obj, source)
    state.apply(action)
    schedule.append(action)
    return action


def append_deletions(schedule: Schedule, state: SystemState, pairs) -> None:
    """Append (and apply) a ``Delete`` for every ``(server, obj)`` pair."""
    for i, k in pairs:
        action = Delete(i, k)
        state.apply(action)
        schedule.append(action)


def evict_for(
    schedule: Schedule,
    state: SystemState,
    target: int,
    obj: int,
    deletions: Dict[int, List[int]],
    waiting: Dict[int, Set[int]],
) -> List[int]:
    """Delete superfluous replicas at ``target`` until ``obj`` fits.

    Victims are chosen by lowest deletion benefit (paper eq. 4), computed
    once per call straight from the nearest-source index; ties fall to the
    earliest entry of the (pre-shuffled) per-server deletion list.
    Returns the evicted objects.
    """
    instance = state.instance
    candidates = deletions.get(target)
    victims: List[int] = []
    index = state.index
    free = state.free_array()  # live view; tracks the deletions below
    size = float(instance.sizes[obj])
    benefits: List[float] = []
    while free[target] + CAPACITY_EPS < size:
        assert candidates, (
            f"no superfluous replica left at S_{target} while O_{obj} "
            "does not fit; X_new would violate its capacity"
        )
        if not victims:
            benefits = [
                index.keep_benefit(target, k, waiting.get(k) or ())
                for k in candidates
            ]
        best_pos, best_benefit = 0, None
        for pos, benefit in enumerate(benefits):
            if best_benefit is None or benefit < best_benefit:
                best_pos, best_benefit = pos, benefit
        victim = candidates.pop(best_pos)
        benefits.pop(best_pos)
        action = Delete(target, victim)
        state.apply(action)
        schedule.append(action)
        victims.append(victim)
    return victims


def flush_deletions(
    schedule: Schedule,
    state: SystemState,
    deletions: Dict[int, List[int]],
    gen,
) -> None:
    """Append every still-pending deletion, in a shuffled global order."""
    leftovers = [
        (server, obj) for server, objs in deletions.items() for obj in objs
    ]
    gen.shuffle(leftovers)
    for server, obj in leftovers:
        action = Delete(server, obj)
        state.apply(action)
        schedule.append(action)
    deletions.clear()


class ReferenceTransferSelector:
    """Per-object incremental argmin over every pending transfer's cost.

    One flat cost array with a contiguous slice per object (work-list
    order), refreshed one dirty object at a time: a scalar scan over the
    live holder set for small ``pending x holders`` blocks, the index's
    cached nearest-cost row otherwise. The choice is the first minimum.
    """

    _SCALAR_BLOCK = 128

    def __init__(self, state: SystemState, targets: Dict[int, List[int]]) -> None:
        instance = state.instance
        self._index = state.index
        self._costs = instance.costs
        self._dummy = instance.dummy
        self._sizes = instance.sizes
        self._objs = list(targets)
        self._slot = {k: s for s, k in enumerate(self._objs)}
        self._pend = {k: list(v) for k, v in targets.items()}
        starts: List[int] = []
        total = 0
        for k in self._objs:
            starts.append(total)
            total += len(self._pend[k])
        self._starts = starts
        self._cost = np.full(total, np.inf)
        self._dirty = set(self._objs)

    def _refresh_obj(self, obj: int) -> None:
        pend = self._pend[obj]
        base = self._starts[self._slot[obj]]
        size = float(self._sizes[obj])
        holders = self._index.holders(obj)
        costs = self._costs
        dummy = self._dummy
        flat = self._cost
        if len(pend) * (len(holders) + 1) <= self._SCALAR_BLOCK:
            for off, t in enumerate(pend):
                row = costs[t]
                best = row[dummy]
                for j in holders:
                    c = row[j]
                    if c < best:
                        best = c
                flat[base + off] = size * best
        else:
            pend_arr = np.asarray(pend, dtype=np.intp)
            units = self._index.nearest_cost_row(obj)[pend_arr]
            flat[base : base + len(pend)] = size * units

    def mark_dirty(self, obj: int) -> None:
        """Note that ``obj``'s replicator set changed; refreshed lazily."""
        if obj in self._pend:
            self._dirty.add(obj)

    def best(self) -> Tuple[int, int, int]:
        """``(obj, position, target)`` of the cheapest pending transfer."""
        if self._dirty:
            for obj in self._dirty:
                self._refresh_obj(obj)
            self._dirty.clear()
        idx = int(np.argmin(self._cost))
        slot = bisect_right(self._starts, idx) - 1
        obj = self._objs[slot]
        pos = idx - self._starts[slot]
        return obj, pos, self._pend[obj][pos]

    def pop_object(self, obj: int) -> None:
        """Remove ``obj`` entirely (GOLCF serves it whole)."""
        base = self._starts[self._slot[obj]]
        self._cost[base : base + len(self._pend[obj])] = np.inf
        del self._pend[obj]
        self._dirty.discard(obj)

    def pop_target(self, obj: int, pos: int) -> None:
        """Remove one pending target of ``obj`` (GMC serves singly)."""
        pend = self._pend[obj]
        pend.pop(pos)
        base = self._starts[self._slot[obj]]
        self._cost[base + len(pend)] = np.inf
        if pend:
            # Remaining entries shifted left; recompute at next query.
            self._dirty.add(obj)
        else:
            del self._pend[obj]
            self._dirty.discard(obj)

    @property
    def exhausted(self) -> bool:
        """Whether no pending transfer remains."""
        return not self._pend


# ----------------------------------------------------------------------
# the five builders
# ----------------------------------------------------------------------
def build_rdf(instance: RtspInstance, rng=None) -> Schedule:
    """All deletions (random order), then all transfers (random order)."""
    gen = ensure_rng(rng)
    state = SystemState(instance)
    schedule = Schedule()
    append_deletions(
        schedule, state, shuffled_pairs(instance.superfluous(), gen)
    )
    for target, obj in shuffled_pairs(instance.outstanding(), gen):
        append_transfer_from_nearest(schedule, state, target, obj)
    return schedule


def build_gsdf(instance: RtspInstance, rng=None) -> Schedule:
    """Per-server groups: delete the server's superfluous replicas, then
    fetch its outstanding ones, then move to the next server."""
    gen = ensure_rng(rng)
    state = SystemState(instance)
    schedule = Schedule()
    superfluous = instance.superfluous()
    outstanding = instance.outstanding()
    order = list(range(instance.num_servers))
    gen.shuffle(order)
    for server in order:
        deletions = [
            (server, int(k)) for k in np.flatnonzero(superfluous[server])
        ]
        gen.shuffle(deletions)
        append_deletions(schedule, state, deletions)
        incoming = [int(k) for k in np.flatnonzero(outstanding[server])]
        gen.shuffle(incoming)
        for obj in incoming:
            append_transfer_from_nearest(schedule, state, server, obj)
    return schedule


def build_ar(instance: RtspInstance, rng=None) -> Schedule:
    """Uniformly random interleaving of valid deletions and transfers."""
    gen = ensure_rng(rng)
    state = SystemState(instance)
    schedule = Schedule()
    deletions = shuffled_pairs(instance.superfluous(), gen)
    transfers = shuffled_pairs(instance.outstanding(), gen)
    t_target = np.fromiter(
        (t for t, _ in transfers), dtype=np.intp, count=len(transfers)
    )
    t_obj = np.fromiter(
        (k for _, k in transfers), dtype=np.intp, count=len(transfers)
    )
    t_size = instance.sizes[t_obj]
    alive = np.ones(len(transfers), dtype=bool)
    n_alive = len(transfers)
    free = state.free_array()
    while deletions or n_alive:
        ready = np.flatnonzero(
            alive & (free[t_target] + CAPACITY_EPS >= t_size)
        )
        total = len(deletions) + ready.size
        assert total, (
            "AR is stuck: transfers pending without space and no "
            "deletion left; X_new would violate a capacity"
        )
        draw = int(gen.integers(total))
        if draw < len(deletions):
            server, obj = deletions.pop(draw)
            action = Delete(server, obj)
            state.apply(action)
            schedule.append(action)
        else:
            pos = int(ready[draw - len(deletions)])
            alive[pos] = False
            n_alive -= 1
            append_transfer_from_nearest(
                schedule, state, int(t_target[pos]), int(t_obj[pos])
            )
    return schedule


def build_golcf(instance: RtspInstance, rng=None) -> Schedule:
    """Cheapest object first, served whole; benefit-ordered evictions."""
    gen = ensure_rng(rng)
    state = SystemState(instance)
    schedule = Schedule()
    targets, waiting = pending_transfer_map(instance, gen)
    deletions = pending_deletion_map(instance, gen)
    selector = ReferenceTransferSelector(state, targets)
    while not selector.exhausted:
        best_obj, _, _ = selector.best()
        pend = targets.pop(best_obj)
        selector.pop_object(best_obj)
        while pend:
            # Cheapest target of the chosen object at this moment.
            best_pos, best_unit = 0, None
            for pos, t in enumerate(pend):
                unit = state.nearest_cost(t, best_obj)
                if best_unit is None or unit < best_unit:
                    best_pos, best_unit = pos, unit
            target = pend.pop(best_pos)
            victims = evict_for(
                schedule, state, target, best_obj, deletions, waiting
            )
            for victim in victims:
                selector.mark_dirty(victim)
            append_transfer_from_nearest(schedule, state, target, best_obj)
            waiting[best_obj].discard(target)
    flush_deletions(schedule, state, deletions, gen)
    return schedule


def build_gmc(instance: RtspInstance, rng=None) -> Schedule:
    """Globally cheapest pending transfer each step (GOLCF ablation)."""
    gen = ensure_rng(rng)
    state = SystemState(instance)
    schedule = Schedule()
    targets, waiting = pending_transfer_map(instance, gen)
    deletions = pending_deletion_map(instance, gen)
    selector = ReferenceTransferSelector(state, targets)
    while not selector.exhausted:
        best_obj, best_pos, target = selector.best()
        selector.pop_target(best_obj, best_pos)
        victims = evict_for(
            schedule, state, target, best_obj, deletions, waiting
        )
        for victim in victims:
            selector.mark_dirty(victim)
        append_transfer_from_nearest(schedule, state, target, best_obj)
        # The delivered copy is a new source for the object's
        # remaining pending targets.
        selector.mark_dirty(best_obj)
        waiting[best_obj].discard(target)
    flush_deletions(schedule, state, deletions, gen)
    return schedule


_BUILDERS: Dict[str, Callable[..., Schedule]] = {
    "AR": build_ar,
    "GMC": build_gmc,
    "GOLCF": build_golcf,
    "GSDF": build_gsdf,
    "RDF": build_rdf,
}

#: Names of the builders the oracle covers (every registered builder).
BUILDERS = sorted(_BUILDERS)


def oracle_build(name: str, instance: RtspInstance, rng=None) -> Schedule:
    """Run the reference object-path implementation of builder ``name``."""
    try:
        build = _BUILDERS[name.upper()]
    except KeyError:
        raise ConfigurationError(
            f"no reference implementation for builder {name!r}; "
            f"available: {BUILDERS}"
        ) from None
    return build(instance, rng=rng)


class OracleBuilder(ScheduleBuilder):
    """Unregistered :class:`ScheduleBuilder` running :func:`oracle_build`,
    for pipelines and sharded plans on the reference object path."""

    def __init__(self, name: str) -> None:
        self.name = name.upper()

    def build(self, instance: RtspInstance, rng=None) -> Schedule:
        return oracle_build(self.name, instance, rng=rng)
