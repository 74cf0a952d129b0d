"""Shared machinery of the schedule builders.

Builders drive a single :class:`~repro.model.state.SystemState` forward
and never replay their own prefix: every decision (nearest source, free
space, eviction benefit) is answered incrementally by the state. The
pieces here are shared by all five builders:

* the two work lists — pending transfers (one per outstanding cell) and
  pending deletions (one per superfluous cell), shuffled once per seed;
* :class:`BuildLog`, which records actions as int32 columns in a
  :class:`~repro.flat.buffers.FlatActionBuffer` through the state's
  trusted mutators (no per-action validation and no action objects:
  every emitted action is valid by construction, and the test suites
  replay the schedules through the strict invariant oracle to prove
  it), and performs the benefit-ordered eviction of the greedy builders
  (GOLCF, GMC);
* :class:`PendingTransferSelector`, the wave-batched argmin over every
  pending transfer's current cost;
* :class:`EvictionBenefitCache`, memoized eq. 4 benefits.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, Iterable, List, Set, Tuple

import numpy as np

from repro.core.base import shuffled_pairs
from repro.flat.buffers import FlatActionBuffer, FlatSchedule
from repro.model.instance import RtspInstance
from repro.model.state import CAPACITY_EPS, SystemState
from repro.obs.context import current_events, current_metrics

#: Transfers between ``builder.progress`` heartbeat events. A count
#: boundary, not a clock, so the event stream stays deterministic.
_HEARTBEAT_EVERY = 256


def pending_transfer_map(
    instance: RtspInstance, gen
) -> Tuple[Dict[int, List[int]], Dict[int, Set[int]]]:
    """Outstanding cells as ``obj -> [targets]`` plus a set-valued mirror.

    The list order is shuffled once so that every tie-break taken by a
    first-minimum scan is seed-dependent; the set mirror feeds the eq. 4
    benefits (which expect ``obj -> set``) and must be kept in sync by
    the caller as transfers complete.
    """
    targets: Dict[int, List[int]] = {}
    for i, k in shuffled_pairs(instance.outstanding(), gen):
        targets.setdefault(k, []).append(i)
    waiting = {k: set(v) for k, v in targets.items()}
    return targets, waiting


def pending_deletion_map(instance: RtspInstance, gen) -> Dict[int, List[int]]:
    """Superfluous cells as ``server -> [objects]``, shuffled per server."""
    dels: Dict[int, List[int]] = {}
    for i, k in shuffled_pairs(instance.superfluous(), gen):
        dels.setdefault(i, []).append(k)
    return dels


class BuildLog:
    """One build's state and action columns, plus its metrics and events.

    Transfers always come from the nearest current source (the dummy
    server when no real source exists). With a metrics registry active
    the log bumps ``builder.transfers``, ``builder.dummy_transfers`` and
    ``builder.evictions``; with an event stream active it emits a
    ``builder.progress`` heartbeat every :data:`_HEARTBEAT_EVERY`
    transfers. Both are looked up once, at construction.
    """

    __slots__ = (
        "state",
        "_buf",
        "_dummy",
        "_transfers",
        "_dummy_transfers",
        "_evictions",
        "_events",
        "_delivered",
    )

    def __init__(self, instance: RtspInstance) -> None:
        self.state = SystemState(instance)
        out, sup = instance.diff_counts()
        self._buf = FlatActionBuffer(out + sup)
        self._dummy = instance.dummy
        registry = current_metrics()
        if registry is None:
            self._transfers = self._dummy_transfers = self._evictions = None
        else:
            self._transfers = registry.counter("builder.transfers")
            self._dummy_transfers = registry.counter("builder.dummy_transfers")
            self._evictions = registry.counter("builder.evictions")
        self._events = current_events()
        self._delivered = 0

    def transfer(self, target: int, obj: int) -> None:
        """Transfer ``obj`` to ``target`` from the nearest current source."""
        source = self.state.nearest(target, obj)
        self.state.apply_transfer_trusted(target, obj)
        self._buf.append_transfer(target, obj, source)
        if self._transfers is not None:
            self._transfers.value += 1
            if source == self._dummy:
                self._dummy_transfers.value += 1
        if self._events is not None:
            self._delivered += 1
            if self._delivered % _HEARTBEAT_EVERY == 0:
                self._events.emit("builder.progress", transfers=self._delivered)

    def delete(self, server: int, obj: int) -> None:
        """Delete the replica of ``obj`` at ``server``."""
        self.state.apply_delete_trusted(server, obj)
        self._buf.append_delete(server, obj)

    def evict(
        self,
        target: int,
        obj: int,
        deletions: Dict[int, List[int]],
        cache: EvictionBenefitCache,
    ) -> List[int]:
        """Delete superfluous replicas at ``target`` until ``obj`` fits.

        Victims are chosen by lowest deletion benefit (paper eq. 4): the
        replica whose disappearance hurts the still-waiting targets least
        goes first. Ties fall to the earliest entry of the (pre-shuffled)
        per-server deletion list, so tie-breaking is seed-dependent but
        deterministic. Returns the evicted objects so callers can
        invalidate derived caches (:meth:`PendingTransferSelector.mark_dirty`).

        The benefits are computed once per call: deleting a victim at
        ``target`` changes neither the other candidates' replicator sets
        nor any waiting set. A victim always exists while space is short:
        every replica held at ``target`` is either part of
        ``X_old ∩ X_new``, was delivered by an earlier transfer (both
        within the ``X_new`` row, which fits), or is a not-yet-deleted
        superfluous replica.
        """
        candidates = deletions.get(target)
        victims: List[int] = []
        free = self.state.free_array()  # live view; tracks the deletions
        size = float(self.state.instance.sizes[obj])
        benefits: List[float] = []
        while free[target] + CAPACITY_EPS < size:
            assert candidates, (
                f"no superfluous replica left at S_{target} while O_{obj} "
                "does not fit; X_new would violate its capacity"
            )
            if not victims:
                benefits = [cache.get(target, k) for k in candidates]
            best_pos, best_benefit = 0, None
            for pos, benefit in enumerate(benefits):
                if best_benefit is None or benefit < best_benefit:
                    best_pos, best_benefit = pos, benefit
            victim = candidates.pop(best_pos)
            benefits.pop(best_pos)
            self.delete(target, victim)
            victims.append(victim)
        if victims and self._evictions is not None:
            self._evictions.value += len(victims)
        return victims

    def flush(self, deletions: Dict[int, List[int]], gen) -> None:
        """Delete every still-pending deletion, in a shuffled global order."""
        leftovers = [
            (server, obj) for server, objs in deletions.items() for obj in objs
        ]
        gen.shuffle(leftovers)
        for server, obj in leftovers:
            self.delete(server, obj)
        deletions.clear()

    def schedule(self) -> FlatSchedule:
        """The recorded actions as a lazy :class:`FlatSchedule`."""
        return FlatSchedule(self._buf)


class PendingTransferSelector:
    """Incremental argmin over every pending transfer's current cost.

    GOLCF and GMC repeatedly need the globally cheapest pending transfer
    — ``size(O_k) * l_{i,N(i,k,X)}`` over all outstanding ``(i, k)`` —
    against the *current* state. The selector keeps one flat cost array
    with a contiguous slice per object and refreshes only the slices of
    objects whose replicator set actually changed since the last query
    (the builder reports those through :meth:`mark_dirty`: the delivered
    transfer's object plus any eviction victims). The global choice is
    then a single first-minimum ``np.argmin`` over the flat array.

    Refreshes are batched per query wave and adaptive: objects whose
    ``pending x candidates`` block fits in ``_SCALAR_BLOCK`` take a
    scalar scan over the live holder set (NumPy per-call overhead would
    dominate at the paper's replica counts); the rest are concatenated,
    their candidate source sets padded into one rectangular block, and
    priced by one gather + one row-min. Padding uses the dummy server:
    it is already a candidate for every entry, and duplicating it cannot
    change a minimum.

    Tie-breaking: the flat array is ordered by work-list (insertion)
    order of objects, then per-object pending order, and ``np.argmin``
    returns the first minimum — exactly the element a scalar
    ``cost < best`` scan would keep.

    Path-identity contract: the scalar and gather refreshes must write
    bit-identical costs so schedules never depend on which side of
    ``_SCALAR_BLOCK`` an instance lands on. Both compute
    ``size * min(row[dummy], row[j] for j in holders)`` — a single
    gathered minimum times one float64 multiply, no summation — so the
    values agree exactly as long as the cost matrix is NaN-free
    (enforced by :meth:`repro.model.instance.RtspInstance.create`; a NaN
    entry is skipped by the scalar ``<`` scan but *selected* by the
    gather's min) and pending targets never hold their own object
    (guaranteed by construction: a target leaves the pending list before
    its replica is recorded, and eq. 4 evictions only ever remove
    superfluous replicas, never an ``X_new`` cell).
    ``tests/core/test_selector_paths.py`` pins both paths to the same
    instances and asserts byte-identical schedules.
    """

    #: Below this ``pending x candidates`` block size a Python scan beats
    #: the NumPy gather (per-call overhead ~10-20us vs ~0.1us/compare).
    _SCALAR_BLOCK = 128

    def __init__(
        self, state: SystemState, targets: Dict[int, List[int]]
    ) -> None:
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
        registry = current_metrics()
        if registry is None:
            self._c_scanned = self._c_refreshes = self._c_queries = None
        else:
            self._c_scanned = registry.counter("builder.candidates_scanned")
            self._c_refreshes = registry.counter("builder.selector_refreshes")
            self._c_queries = registry.counter("builder.selector_queries")
        # Captured once (zero-overhead-when-off contract); wave numbers
        # restart per selector, so heartbeats are deterministic.
        self._events = current_events()
        self._wave_no = 0

    def _refresh_scalar(self, obj: int, holders) -> None:
        pend = self._pend[obj]
        base = self._starts[self._slot[obj]]
        size = float(self._sizes[obj])
        if self._c_scanned is not None:
            self._c_refreshes.value += 1
            self._c_scanned.value += len(pend) * (len(holders) + 1)
        costs = self._costs
        dummy = self._dummy
        flat = self._cost
        for off, t in enumerate(pend):
            row = costs[t]
            best = row[dummy]
            for j in holders:
                c = row[j]
                if c < best:
                    best = c
            flat[base + off] = size * best

    def _refresh_wave(self) -> None:
        """Reprice every dirty object's slice, batching the big ones."""
        dirty = [obj for obj in self._dirty if self._pend.get(obj)]
        self._dirty.clear()
        if not dirty:
            return
        index = self._index
        wave = []
        width = 0
        total = 0
        for obj in dirty:
            holders = index.holders(obj)
            n = len(self._pend[obj])
            if n * (len(holders) + 1) <= self._SCALAR_BLOCK:
                self._refresh_scalar(obj, holders)
                continue
            wave.append((obj, holders, n))
            width = max(width, 1 + len(holders))
            total += n
        if not wave:
            return
        if self._events is not None:
            # Wave-boundary heartbeat: emitted only for batched waves
            # (single-object repricings take the scalar path and are not
            # wave boundaries). Wave index and sizes depend only on
            # algorithm state, never on wall time or worker count.
            self._wave_no += 1
            self._events.emit(
                "builder.wave",
                wave=self._wave_no,
                objects=len(dirty),
                batched=len(wave),
            )
        rows = np.empty(total, dtype=np.intp)      # pending targets
        dst = np.empty(total, dtype=np.intp)       # slots in self._cost
        sizes = np.empty(total, dtype=np.float64)  # object sizes
        cand = np.full((total, width), self._dummy, dtype=np.intp)
        if self._c_scanned is not None:
            self._c_refreshes.value += len(wave)
        pos = 0
        for obj, holders, n in wave:
            base = self._starts[self._slot[obj]]
            rows[pos : pos + n] = self._pend[obj]
            dst[pos : pos + n] = np.arange(base, base + n)
            sizes[pos : pos + n] = float(self._sizes[obj])
            if holders:
                cand[pos : pos + n, 1 : 1 + len(holders)] = list(holders)
            if self._c_scanned is not None:
                self._c_scanned.value += n * (len(holders) + 1)
            pos += n
        # One gather + one row-min prices the whole wave. Every row's
        # candidate multiset is {dummy (>= once)} ∪ holders — exactly
        # the scalar scan's candidates — so the min value is identical.
        block = self._costs[rows[:, None], cand]
        self._cost[dst] = sizes * block.min(axis=1)

    def mark_dirty(self, objs: Iterable[int]) -> None:
        """Note that the replicator sets of ``objs`` changed; their slices
        are repriced at the next query."""
        pend = self._pend
        dirty = self._dirty
        for obj in objs:
            if obj in pend:
                dirty.add(obj)

    def best(self) -> Tuple[int, int, int]:
        """``(obj, position, target)`` of the cheapest pending transfer."""
        if self._c_queries is not None:
            self._c_queries.value += 1
        if self._dirty:
            self._refresh_wave()
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


class EvictionBenefitCache:
    """Memoized eq. 4 benefits, invalidated by observable state changes.

    ``B(target, k)`` depends only on ``k``'s replicator set, ``k``'s
    still-waiting target set, and the (immutable) cost matrix. The
    former is captured by the nearest-source index's per-object version
    counter; the latter only ever *shrinks* during a build, so its size
    uniquely identifies it along the trajectory. A cached value is
    therefore exact while both stamps match — no eviction ordering can
    change it — and recomputed (through
    :meth:`~repro.model.nearest.NearestSourceIndex.keep_benefit`)
    otherwise.

    Invalidation contract (holds for wave-batched callers, where several
    deliveries land between queries):

    1. every mutation of ``obj``'s replicator set must flow through the
       owning state (so ``index.versions[obj]`` bumps) *before* the next
       :meth:`get` — the trusted fast mutators preserve this;
    2. ``waiting[obj]`` must only ever shrink, and each removal must
       happen before the next :meth:`get`. Because the version counter
       is monotone, a batch of ``d`` deliveries advances the stamp by at
       least ``d`` on both components — a stamp can never repeat with
       different underlying sets, so stale hits are impossible no matter
       how many actions land between queries. Re-adding a target to
       ``waiting`` (which no builder does) would violate the contract:
       the set size could return to a previously-stamped value.

    ``tests/core/test_benefit_cache_contract.py`` exercises both the
    batched-delivery recompute and the stamp-match fast path.
    """

    __slots__ = ("_index", "_waiting", "_store", "_c_hits", "_c_misses")

    def __init__(self, state: SystemState, waiting: Dict[int, Set[int]]) -> None:
        self._index = state.index
        self._waiting = waiting
        self._store: Dict[Tuple[int, int], Tuple[Tuple[int, int], float]] = {}
        registry = current_metrics()
        if registry is None:
            self._c_hits = self._c_misses = None
        else:
            self._c_hits = registry.counter("builder.benefit_cache_hits")
            self._c_misses = registry.counter("builder.benefit_cache_misses")

    def get(self, target: int, obj: int) -> float:
        pending = self._waiting.get(obj)
        if not pending:
            return 0.0
        key = (target, obj)
        stamp = (self._index.versions[obj], len(pending))
        hit = self._store.get(key)
        if hit is not None and hit[0] == stamp:
            if self._c_hits is not None:
                self._c_hits.value += 1
            return hit[1]
        if self._c_misses is not None:
            self._c_misses.value += 1
        value = self._index.keep_benefit(target, obj, pending)
        self._store[key] = (stamp, value)
        return value
