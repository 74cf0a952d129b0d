"""Arena-style action storage for the schedule builders.

:class:`FlatActionBuffer` records a schedule as four parallel ``int32``
columns (kind / target-or-server / object / source) instead of a list of
:class:`~repro.model.actions.Transfer` / :class:`~repro.model.actions.
Delete` dataclasses — appending is two array stores and a counter bump,
and the whole build allocates a handful of arrays instead of one object
per action.

:class:`FlatSchedule` is the lazy bridge back to the object API: it *is*
a :class:`~repro.model.schedule.Schedule`, but its action list
materializes from the buffer only when something actually iterates,
indexes, or edits it (validation, optimizers, serialization). Pure
accounting — ``len`` and :meth:`~FlatSchedule.cost` — is answered
straight from the columns, vectorized. Materialized actions hold plain
Python ints, so reprs, equality, and JSON round-trips are
indistinguishable from an object-built schedule.
"""

from __future__ import annotations

from functools import cached_property
from typing import List

import numpy as np

from repro.model.actions import Action
from repro.model.instance import RtspInstance
from repro.model.schedule import (
    KIND_DELETE,
    KIND_TRANSFER,
    Schedule,
    actions_from_arrays,
)

__all__ = ["FlatActionBuffer", "FlatSchedule", "KIND_TRANSFER", "KIND_DELETE"]


class FlatActionBuffer:
    """Growable structure-of-arrays action log (amortized O(1) append)."""

    __slots__ = ("_kind", "_primary", "_obj", "_source", "_len")

    def __init__(self, capacity: int = 256) -> None:
        capacity = max(int(capacity), 16)
        self._kind = np.empty(capacity, dtype=np.int32)
        self._primary = np.empty(capacity, dtype=np.int32)
        self._obj = np.empty(capacity, dtype=np.int32)
        self._source = np.empty(capacity, dtype=np.int32)
        self._len = 0

    def __len__(self) -> int:
        return self._len

    def _grow(self) -> None:
        new_cap = 2 * self._kind.shape[0]
        for name in ("_kind", "_primary", "_obj", "_source"):
            old = getattr(self, name)
            fresh = np.empty(new_cap, dtype=np.int32)
            fresh[: self._len] = old[: self._len]
            setattr(self, name, fresh)

    def append_transfer(self, target: int, obj: int, source: int) -> None:
        """Record ``T(target, obj, source)``."""
        n = self._len
        if n == self._kind.shape[0]:
            self._grow()
        self._kind[n] = KIND_TRANSFER
        self._primary[n] = target
        self._obj[n] = obj
        self._source[n] = source
        self._len = n + 1

    def append_delete(self, server: int, obj: int) -> None:
        """Record ``D(server, obj)``."""
        n = self._len
        if n == self._kind.shape[0]:
            self._grow()
        self._kind[n] = KIND_DELETE
        self._primary[n] = server
        self._obj[n] = obj
        self._source[n] = 0
        self._len = n + 1

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def columns(self):
        """``(kind, primary, obj, source)`` trimmed read-only views."""
        n = self._len
        views = []
        for arr in (self._kind, self._primary, self._obj, self._source):
            view = arr[:n].view()
            view.setflags(write=False)
            views.append(view)
        return tuple(views)

    def transfer_mask(self) -> np.ndarray:
        """Boolean mask of transfer rows."""
        return self._kind[: self._len] == KIND_TRANSFER

    def to_actions(self) -> List[Action]:
        """Materialize the log as action objects (plain-int fields)."""
        n = self._len
        return actions_from_arrays(
            self._kind[:n].tolist(),
            self._primary[:n].tolist(),
            self._obj[:n].tolist(),
            self._source[:n].tolist(),
        )


class FlatSchedule(Schedule):
    """A :class:`Schedule` backed by a :class:`FlatActionBuffer`.

    The action list is a :func:`functools.cached_property`: until first
    access every sequence operation the class inherits stays available
    (it materializes on demand), while ``len`` and :meth:`cost` answer
    from the arena without creating a single action object. After
    materialization the instance behaves exactly like a plain
    ``Schedule`` (mutations edit the materialized list; the buffer is
    not written back).
    """

    def __init__(self, buffer: FlatActionBuffer) -> None:
        # Deliberately no super().__init__: _actions is lazy.
        self._buffer = buffer

    @cached_property
    def _actions(self) -> List[Action]:  # type: ignore[override]
        return self._buffer.to_actions()

    @property
    def materialized(self) -> bool:
        """Whether the action list has been built yet."""
        return "_actions" in self.__dict__

    def __len__(self) -> int:
        if not self.materialized:
            return len(self._buffer)
        return len(self._actions)

    def cost(self, instance: RtspInstance) -> float:
        """Implementation cost, vectorized over the arena when possible.

        Summation runs left-to-right over the schedule order (via
        ``math.fsum``-free sequential adds on the gathered terms), the
        same accumulation :meth:`Schedule.cost` performs over action
        objects, so both implementations return bit-identical totals.
        """
        if self.materialized:
            return super().cost(instance)
        kind, primary, obj, source = self._buffer.columns()
        mask = kind == KIND_TRANSFER
        if not mask.any():
            return 0.0
        terms = instance.sizes[obj[mask]] * instance.costs[
            primary[mask], source[mask]
        ]
        total = 0.0
        for term in terms.tolist():
            total += term
        return total
