"""A reusable deterministic fork-pool work queue.

Generalises the process pool that :func:`repro.experiments.runner.
run_figure` grew for figure sweeps into a component every fan-out in the
library shares (figure repetitions, shard planning):

* tasks are mapped over a fork-based :class:`~concurrent.futures.
  ProcessPoolExecutor`, with results returned in **input order** so any
  downstream merge is independent of scheduling;
* the callable and its context reach fork workers through the pool's
  initializer (fork inherits the arguments, nothing is pickled), so
  closures over non-picklable state never cross a pickle boundary; the
  serial path hands them to each task directly, so concurrent callers
  in one process share nothing;
* when the caller's observability context holds a registry, an enabled
  tracer or an event stream, every task records into *fresh* fragments
  whose snapshots are merged back in task order — counter totals, the
  logical trace stream and the logical event stream are identical for
  any worker count;
* when that tracer has an open span (e.g. ``plan_sharded``'s
  ``shard.pool`` span), adopted worker fragments are re-parented under
  it, so cross-process spans nest in the merged tree instead of
  becoming disconnected roots;
* platforms without the ``fork`` start method (or with it monkeypatched
  away) degrade to serial execution with a :class:`RuntimeWarning` and
  a ``progress`` line, never an exception — the PR 3 serial-fallback
  contract, now honoured on spawn-only platforms too.
"""

from __future__ import annotations

import multiprocessing
import warnings
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.obs.context import (
    current_events,
    current_metrics,
    current_tracer,
    observed,
)
from repro.obs.events import Event, EventStream
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Span, Tracer

__all__ = ["WorkQueue", "fork_available"]


def fork_available() -> bool:
    """Whether the ``fork`` start method can actually be used.

    Consults :func:`multiprocessing.get_all_start_methods` (spawn-only
    platforms such as Windows — and tests that monkeypatch it — report
    no ``fork``) and then confirms :func:`multiprocessing.get_context`
    agrees, so both discovery paths stay honest.
    """
    if "fork" not in multiprocessing.get_all_start_methods():
        return False
    try:
        multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - platform-specific
        return False
    return True


#: ``(fn, context, want_metrics, want_trace, want_events)``.
_TaskState = Tuple[Callable[..., Any], Any, bool, bool, bool]

#: The task state inside a fork-pool child (set by :func:`_install`).
_WORKER_STATE: Optional[_TaskState] = None

TaskOutput = Tuple[
    Any, Optional[dict], Optional[List[Span]], Optional[List[Event]]
]


def _install(state: _TaskState) -> None:
    """Fork-pool initializer: keep the task state for :func:`_run_one`."""
    global _WORKER_STATE
    _WORKER_STATE = state


def _run_one(task: Any) -> TaskOutput:
    """Fork-pool entry point: one task under the installed state."""
    assert _WORKER_STATE is not None, "WorkQueue worker state not installed"
    return _run_task(_WORKER_STATE, task)


def _run_task(state: _TaskState, task: Any) -> TaskOutput:
    """Execute one task with fresh instrument fragments."""
    fn, context, want_metrics, want_trace, want_events = state
    registry = MetricsRegistry() if want_metrics else None
    tracer = Tracer() if want_trace else None
    stream = EventStream() if want_events else None
    with observed(tracer=tracer, metrics=registry, events=stream):
        result = fn(context, task)
    return (
        result,
        registry.snapshot() if registry is not None else None,
        tracer.spans if tracer is not None else None,
        stream.events if stream is not None else None,
    )


class WorkQueue:
    """Deterministic map over tasks, parallel when the platform allows.

    ``workers <= 1`` always runs serially; ``workers > 1`` uses a
    fork-based process pool, or falls back to serial execution (with a
    :class:`RuntimeWarning` and an optional ``progress`` line) when
    ``fork`` is unavailable. Results, observability merges, and
    therefore every downstream artifact are byte-identical for any
    worker count.
    """

    def __init__(
        self,
        workers: int = 1,
        progress: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.workers = max(int(workers), 1)
        self.progress = progress

    def run(
        self,
        fn: Callable[[Any, Any], Any],
        tasks: Sequence[Any],
        context: Any = None,
    ) -> List[Any]:
        """Map ``fn(context, task)`` over ``tasks`` in input order.

        ``fn`` must be a module-level callable (fork workers inherit it
        with the task state, never through a pickle). The instruments
        installed in the caller's observability context
        (:mod:`repro.obs.context`) are honoured: each task runs inside
        fresh fragments — also on the serial path, so totals never
        depend on the worker count — and the fragments are merged into
        the caller's registry, tracer and event stream in task order.
        Trace fragments are re-parented under the tracer's innermost
        open span (if any), so worker spans nest under the coordinating
        span in the merged tree.
        """
        tasks = list(tasks)
        if not tasks:
            return []
        metrics = current_metrics()
        tracer = current_tracer()
        events = current_events()
        state: _TaskState = (
            fn, context, metrics is not None, tracer.enabled,
            events is not None,
        )
        workers = min(self.workers, len(tasks))
        if workers > 1 and not fork_available():
            message = (
                f"WorkQueue(workers={workers}): the 'fork' start method is "
                "unavailable on this platform; falling back to serial "
                "execution"
            )
            warnings.warn(message, RuntimeWarning, stacklevel=3)
            if self.progress is not None:
                self.progress(message)
            workers = 1
        if workers > 1:
            with ProcessPoolExecutor(
                max_workers=workers,
                mp_context=multiprocessing.get_context("fork"),
                initializer=_install,
                initargs=(state,),
            ) as pool:
                outputs = list(pool.map(_run_one, tasks))
        else:
            outputs = [_run_task(state, task) for task in tasks]
        results: List[Any] = []
        # Merge fragments in task order — pool.map preserves input
        # order, so the merged stream is independent of scheduling.
        # Worker span fragments nest under the tracer's innermost open
        # span (the coordinating span, e.g. plan_sharded's shard.pool);
        # the link is identical on the serial path, so the merged tree
        # never depends on the worker count.
        open_span = tracer.current_span() if tracer.enabled else None
        parent_id = open_span.span_id if open_span is not None else None
        for result, snapshot, spans, task_events in outputs:
            results.append(result)
            if snapshot is not None:
                metrics.merge(snapshot)
            if spans is not None:
                tracer.adopt(spans, parent_id=parent_id)
            if task_events is not None:
                events.adopt(task_events)
        return results
