"""Per-thread (per-task) observability context.

Instrumented code never receives a tracer or registry through its
constructor — that would thread observability arguments through every
layer. Instead it asks this module for the *active* instruments:

* :func:`current_tracer` — the active :class:`~repro.obs.trace.Tracer`,
  or the shared :data:`~repro.obs.trace.NULL_TRACER` when tracing is
  off (so callers can use it unconditionally);
* :func:`current_metrics` — the active
  :class:`~repro.obs.metrics.MetricsRegistry`, or ``None`` when metrics
  are off (so hot paths can skip instrumentation with a single ``is
  None`` check, captured once at construction time);
* :func:`current_events` — the active
  :class:`~repro.obs.events.EventStream`, or ``None`` when the event
  stream is off (same single ``is None`` check contract as metrics).

The context is installed with the :func:`use_tracer` / :func:`use_metrics`
/ :func:`use_events` / :func:`observed` context managers and lives in
:class:`contextvars.ContextVar` slots, so it is scoped to the installing
thread (or asyncio task): a thread started with :class:`threading.Thread`
begins with nothing installed, and concurrent callers — two served jobs,
say — never see each other's instruments. Fork-pool workers
(:class:`~repro.shard.pool.WorkQueue`) install fresh fragments of their
own. Instrumented code reads the context when it is constructed or
called, never inside its hot loops, so the lookup cost stays off them.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import ContextManager, Iterator, Optional, TypeVar, Union

from repro.obs.events import EventStream
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer

__all__ = [
    "current_tracer",
    "current_metrics",
    "current_events",
    "use_tracer",
    "use_metrics",
    "use_events",
    "observed",
]

_T = TypeVar("_T")

_tracer: ContextVar[Union[Tracer, NullTracer]] = ContextVar(
    "repro_obs_tracer", default=NULL_TRACER
)
_metrics: ContextVar[Optional[MetricsRegistry]] = ContextVar(
    "repro_obs_metrics", default=None
)
_events: ContextVar[Optional[EventStream]] = ContextVar(
    "repro_obs_events", default=None
)


def current_tracer() -> Union[Tracer, NullTracer]:
    """The active tracer (:data:`NULL_TRACER` when tracing is off)."""
    return _tracer.get()


def current_metrics() -> Optional[MetricsRegistry]:
    """The active metrics registry, or ``None`` when metrics are off."""
    return _metrics.get()


def current_events() -> Optional[EventStream]:
    """The active event stream, or ``None`` when events are off."""
    return _events.get()


@contextmanager
def _installed(var: "ContextVar[_T]", value: _T) -> Iterator[None]:
    token = var.set(value)
    try:
        yield
    finally:
        var.reset(token)


def use_tracer(
    tracer: Optional[Union[Tracer, NullTracer]],
) -> ContextManager[None]:
    """Install ``tracer`` as the active tracer for the ``with`` block.

    ``None`` maps to :data:`NULL_TRACER` (tracing off), so callers can
    pass an optional tracer straight through.
    """
    return _installed(_tracer, NULL_TRACER if tracer is None else tracer)


def use_metrics(registry: Optional[MetricsRegistry]) -> ContextManager[None]:
    """Install ``registry`` as the active metrics sink for the block.

    ``None`` turns metrics off for the block.
    """
    return _installed(_metrics, registry)


def use_events(stream: Optional[EventStream]) -> ContextManager[None]:
    """Install ``stream`` as the active event sink for the block.

    ``None`` turns the event stream off for the block.
    """
    return _installed(_events, stream)


@contextmanager
def observed(
    tracer: Optional[Union[Tracer, NullTracer]] = None,
    metrics: Optional[MetricsRegistry] = None,
    events: Optional[EventStream] = None,
) -> Iterator[None]:
    """Install all instruments at once (any may be ``None``)."""
    with use_tracer(tracer), use_metrics(metrics), use_events(events):
        yield
