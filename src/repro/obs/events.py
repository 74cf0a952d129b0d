"""Structured event stream (``rtsp-events/1``) and the flight recorder.

Spans (:mod:`repro.obs.trace`) answer "where did the time go"; *events*
answer "what is happening right now". An :class:`EventStream` records a
flat, append-only sequence of named events — shard lifecycle, builder
wave progress, repair rounds, invariant failures — each carrying:

* a **logical** sequence number assigned in emit order. The
  instrumented algorithms are deterministic per seed, so the logical
  event stream is byte-identical across runs, machines and worker
  counts (worker fragments are merged in task order, exactly like span
  fragments);
* a **wall-clock** stamp (``perf_counter``), excluded from the
  deterministic view;
* free-form JSON attributes.

Streams serialize to a versioned JSONL format (``rtsp-events/1``): one
header line, then one line per event in emit order. An ``on_event``
callback turns the same stream into *live progress*: the CLIs install a
renderer that prints heartbeat events (wave boundaries, per-shard
completion) as they arrive.

:class:`FlightRecorder` is the bounded companion: a ring buffer that
keeps the most recent events (plus a drop count) so that when something
goes wrong — an exception, an invariant violation, repair-budget
exhaustion — the last moments before the failure can be dumped to disk
without having paid for unbounded retention. :func:`flight_recorded`
wires both together and auto-dumps on exceptions.

When events are off, :func:`repro.obs.context.current_events` returns
``None`` and instrumented code skips emission with a single ``is
None`` check — the same zero-overhead contract metrics follow.
"""

from __future__ import annotations

import json
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

from repro.util.errors import ConfigurationError

__all__ = [
    "EVENTS_FORMAT",
    "Event",
    "EventStream",
    "FlightRecorder",
    "flight_recorded",
    "load_events",
    "render_event",
    "validate_event_lines",
    "validate_event_file",
]

#: Version tag written into (and required of) every event-stream header.
EVENTS_FORMAT = "rtsp-events/1"


@dataclass
class Event:
    """One recorded event: a logical sequence number, a name, attributes."""

    seq: int
    name: str
    attrs: Dict[str, Any] = field(default_factory=dict)
    wall: float = 0.0

    def logical_record(self) -> Dict[str, Any]:
        """The deterministic view: everything except the wall clock."""
        return {
            "type": "event",
            "seq": self.seq,
            "name": self.name,
            "attrs": self.attrs,
        }

    def record(self) -> Dict[str, Any]:
        """The full JSONL record (logical fields plus wall clock)."""
        rec = self.logical_record()
        rec["wall"] = self.wall
        return rec


class EventStream:
    """Append-only event recorder with deterministic sequence numbers.

    Not thread-safe: one stream is written by the thread (or the fork
    worker) whose observability context holds it, and the context is
    per thread (:mod:`repro.obs.context`), so a thread that did not
    install the stream cannot reach it through the context. For
    parallel runs each worker records into a fresh stream and the
    parent merges the fragments with :meth:`adopt` in deterministic
    task order, so the merged logical stream is independent of worker
    count (the same contract :class:`~repro.obs.trace.Tracer` honours).

    ``on_event`` (if given) is called with every event as it lands —
    including adopted ones — which is what the CLIs' ``--progress``
    renderers hook into. ``recorder`` (if given) additionally feeds a
    :class:`FlightRecorder` ring buffer.
    """

    enabled = True

    def __init__(
        self,
        meta: Optional[Dict[str, Any]] = None,
        on_event: Optional[Callable[[Event], None]] = None,
        recorder: Optional["FlightRecorder"] = None,
    ) -> None:
        self.meta = dict(meta or {})
        self.events: List[Event] = []
        self.on_event = on_event
        self.recorder = recorder
        self._seq = 0

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def emit(self, name: str, **attrs: Any) -> Event:
        """Record (and forward) one event."""
        event = Event(
            seq=self._seq,
            name=name,
            attrs=attrs,
            wall=time.perf_counter(),
        )
        self._seq += 1
        self.events.append(event)
        if self.recorder is not None:
            self.recorder.record(event)
        if self.on_event is not None:
            self.on_event(event)
        return event

    def adopt(self, events: Iterable[Event]) -> None:
        """Append a worker fragment's events, re-basing sequence numbers.

        Adopting fragments in a deterministic order yields a merged
        logical stream identical to recording everything on this stream
        in that order. Adopted events also flow through ``recorder``
        and ``on_event``, so flight recording and live progress see the
        merged stream too.
        """
        base = self._seq
        max_seq = -1
        for event in events:
            adopted = Event(
                seq=event.seq + base,
                name=event.name,
                attrs=dict(event.attrs),
                wall=event.wall,
            )
            self.events.append(adopted)
            if self.recorder is not None:
                self.recorder.record(adopted)
            if self.on_event is not None:
                self.on_event(adopted)
            if event.seq > max_seq:
                max_seq = event.seq
        if max_seq >= 0:
            self._seq = base + max_seq + 1

    def __len__(self) -> int:
        return len(self.events)

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def header(self) -> Dict[str, Any]:
        """The JSONL header record."""
        return {
            "format": EVENTS_FORMAT,
            "meta": self.meta,
            "events": len(self.events),
        }

    def to_lines(self) -> List[str]:
        """Full JSONL lines (header + one line per event, emit order)."""
        lines = [json.dumps(self.header(), sort_keys=True)]
        lines.extend(
            json.dumps(event.record(), sort_keys=True)
            for event in self.events
        )
        return lines

    def logical_lines(self) -> List[str]:
        """The deterministic stream: event records without wall clocks.

        Byte-identical across runs (and worker counts) for the same
        seed; this is what the determinism property tests compare.
        """
        return [
            json.dumps(event.logical_record(), sort_keys=True)
            for event in self.events
        ]

    def write_jsonl(self, path: str) -> None:
        """Write the versioned ``rtsp-events/1`` JSONL file."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(self.to_lines()) + "\n")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"EventStream(events={len(self.events)})"


class FlightRecorder:
    """Bounded ring buffer over the most recent events.

    Keeps at most ``capacity`` events (oldest evicted first) plus a
    count of how many were dropped, so a long healthy run costs O(1)
    memory and a crash still has its final moments on record.
    :meth:`dump` writes a valid ``rtsp-events/1`` file whose header
    additionally carries ``capacity``, ``dropped`` and the dump
    ``reason`` — :func:`validate_event_lines` accepts it unchanged.
    """

    def __init__(self, capacity: int = 256, path: Optional[str] = None) -> None:
        if capacity < 1:
            raise ConfigurationError(
                f"FlightRecorder capacity must be >= 1, got {capacity}"
            )
        self.capacity = capacity
        #: Default dump destination (``dump()`` may override per call).
        self.path = path
        self.dropped = 0
        self._ring: Deque[Event] = deque(maxlen=capacity)

    def record(self, event: Event) -> None:
        """Push one event, evicting the oldest when full."""
        if len(self._ring) == self.capacity:
            self.dropped += 1
        self._ring.append(event)

    def note(self, name: str, **attrs: Any) -> Event:
        """Record a synthetic event directly on the recorder.

        Used for failure annotations (exception type, dump reason) that
        must land in the dump even when no stream is attached.
        """
        event = Event(
            seq=self._ring[-1].seq + 1 if self._ring else 0,
            name=name,
            attrs=attrs,
            wall=time.perf_counter(),
        )
        self.record(event)
        return event

    @property
    def events(self) -> Tuple[Event, ...]:
        """The retained events, oldest first."""
        return tuple(self._ring)

    def __len__(self) -> int:
        return len(self._ring)

    def to_lines(self, reason: str = "") -> List[str]:
        """JSONL lines of the retained window (valid ``rtsp-events/1``)."""
        header = {
            "format": EVENTS_FORMAT,
            "meta": {
                "flight_recorder": True,
                "capacity": self.capacity,
                "dropped": self.dropped,
                "reason": reason,
            },
            "events": len(self._ring),
        }
        lines = [json.dumps(header, sort_keys=True)]
        lines.extend(
            json.dumps(event.record(), sort_keys=True) for event in self._ring
        )
        return lines

    def dump(self, path: Optional[str] = None, reason: str = "") -> str:
        """Write the retained window to ``path`` (default: ``self.path``).

        Returns the path written. Raises
        :class:`~repro.util.errors.ConfigurationError` when neither the
        call nor the recorder names a destination.
        """
        target = path or self.path
        if not target:
            raise ConfigurationError(
                "FlightRecorder.dump needs a path (none configured)"
            )
        with open(target, "w", encoding="utf-8") as fh:
            fh.write("\n".join(self.to_lines(reason=reason)) + "\n")
        return target

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FlightRecorder(events={len(self._ring)}/{self.capacity}, "
            f"dropped={self.dropped})"
        )


def render_event(event: Event) -> str:
    """One-line terminal rendering of an event, for ``--progress``.

    Shared by ``rtsp-tool schedule --progress`` and ``repro.experiments
    --progress`` so heartbeats look the same everywhere.
    """
    attrs = " ".join(f"{key}={value}" for key, value in event.attrs.items())
    return f"[{event.seq:>5}] {event.name}" + (f" {attrs}" if attrs else "")


@contextmanager
def flight_recorded(
    path: str,
    capacity: int = 256,
    meta: Optional[Dict[str, Any]] = None,
    on_event: Optional[Callable[[Event], None]] = None,
) -> Iterator[EventStream]:
    """Run a block with an event stream backed by a flight recorder.

    Installs the stream as the active event sink (see
    :mod:`repro.obs.context`). If the block raises, the recorder notes
    the exception and dumps its window to ``path`` before re-raising;
    on clean exit nothing is written. The yielded stream can still be
    exported in full by the caller (``stream.write_jsonl``).
    """
    from repro.obs.context import use_events

    recorder = FlightRecorder(capacity=capacity, path=path)
    stream = EventStream(meta=meta, on_event=on_event, recorder=recorder)
    try:
        with use_events(stream):
            yield stream
    except BaseException as exc:
        recorder.note(
            "exception",
            error=type(exc).__name__,
            message=str(exc)[:500],
        )
        recorder.dump(reason=f"exception: {type(exc).__name__}")
        raise


# ----------------------------------------------------------------------
# loading and validation
# ----------------------------------------------------------------------
def load_events(path: str) -> Tuple[Dict[str, Any], List[Event]]:
    """Read an ``rtsp-events/1`` JSONL file back into (header, events).

    Raises :class:`~repro.util.errors.ConfigurationError` when the file
    does not validate against the schema.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines() if line.strip()]
    errors = validate_event_lines(lines)
    if errors:
        raise ConfigurationError(
            f"{path} is not a valid {EVENTS_FORMAT} stream: "
            + "; ".join(errors[:5])
        )
    header = json.loads(lines[0])
    events = []
    for line in lines[1:]:
        rec = json.loads(line)
        events.append(
            Event(
                seq=rec["seq"],
                name=rec["name"],
                attrs=rec.get("attrs", {}),
                wall=rec.get("wall", 0.0),
            )
        )
    return header, events


def validate_event_lines(lines: List[str]) -> List[str]:
    """Validate JSONL lines against the ``rtsp-events/1`` schema.

    Returns a (possibly empty) list of human-readable problems; empty
    means schema-valid.
    """
    errors: List[str] = []
    if not lines:
        return ["empty stream (missing header line)"]
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        return [f"header is not valid JSON: {exc}"]
    if not isinstance(header, dict) or header.get("format") != EVENTS_FORMAT:
        errors.append(
            f"header format must be {EVENTS_FORMAT!r}, "
            f"got {header.get('format')!r}"
            if isinstance(header, dict)
            else "header must be a JSON object"
        )
        return errors
    declared = header.get("events")
    if not isinstance(declared, int) or declared < 0:
        errors.append("header 'events' must be a non-negative integer")
    last_seq: Optional[int] = None
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            errors.append(f"line {lineno}: not valid JSON: {exc}")
            continue
        if not isinstance(rec, dict) or rec.get("type") != "event":
            errors.append(f"line {lineno}: record type must be 'event'")
            continue
        seq = rec.get("seq")
        if not isinstance(seq, int) or seq < 0:
            errors.append(f"line {lineno}: 'seq' must be a non-negative integer")
        else:
            if last_seq is not None and seq <= last_seq:
                errors.append(
                    f"line {lineno}: 'seq' must be strictly increasing "
                    f"({seq} after {last_seq})"
                )
            last_seq = seq
        if not isinstance(rec.get("name"), str):
            errors.append(f"line {lineno}: 'name' must be a string")
        if "attrs" in rec and not isinstance(rec["attrs"], dict):
            errors.append(f"line {lineno}: 'attrs' must be an object")
        wall = rec.get("wall")
        if wall is not None and not isinstance(wall, (int, float)):
            errors.append(f"line {lineno}: 'wall' must be a number")
    if isinstance(declared, int) and declared != len(lines) - 1:
        errors.append(
            f"header declares {declared} events but file contains "
            f"{len(lines) - 1}"
        )
    return errors


def validate_event_file(path: str) -> List[str]:
    """Validate an event file on disk; returns the list of problems."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines() if line.strip()]
    return validate_event_lines(lines)
