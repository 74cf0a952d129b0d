"""Span-based execution tracing with deterministic logical timelines.

A :class:`Tracer` records a tree of named spans. Every span carries two
timelines:

* a **logical** one — monotonically increasing event sequence numbers
  (``seq_start``/``seq_end``) assigned in span open/close order, plus
  user-supplied attributes and counters. Because the algorithms under
  observation are deterministic per seed, the logical timeline is
  byte-identical across runs, machines and worker counts (the property
  tests assert this);
* a **wall-clock** one — ``perf_counter`` stamps (``wall_start``/
  ``wall_end``), useful for profiling but explicitly excluded from the
  deterministic view.

Traces serialize to a versioned JSONL format (``rtsp-trace/1``): one
header line followed by one line per span, in span *close* order. The
same span list also exports to the Chrome trace-event format so a run
can be inspected in ``chrome://tracing`` / Perfetto.

:class:`NullTracer` is the default, zero-overhead stand-in: its ``span``
returns a shared no-op context manager and every other method is a
no-op, so instrumented code costs nothing when tracing is off.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.util.errors import ConfigurationError

__all__ = [
    "TRACE_FORMAT",
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "load_trace",
    "validate_trace_lines",
    "validate_trace_file",
]

#: Version tag written into (and required of) every trace header.
TRACE_FORMAT = "rtsp-trace/1"


@dataclass
class Span:
    """One traced region; finalized when its context manager exits."""

    span_id: int
    parent_id: Optional[int]
    name: str
    seq_start: int
    seq_end: int = -1
    wall_start: float = 0.0
    wall_end: float = 0.0
    attrs: Dict[str, Any] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)

    @property
    def wall_duration(self) -> float:
        """Wall-clock seconds spent inside the span."""
        return self.wall_end - self.wall_start

    def logical_record(self) -> Dict[str, Any]:
        """The deterministic view: everything except wall-clock fields."""
        return {
            "type": "span",
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "seq": [self.seq_start, self.seq_end],
            "attrs": self.attrs,
            "counters": self.counters,
        }

    def record(self) -> Dict[str, Any]:
        """The full JSONL record (logical fields plus wall-clock)."""
        rec = self.logical_record()
        rec["wall"] = [self.wall_start, self.wall_end]
        return rec


class _SpanContext:
    """Context manager opening/closing one span on its tracer."""

    __slots__ = ("_tracer", "_name", "_attrs", "_span")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, Any]):
        self._tracer = tracer
        self._name = name
        self._attrs = attrs
        self._span: Optional[Span] = None

    def __enter__(self) -> Span:
        self._span = self._tracer._open(self._name, self._attrs)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self._span.attrs.setdefault("error", exc_type.__name__)
        self._tracer._close(self._span)
        return False


class Tracer:
    """Collects spans; export via :meth:`write_jsonl` / :meth:`write_chrome`.

    Not thread-safe: one tracer is written by the thread (or the fork
    worker) whose observability context holds it, and the context is
    per thread (:mod:`repro.obs.context`), so a thread that did not
    install the tracer cannot reach it through the context. For
    parallel runs each worker records into a fresh tracer and the
    parent stitches the fragments together with :meth:`adopt`, in
    deterministic task order, so the merged logical timeline is
    independent of worker count.
    """

    enabled = True

    def __init__(self, meta: Optional[Dict[str, Any]] = None) -> None:
        self.meta = dict(meta or {})
        #: Completed spans, in close order.
        self.spans: List[Span] = []
        #: Counters recorded outside any open span.
        self.counters: Dict[str, float] = {}
        self._stack: List[Span] = []
        self._next_id = 0
        self._seq = 0
        #: Whether any cross-process fragment was merged in (worker wall
        #: clocks live in foreign perf_counter domains, so the wall
        #: timeline of an adopted trace is incoherent).
        self._adopted = False

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def span(self, name: str, **attrs: Any) -> _SpanContext:
        """Open a (possibly nested) span around a ``with`` block."""
        return _SpanContext(self, name, attrs)

    def event(self, name: str, **attrs: Any) -> Span:
        """Record an instantaneous (zero-duration) span."""
        span = self._open(name, attrs)
        self._close(span)
        return span

    def count(self, name: str, n: float = 1) -> None:
        """Add ``n`` to counter ``name`` on the innermost open span
        (or at tracer level when no span is open)."""
        target = self._stack[-1].counters if self._stack else self.counters
        target[name] = target.get(name, 0) + n

    def annotate(self, **attrs: Any) -> None:
        """Attach attributes to the innermost open span (no-op outside)."""
        if self._stack:
            self._stack[-1].attrs.update(attrs)

    def current_span(self) -> Optional[Span]:
        """The innermost open span, or ``None`` outside any span."""
        return self._stack[-1] if self._stack else None

    def _open(self, name: str, attrs: Dict[str, Any]) -> Span:
        span = Span(
            span_id=self._next_id,
            parent_id=self._stack[-1].span_id if self._stack else None,
            name=name,
            seq_start=self._seq,
            wall_start=time.perf_counter(),
            attrs=dict(attrs),
        )
        self._next_id += 1
        self._seq += 1
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        popped = self._stack.pop()
        if popped is not span:  # pragma: no cover - misuse guard
            raise ConfigurationError(
                f"span {span.name!r} closed out of order (open: {popped.name!r})"
            )
        span.seq_end = self._seq
        self._seq += 1
        span.wall_end = time.perf_counter()
        self.spans.append(span)

    # ------------------------------------------------------------------
    # fragment merging (parallel workers)
    # ------------------------------------------------------------------
    def adopt(
        self, spans: Iterable[Span], parent_id: Optional[int] = None
    ) -> None:
        """Append a completed fragment's spans, re-basing ids and seqs.

        Fragments must themselves be closed (every adopted span has a
        ``seq_end``); adopting them in a deterministic order yields a
        merged logical timeline identical to recording everything on
        this tracer in that order.

        ``parent_id`` re-parents the fragment's *root* spans (those with
        ``parent_id is None``) under an existing span of this tracer —
        the cross-process linkage :class:`~repro.shard.pool.WorkQueue`
        uses so worker shard spans nest under the coordinating
        ``plan_sharded`` span instead of merging flat. It may name a
        still-open span: the adopted seqs land inside the open span's
        eventual ``[seq_start, seq_end]`` window (it closes later, at a
        higher seq), preserving timeline containment. Without
        ``parent_id``, adoption while spans are open is rejected —
        silently attaching a fragment to whatever happens to be open
        would make the merged tree depend on call context.
        """
        if self._stack and parent_id is None:
            raise ConfigurationError("cannot adopt spans while spans are open")
        if parent_id is not None and not any(
            s.span_id == parent_id for s in self.spans
        ) and not any(s.span_id == parent_id for s in self._stack):
            raise ConfigurationError(
                f"adopt parent_id {parent_id} references no span of this tracer"
            )
        spans = list(spans)
        if not spans:
            return
        id_base = self._next_id
        seq_base = self._seq
        max_id = -1
        max_seq = -1
        for span in spans:
            if span.seq_end < 0:  # pragma: no cover - misuse guard
                raise ConfigurationError(
                    f"cannot adopt unclosed span {span.name!r}"
                )
            self.spans.append(
                Span(
                    span_id=span.span_id + id_base,
                    parent_id=(
                        parent_id
                        if span.parent_id is None
                        else span.parent_id + id_base
                    ),
                    name=span.name,
                    seq_start=span.seq_start + seq_base,
                    seq_end=span.seq_end + seq_base,
                    wall_start=span.wall_start,
                    wall_end=span.wall_end,
                    attrs=dict(span.attrs),
                    counters=dict(span.counters),
                )
            )
            max_id = max(max_id, span.span_id)
            max_seq = max(max_seq, span.seq_end)
        self._next_id = id_base + max_id + 1
        self._seq = seq_base + max_seq + 1
        self._adopted = True

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def header(self) -> Dict[str, Any]:
        """The JSONL header record."""
        return {
            "format": TRACE_FORMAT,
            "meta": self.meta,
            "spans": len(self.spans),
            "counters": self.counters,
        }

    def to_lines(self) -> List[str]:
        """Full JSONL lines (header + one line per span, close order)."""
        lines = [json.dumps(self.header(), sort_keys=True)]
        lines.extend(
            json.dumps(span.record(), sort_keys=True) for span in self.spans
        )
        return lines

    def logical_lines(self) -> List[str]:
        """The deterministic timeline: span records without wall clocks.

        Byte-identical across runs (and worker counts) for the same seed;
        this is the stream the determinism property tests compare.
        """
        return [
            json.dumps(span.logical_record(), sort_keys=True)
            for span in self.spans
        ]

    def write_jsonl(self, path: str) -> None:
        """Write the versioned ``rtsp-trace/1`` JSONL file."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(self.to_lines()) + "\n")

    def _resolve_clock(self, clock: str) -> str:
        """Resolve a chrome-export clock mode (``auto``/``wall``/``logical``)."""
        if clock == "auto":
            return "logical" if self._adopted else "wall"
        if clock not in ("wall", "logical"):
            raise ConfigurationError(
                f"chrome clock must be 'auto', 'wall' or 'logical', "
                f"got {clock!r}"
            )
        return clock

    def chrome_events(self, clock: str = "auto") -> List[Dict[str, Any]]:
        """Chrome trace-event list (``ph: "X"`` complete events).

        ``clock`` picks the timeline:

        * ``"wall"`` — raw ``perf_counter`` stamps. Correct nesting for
          single-process traces; meaningless once worker fragments with
          foreign clocks were adopted.
        * ``"logical"`` — the deterministic sequence timeline
          (``ts = seq_start``, ``dur = seq_end - seq_start``). Because a
          child's seq window is strictly inside its parent's, Perfetto's
          stack-based nesting reproduces the span tree exactly — adopted
          worker spans nest under their cross-process parent. Wall-clock
          milliseconds are preserved per event in ``args.wall_ms``.
        * ``"auto"`` (default) — ``logical`` when fragments were adopted,
          ``wall`` otherwise.
        """
        mode = self._resolve_clock(clock)
        events = []
        for span in self.spans:
            args = dict(span.attrs)
            if span.counters:
                args["counters"] = span.counters
            if mode == "logical":
                args["wall_ms"] = round(max(span.wall_duration, 0.0) * 1e3, 6)
                ts = float(span.seq_start)
                dur = float(span.seq_end - span.seq_start)
            else:
                ts = span.wall_start * 1e6
                dur = max(span.wall_duration, 0.0) * 1e6
            events.append(
                {
                    "name": span.name,
                    "ph": "X",
                    "ts": ts,
                    "dur": dur,
                    "pid": 0,
                    "tid": 0,
                    "args": args,
                }
            )
        return events

    def write_chrome(self, path: str, clock: str = "auto") -> None:
        """Write a ``chrome://tracing`` / Perfetto compatible JSON file."""
        mode = self._resolve_clock(clock)
        payload = {
            "traceEvents": self.chrome_events(clock=mode),
            "displayTimeUnit": "ms",
            "otherData": dict(self.meta, format=TRACE_FORMAT, clock=mode),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Tracer(spans={len(self.spans)}, open={len(self._stack)})"


class _NullSpanContext:
    """Shared no-op context manager handed out by :class:`NullTracer`."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpanContext()


class NullTracer:
    """Zero-overhead tracer: every operation is a no-op.

    The module-level singleton :data:`NULL_TRACER` is the default active
    tracer; instrumented code can call it unconditionally.
    """

    enabled = False
    spans: Tuple[Span, ...] = ()
    counters: Dict[str, float] = {}

    __slots__ = ()

    def span(self, name: str, **attrs: Any) -> _NullSpanContext:
        return _NULL_SPAN

    def event(self, name: str, **attrs: Any) -> None:
        return None

    def count(self, name: str, n: float = 1) -> None:
        return None

    def annotate(self, **attrs: Any) -> None:
        return None

    def current_span(self) -> None:
        return None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "NullTracer()"


#: The shared disabled tracer: what :func:`repro.obs.context.current_tracer`
#: returns when no tracer is installed.
NULL_TRACER = NullTracer()


# ----------------------------------------------------------------------
# loading and validation
# ----------------------------------------------------------------------
def load_trace(path: str) -> Tuple[Dict[str, Any], List[Span]]:
    """Read an ``rtsp-trace/1`` JSONL file back into (header, spans).

    Raises :class:`~repro.util.errors.ConfigurationError` when the file
    does not validate against the schema.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines() if line.strip()]
    errors = validate_trace_lines(lines)
    if errors:
        raise ConfigurationError(
            f"{path} is not a valid {TRACE_FORMAT} trace: " + "; ".join(errors[:5])
        )
    header = json.loads(lines[0])
    spans = []
    for line in lines[1:]:
        rec = json.loads(line)
        spans.append(
            Span(
                span_id=rec["id"],
                parent_id=rec["parent"],
                name=rec["name"],
                seq_start=rec["seq"][0],
                seq_end=rec["seq"][1],
                wall_start=rec["wall"][0],
                wall_end=rec["wall"][1],
                attrs=rec.get("attrs", {}),
                counters=rec.get("counters", {}),
            )
        )
    return header, spans


def validate_trace_lines(lines: List[str]) -> List[str]:
    """Validate JSONL lines against the ``rtsp-trace/1`` schema.

    Returns a (possibly empty) list of human-readable problems; an empty
    list means the trace is schema-valid.
    """
    errors: List[str] = []
    if not lines:
        return ["empty trace (missing header line)"]
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        return [f"header is not valid JSON: {exc}"]
    if not isinstance(header, dict) or header.get("format") != TRACE_FORMAT:
        errors.append(
            f"header format must be {TRACE_FORMAT!r}, "
            f"got {header.get('format')!r}"
            if isinstance(header, dict)
            else "header must be a JSON object"
        )
        return errors
    declared = header.get("spans")
    if not isinstance(declared, int) or declared < 0:
        errors.append("header 'spans' must be a non-negative integer")
    seen_ids = set()
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            errors.append(f"line {lineno}: not valid JSON: {exc}")
            continue
        if not isinstance(rec, dict) or rec.get("type") != "span":
            errors.append(f"line {lineno}: record type must be 'span'")
            continue
        if not isinstance(rec.get("id"), int):
            errors.append(f"line {lineno}: 'id' must be an integer")
            continue
        parent = rec.get("parent")
        if parent is not None and not isinstance(parent, int):
            errors.append(f"line {lineno}: 'parent' must be null or an integer")
        if not isinstance(rec.get("name"), str):
            errors.append(f"line {lineno}: 'name' must be a string")
        seq = rec.get("seq")
        if (
            not isinstance(seq, list)
            or len(seq) != 2
            or not all(isinstance(s, int) for s in seq)
            or seq[0] > seq[1]
        ):
            errors.append(
                f"line {lineno}: 'seq' must be [start, end] ints with start <= end"
            )
        wall = rec.get("wall")
        if (
            not isinstance(wall, list)
            or len(wall) != 2
            or not all(isinstance(w, (int, float)) for w in wall)
        ):
            errors.append(f"line {lineno}: 'wall' must be [start, end] numbers")
        for key in ("attrs", "counters"):
            if key in rec and not isinstance(rec[key], dict):
                errors.append(f"line {lineno}: {key!r} must be an object")
        span_id = rec["id"]
        if span_id in seen_ids:
            errors.append(f"line {lineno}: duplicate span id {span_id}")
        seen_ids.add(span_id)
    if isinstance(declared, int) and declared != len(lines) - 1:
        errors.append(
            f"header declares {declared} spans but file contains {len(lines) - 1}"
        )
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            continue
        parent = rec.get("parent") if isinstance(rec, dict) else None
        if parent is not None and parent not in seen_ids:
            errors.append(f"line {lineno}: parent {parent} references no span")
    return errors


def validate_trace_file(path: str) -> List[str]:
    """Validate a trace file on disk; returns the list of problems."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines() if line.strip()]
    return validate_trace_lines(lines)
