"""Shared pieces of the benchmark: statistics, digests, spans and host facts.

Nothing here imports the planner (``repro``) at module level, so the
statistics and span logic can be tested on their own.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

#: Percentiles considered for a tail figure, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 90.0, 50.0)

#: Samples that must lie beyond a percentile before it is reported.
MIN_BEYOND = 10


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the value at rank ``ceil(q/100 * n)``.

    With this rule exactly ``n - rank`` samples lie beyond the result,
    which is what :func:`tail_percentile` counts.
    """
    if not samples:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered) - 1e-9))
    return ordered[min(rank, len(ordered)) - 1]


def tail_percentile(n: int) -> Optional[float]:
    """The highest percentile with at least ten of ``n`` samples beyond it.

    ``None`` when even the median has fewer than ten samples beyond it.
    """
    for q in TAIL_CANDIDATES:
        rank = max(1, math.ceil(q / 100.0 * n - 1e-9))
        if n - rank >= MIN_BEYOND:
            return q
    return None


def summarize(samples: Sequence[float]) -> Dict[str, Any]:
    """Median, quartiles, n and the supported tail percentile."""
    values = list(samples)
    out: Dict[str, Any] = {"n": len(values)}
    if not values:
        return out
    out["median"] = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out["q1"], out["q3"] = q1, q3
    else:
        out["q1"] = out["q3"] = values[0]
    tail = tail_percentile(len(values))
    if tail is not None:
        out["tail_q"] = tail
        out["tail"] = percentile(values, tail)
    out["max"] = max(values)
    return out


# ----------------------------------------------------------------------
# host speed
# ----------------------------------------------------------------------
#: Seconds :func:`speed_kernel` takes at the reference host speed (about
#: the median on the 2-core host the benchmark was tuned on).
REFERENCE_KERNEL_S = 0.007


def speed_kernel() -> None:
    """A fixed pure-Python loop, independent of the planner's code."""
    total = 0
    for i in range(100_000):
        total += i * i


class HostSpeed:
    """Calibration samples taken between the timed calls of a run.

    On a shared host the CPU speed drifts: the kernel's time moved by
    up to 45% within minutes on the 2-core machine this benchmark was
    tuned on, and raw pass times with it. A wall time scaled by
    ``REFERENCE_KERNEL_S / median kernel time`` over the run is in
    *reference seconds*, the time at the reference speed, which a change
    to the planner moves and host drift mostly does not.
    """

    def __init__(self, cpu: Optional[int] = None) -> None:
        #: the CPU to sample on (``None``: wherever this thread runs)
        self.cpu = cpu
        self.samples: List[float] = []

    def sample(self, repeats: int = 3) -> None:
        """Time the kernel ``repeats`` times; keep the median."""
        saved = os.sched_getaffinity(0) if self.cpu is not None else None
        if saved is not None:
            os.sched_setaffinity(0, {self.cpu})
        try:
            times = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                speed_kernel()
                times.append(time.perf_counter() - t0)
        finally:
            if saved is not None:
                os.sched_setaffinity(0, saved)
        self.samples.append(statistics.median(times))

    def factor(self, since: int = 0) -> float:
        """Reference seconds per wall second, over the samples from
        index ``since`` on."""
        return REFERENCE_KERNEL_S / statistics.median(self.samples[since:])


# ----------------------------------------------------------------------
# open-loop load accounting
# ----------------------------------------------------------------------
def open_loop_latencies(
    records: Iterable[Tuple[float, float, float]]
) -> Tuple[List[float], List[float]]:
    """Latency from due time and generator lag of ``(due, sent, done)``.

    Timing from the due time, not the send time, charges a stall to
    every request that was due while it lasted; ``sent - due`` is how
    late the generator ran.
    """
    latencies: List[float] = []
    lags: List[float] = []
    for due, sent, done in records:
        latencies.append(done - due)
        lags.append(max(0.0, sent - due))
    return latencies, lags


def completion_rate(dones: Sequence[float]) -> float:
    """Requests completed per second over a step: the inverse slope of a
    least-squares line through the sorted completion times, so a single
    slow first or last request barely moves it."""
    if len(dones) < 3:
        return 0.0
    times = sorted(dones)
    n = len(times)
    mean_k = (n - 1) / 2.0
    mean_t = sum(times) / n
    num = sum((k - mean_k) * (t - mean_t) for k, t in enumerate(times))
    den = sum((k - mean_k) ** 2 for k in range(n))
    slope = num / den
    return 1.0 / slope if slope > 0 else 0.0


def backlog_series(
    dues: Sequence[float], dones: Sequence[float]
) -> List[Tuple[float, int]]:
    """``(t, due-but-unfinished requests)`` at every due and done instant."""
    events = [(t, 1) for t in dues] + [(t, -1) for t in dones]
    # At equal stamps count the completion first: it is not backlog.
    events.sort(key=lambda item: (item[0], item[1]))
    level = 0
    series = []
    for stamp, delta in events:
        level += delta
        series.append((stamp, level))
    return series


def backlog_at(series: Sequence[Tuple[float, int]], t: float) -> int:
    """Backlog level at time ``t`` (after every event stamped <= t)."""
    level = 0
    for stamp, value in series:
        if stamp > t:
            break
        level = value
    return level


def backlog_growing(
    dues: Sequence[float], dones: Sequence[float], connections: int
) -> bool:
    """Whether the backlog grew over a load step.

    It grew when, at the last due time, more requests wait than the
    connections can hold in flight twice over and more than waited at
    the step's middle due time.
    """
    if not dues:
        return False
    ordered = sorted(dues)
    series = backlog_series(ordered, dones)
    end = backlog_at(series, ordered[-1])
    mid = backlog_at(series, ordered[len(ordered) // 2])
    return end > 2 * connections and end > mid


def step_passes(step: Dict[str, Any], limit_s: float, tail_q: float) -> bool:
    """One ladder step meets the latency limit without failures or growth.

    A failed or refused request counts as a miss: its latency is taken
    as infinite before the percentile is read.
    """
    if step["failed"] or step.get("growing"):
        return False
    latencies = list(step["latencies"]) + [math.inf] * step["failed"]
    if not latencies:
        return False
    return percentile(latencies, tail_q) <= limit_s


def max_sustained_rate(
    steps: Sequence[Dict[str, Any]], limit_s: float, tail_q: float = 90.0
) -> Optional[Dict[str, Any]]:
    """The highest-rate step that passes :func:`step_passes`, or ``None``."""
    best = None
    for step in steps:
        if step_passes(step, limit_s, tail_q):
            if best is None or step["rate"] > best["rate"]:
                best = step
    return best


# ----------------------------------------------------------------------
# digests
# ----------------------------------------------------------------------
def instance_digest(instance: Any) -> str:
    """sha256 over an instance's arrays: dtype, shape and bytes of each."""
    import numpy as np

    h = hashlib.sha256()
    for name in ("sizes", "capacities", "costs", "x_old", "x_new"):
        array = np.ascontiguousarray(getattr(instance, name))
        h.update(name.encode("ascii"))
        h.update(str(array.dtype).encode("ascii"))
        h.update(repr(array.shape).encode("ascii"))
        h.update(array.tobytes())
    return h.hexdigest()


def schedule_rows(schedule: Any) -> List[List[Any]]:
    """Action rows ``["T", target, obj, source]`` / ``["D", server, obj]``."""
    from repro.model.actions import Transfer

    rows: List[List[Any]] = []
    for action in schedule:
        if isinstance(action, Transfer):
            rows.append(["T", action.target, action.obj, action.source])
        else:
            rows.append(["D", action.server, action.obj])
    return rows


def schedule_digest(schedule: Any) -> str:
    """sha256 of a schedule's action rows in a fixed JSON spelling.

    Built here rather than from ``repro.io``: the io layer is one of the
    layers measured, and a digest must not change with its format.
    """
    text = json.dumps(schedule_rows(schedule), separators=(",", ":"))
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def combined_digest(digests: Iterable[str]) -> str:
    """One digest over an ordered list of digests."""
    h = hashlib.sha256()
    for digest in digests:
        h.update(digest.encode("ascii"))
    return h.hexdigest()


def check_digests(
    actual: Sequence[str], pinned: Optional[Sequence[str]], what: str
) -> List[str]:
    """Problems found comparing generated digests with the pinned ones."""
    if pinned is None:
        return [f"{what}: no pinned digests"]
    if len(actual) != len(pinned):
        return [
            f"{what}: {len(actual)} instances generated, "
            f"{len(pinned)} pinned"
        ]
    return [
        f"{what}: instance {i} digest {a[:12]} != pinned {p[:12]}"
        for i, (a, p) in enumerate(zip(actual, pinned))
        if a != p
    ]


# ----------------------------------------------------------------------
# schedule checks (independent of the planner's own cost code)
# ----------------------------------------------------------------------
def recomputed_cost(instance: Any, schedule: Any) -> Tuple[float, int]:
    """Sum of s(O_k) * l[target][source] over transfers, and dummy count."""
    from repro.model.actions import Transfer

    sizes = instance.sizes
    costs = instance.costs
    dummy = instance.num_servers
    total = 0.0
    dummies = 0
    for action in schedule:
        if isinstance(action, Transfer):
            total += float(sizes[action.obj]) * float(
                costs[action.target, action.source]
            )
            if action.source == dummy:
                dummies += 1
    return total, dummies


def check_schedule(instance: Any, schedule: Any, what: str) -> List[str]:
    """Replay must be valid and reach X_new; the cost must recompute."""
    report = schedule.validate(instance)
    if not report.ok:
        return [f"{what}: invalid schedule: {report.message}"]
    cost, _ = recomputed_cost(instance, schedule)
    claimed = float(schedule.cost(instance))
    if not math.isclose(cost, claimed, rel_tol=1e-9, abs_tol=1e-6):
        return [f"{what}: cost {claimed} does not recompute ({cost})"]
    return []


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class SpanRecorder:
    """In-memory spans, written out as ``rtsp-trace/1`` JSONL at the end.

    Parents are tracked per thread, so concurrent load threads each
    build their own span tree. Every span carries a ``request`` id.
    """

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._seq = 0

    def _stack(self) -> List[Dict[str, Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _tick(self) -> int:
        with self._lock:
            self._seq += 1
            return self._seq - 1

    @contextmanager
    def span(self, name: str, request: Any = None, **attrs: Any):
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request is None and parent is not None:
            request = parent["attrs"].get("request")
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        record = {
            "type": "span",
            "id": span_id,
            "parent": parent["id"] if parent else None,
            "name": name,
            "attrs": dict(attrs, request=request),
            "counters": {},
            "seq": [self._tick(), -1],
            "wall": [time.perf_counter(), 0.0],
        }
        stack.append(record)
        try:
            yield record
        finally:
            record["wall"][1] = time.perf_counter()
            record["seq"][1] = self._tick()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def add_span(
        self,
        name: str,
        start: float,
        end: float,
        children: Sequence[Tuple[str, float, float]] = (),
        **attrs: Any,
    ) -> None:
        """Record a finished root span and its finished children, for
        intervals measured elsewhere (a request's due time lies before
        the thread that sends it picks it up)."""
        with self._lock:
            root_id = self._next_id
            self._next_id += 1 + len(children)
            seq = self._seq
            self._seq += 2 + 2 * len(children)
            for k, (child, lo, hi) in enumerate(children):
                self.spans.append({
                    "type": "span", "id": root_id + 1 + k, "parent": root_id,
                    "name": child, "attrs": {"request": attrs.get("request")},
                    "counters": {}, "seq": [seq + 1 + 2 * k, seq + 2 + 2 * k],
                    "wall": [lo, hi],
                })
            self.spans.append({
                "type": "span", "id": root_id, "parent": None, "name": name,
                "attrs": dict(attrs), "counters": {},
                "seq": [seq, seq + 1 + 2 * len(children)], "wall": [start, end],
            })

    def write(self, path: str, meta: Dict[str, Any]) -> None:
        """Write the header line and one line per span, in close order."""
        header = {
            "format": "rtsp-trace/1",
            "meta": meta,
            "spans": len(self.spans),
            "counters": {},
        }
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for record in self.spans:
                fh.write(json.dumps(record, sort_keys=True) + "\n")


def layer_key(span: Dict[str, Any]) -> str:
    """The layer a span is charged to: ``stage.<name>`` or the span name."""
    if span["name"] == "stage":
        return f"stage.{span['attrs'].get('stage')}"
    return span["name"]


def _covered(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    """Self time per layer: each span's duration minus what its children
    cover of it, summed over spans of the same layer."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["wall"][0], span["wall"][1])
            )
    totals: Dict[str, float] = {}
    for span in spans:
        lo, hi = span["wall"]
        own = (hi - lo) - _covered(children.get(span["id"], []), lo, hi)
        key = layer_key(span)
        totals[key] = totals.get(key, 0.0) + own
    return totals


# ----------------------------------------------------------------------
# host and run facts
# ----------------------------------------------------------------------
def nproc() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> Optional[float]:
    """Peak RSS (``VmHWM``) of another live process in MiB."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        return None
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_revision(root: str) -> Dict[str, str]:
    """The git commit when ``root`` is a repository, and always a digest
    of the planner's sources, which identifies the code in a plain
    checkout too."""
    out: Dict[str, str] = {}
    try:
        # Only ``root``'s own repository: a plain checkout may sit inside
        # some other one.
        found = subprocess.run(
            ["git", "-C", root, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
        lines = found.stdout.split()
        if (found.returncode == 0 and len(lines) == 2
                and os.path.realpath(lines[0]) == os.path.realpath(root)):
            out["git_commit"] = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode("utf-8"))
                with open(path, "rb") as fh:
                    h.update(fh.read())
    out["source_sha256"] = h.hexdigest()
    return out


def host_meta(root: str) -> Dict[str, Any]:
    """nproc, CPU model, interpreter and library versions, revision."""
    import numpy
    import scipy

    meta: Dict[str, Any] = {
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }
    meta.update(source_revision(root))
    return meta
