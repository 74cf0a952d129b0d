"""The serve-mix workload: the HTTP service, closed loop then open loop.

The service runs as its own process (``python -m repro.tools serve``).
First, a closed loop plans 100 new paper-shaped 20x100 instances one
request at a time on the otherwise idle service, sampling the host
speed on the service's CPU between requests: their median and p90 are
``plan_s`` and ``tail_s``, the time to get a plan. Then one load process
sends an open-loop mix at a ladder of fixed rates over at most
``nproc`` connections; the highest rate held within the latency limit
is ``throughput_rps``. Each request is due at a fixed time and is timed
from that due time, so a stall is charged to every request that was
due while it lasted.

The mix: 40% new instances (plan-cache miss), 30% repeats of an earlier
request (cache replay), 20% placement deltas on a topology the server
already holds (topology hit, plan miss) and 10% strict ``/v1/validate``
of an earlier schedule, in a fixed interleaving. The seed picks which
earlier request each repeat and validation refers to. New instances go
out in pool order and each is sent exactly once, so the planning work
of every step, and ``plan_cost`` (summed over the new instances), do
not depend on the seed.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import deque
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

import common
import workloads
from workloads import PIPELINE

#: (rate in reference req/s, share of --seconds). The first step is the
#: reference rate at which the serve layers' latencies are reported. On the 2-core host the
#: benchmark was tuned on, the service saturated between 14 and 22
#: reference req/s of this mix, so the other steps sit clearly below and
#: far above that knee.
LADDER = ((8.0, 0.65), (12.0, 0.2), (40.0, 0.15))
#: Samples the reference step must hold for a p90 (ten beyond it).
REFERENCE_SAMPLES = 100
LATENCY_LIMIT_S = 1.0
CLASSES = ("cold", "cached", "delta", "validate")
#: One period of the mix: 40% new instances, 30% repeats, 20% deltas and
#: 10% validations, spread so that the planning classes do not bunch up.
PATTERN = ("cold", "cached", "cold", "delta", "cached", "cold", "validate",
           "delta", "cold", "cached")
#: The run opens with this many new instances so that every later
#: repeat, delta and validation has an earlier request to refer to.
PREFIX_COLD = 10
#: A reference must be this many slots and seconds older than its user.
MIN_GAP_SLOTS = 4
MIN_GAP_S = 0.5
#: Repeats and deltas pick among this many most recent eligible new
#: instances. Every topology touched between a base and its delta then
#: lies within 2 * (window + gap) new instances, which stays inside the
#: server's default LRU topology cache (32 entries) at every ladder rate.
REUSE_WINDOW = 8
#: Validations refer to the first few new instances only, whose
#: schedules the benchmark plans itself beforehand.
VALIDATE_TARGETS = 6
BOOTS = 3
#: Planning is pure Python under one interpreter lock: a second worker
#: thread adds no CPU, it only interleaves two plans, which stretches
#: both and ties their latency to thread scheduling.
SERVER_WORKERS = 1
BOOT_TIMEOUT_S = 60.0
HTTP_TIMEOUT_S = 60.0
LOAD_TIMEOUT_S = 150.0


# ----------------------------------------------------------------------
# the server process
# ----------------------------------------------------------------------
class ServerProcess:
    """``python -m repro.tools serve`` on a free port, stopped on exit."""

    def __init__(self, root: str, out_dir: str, workers: int, tag: str,
                 cpu: int) -> None:
        self.log_path = os.path.join(out_dir, f"server-{tag}.log")
        env = dict(os.environ)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        self.started = time.perf_counter()
        self._log = open(self.log_path, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro.tools", "serve",
             "--port", "0", "--workers", str(workers)],
            cwd=root, env=env, stdout=self._log, stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL,
            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
        )
        self.host, self.port = "127.0.0.1", 0

    def wait_healthy(self) -> float:
        """Seconds from spawn until ``/healthz`` answers 200."""
        deadline = self.started + BOOT_TIMEOUT_S
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited early, see {self.log_path}")
            if not self.port:
                self.port = self._read_port()
            if self.port:
                try:
                    status, _ = request(self.host, self.port, "GET", "/healthz")
                    if status == 200:
                        return time.perf_counter() - self.started
                except OSError:
                    pass
            time.sleep(0.01)
        raise RuntimeError("server did not become healthy in time")

    def _read_port(self) -> int:
        with open(self.log_path, encoding="utf-8") as fh:
            for line in fh:
                if "listening on http://" in line:
                    return int(line.rsplit(":", 1)[1].strip().rstrip("/"))
        return 0

    def peak_rss_mb(self) -> Optional[float]:
        return common.process_peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=15)
        self._log.close()


def request(host: str, port: int, method: str, path: str, body: bytes = None):
    """One HTTP round trip on a fresh connection; ``(status, raw body)``."""
    conn = http.client.HTTPConnection(host, port, timeout=HTTP_TIMEOUT_S)
    try:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        conn.request(method, path, body=body, headers=headers)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


# ----------------------------------------------------------------------
# the request script
# ----------------------------------------------------------------------
def ladder(seconds: float) -> List[Dict[str, Any]]:
    """Rate, duration and request count of every step."""
    steps = []
    for index, (rate, share) in enumerate(LADDER):
        duration = seconds * share
        if index == 0:
            duration = max(duration, REFERENCE_SAMPLES / rate)
        steps.append({"rate": rate, "duration": duration,
                      "count": int(round(rate * duration))})
    return steps


def script(seconds: float, seed: int) -> List[Dict[str, Any]]:
    """Every request slot: step, due offset, class and what it refers to.

    Classes follow :data:`PATTERN`; the seed picks which earlier request
    each repeat and validation refers to. A delta refers to the newest
    eligible instance, so the planning work of a step is the same for
    every seed.
    """
    rng = np.random.default_rng([seed, 7])
    slots: List[Dict[str, Any]] = []
    position = 0
    t0 = 0.0
    for step_index, step in enumerate(ladder(seconds)):
        for k in range(step["count"]):
            if step_index == 0 and k < PREFIX_COLD:
                cls = "cold"
            else:
                cls = PATTERN[position % len(PATTERN)]
                position += 1
            slots.append({"index": len(slots), "step": step_index, "cls": cls,
                          "offset": k / step["rate"],
                          "t": t0 + k / step["rate"]})
        t0 += step["duration"]
    # New instances go out in pool order, so each step plans the same
    # instances whatever the seed.
    cold = [s for s in slots if s["cls"] == "cold"]
    for number, slot in enumerate(cold):
        slot["base"] = number
    validate_refs = [s["index"] for s in cold[:VALIDATE_TARGETS]]
    deltas = 0
    for slot in slots:
        if slot["cls"] == "cold":
            continue
        eligible = [
            s["index"] for s in cold
            if s["index"] <= slot["index"] - MIN_GAP_SLOTS
            and s["t"] <= slot["t"] - MIN_GAP_S
        ]
        if slot["cls"] == "validate":
            eligible = [i for i in eligible if i in validate_refs]
        else:
            eligible = eligible[-REUSE_WINDOW:]
        if not eligible:
            raise RuntimeError(f"slot {slot['index']} has no earlier request")
        if slot["cls"] == "delta":
            slot["ref"] = eligible[-1]
            slot["delta"] = deltas
            deltas += 1
        else:
            slot["ref"] = int(eligible[rng.integers(len(eligible))])
    return slots


def plan_body(instance_wire: Dict[str, Any], seed: int) -> bytes:
    from repro.serve.schemas import PLAN_REQUEST_FORMAT

    return json.dumps({"format": PLAN_REQUEST_FORMAT, "pipeline": PIPELINE,
                       "seed": seed, "mode": "sync",
                       "instance": instance_wire}).encode("utf-8")


def delta_body(topology: str, draw, seed: int) -> bytes:
    from repro.serve.schemas import PLAN_REQUEST_FORMAT

    delta = {"topology": topology, "sizes": draw.sizes.tolist(),
             "capacities": draw.capacities.tolist(),
             "x_old": draw.x_old.tolist(), "x_new": draw.x_new.tolist()}
    return json.dumps({"format": PLAN_REQUEST_FORMAT, "pipeline": PIPELINE,
                       "seed": seed, "mode": "sync",
                       "delta": delta}).encode("utf-8")


def validate_body(instance_wire: Dict[str, Any], schedule_wire) -> bytes:
    from repro.serve.schemas import VALIDATE_REQUEST_FORMAT

    return json.dumps({"format": VALIDATE_REQUEST_FORMAT, "instance": instance_wire,
                       "schedule": schedule_wire, "strict": True}).encode("utf-8")


class Inputs:
    """The generated pool and the request bodies of one run."""

    def __init__(self, slots, offsets: List[int]) -> None:
        from repro.io import instance_to_dict

        self.slots = slots
        cold = [s for s in slots if s["cls"] == "cold"]
        deltas = sum(1 for s in slots if s["cls"] == "delta")
        self.bases, self.draws, self.warmups, self.closed = workloads.serve_pool(
            offsets, len(cold), deltas)
        self.closed_seeds = [offsets[0] + workloads.SERVE_CLOSED_OFFSET + i
                             for i in range(len(self.closed))]
        self.base_seeds = [offsets[0] + i for i in range(len(cold))]
        self.draw_seeds = [offsets[1] + i for i in range(deltas)]
        self.wires = [instance_to_dict(inst) for inst in self.bases]
        self.bodies: Dict[int, bytes] = {}
        for slot in cold:
            self.bodies[slot["index"]] = plan_body(
                self.wires[slot["base"]], self.base_seeds[slot["base"]])

    def digests(self) -> Dict[str, List[str]]:
        return {name: [common.instance_digest(i) for i in pool]
                for name, pool in (("bases", self.bases), ("draws", self.draws),
                                   ("warmup", self.warmups),
                                   ("closed", self.closed))}

    def finish(self, library: Dict[int, Any]) -> None:
        """Bodies that need a topology hash or a planned schedule."""
        from repro.io import schedule_to_dict
        from repro.serve.cache import topology_hash

        by_index = {s["index"]: s for s in self.slots}
        for slot in self.slots:
            if slot["cls"] == "cached":
                self.bodies[slot["index"]] = self.bodies[slot["ref"]]
            elif slot["cls"] == "delta":
                base = by_index[slot["ref"]]["base"]
                self.bodies[slot["index"]] = delta_body(
                    topology_hash(self.bases[base].costs),
                    self.draws[slot["delta"]],
                    self.draw_seeds[slot["delta"]])
            elif slot["cls"] == "validate":
                base = by_index[slot["ref"]]["base"]
                self.bodies[slot["index"]] = validate_body(
                    self.wires[base], schedule_to_dict(library[base]))

    def path(self, slot) -> str:
        return "/v1/validate" if slot["cls"] == "validate" else "/v1/plan"

    def instance_of(self, slot, by_index):
        """The instance a plan slot's schedule must be checked against."""
        from repro.model.instance import RtspInstance

        if slot["cls"] == "cold":
            return self.bases[slot["base"]]
        ref = by_index[slot["ref"]]
        if slot["cls"] == "cached":
            return self.instance_of(ref, by_index)
        draw = self.draws[slot["delta"]]
        base = self.bases[ref["base"]]
        return RtspInstance.create(draw.sizes, draw.capacities, base.costs,
                                   draw.x_old, draw.x_new)


# ----------------------------------------------------------------------
# the load generator
# ----------------------------------------------------------------------
def drive(server: ServerProcess, inputs: Inputs, seconds: float, connections: int,
          rec: Optional[common.SpanRecorder], speed: common.HostSpeed,
          pace: float):
    """Send every slot at its due time, its offset in reference seconds
    divided by ``pace`` (reference seconds per wall second); steps run
    back to back, each starting once the previous one has drained. The
    host speed is sampled between steps, while no request is in flight."""
    results: List[Dict[str, Any]] = []
    speed.sample()
    lock = threading.Lock()
    # A client learns a topology hash from the response to its first
    # request, so a delta is not sent before that response is back.
    answered = {s["index"]: threading.Event() for s in inputs.slots}
    for step_index, _ in enumerate(ladder(seconds)):
        pending = deque(s for s in inputs.slots if s["step"] == step_index)
        start = time.perf_counter() + 0.05

        def worker() -> None:
            while True:
                with lock:
                    if not pending:
                        return
                    slot = pending.popleft()
                due = start + slot["offset"] / pace
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                if slot["cls"] == "delta":
                    answered[slot["ref"]].wait(timeout=HTTP_TIMEOUT_S)
                body = inputs.bodies[slot["index"]]
                sent = time.perf_counter()
                try:
                    status, raw = request(server.host, server.port, "POST",
                                          inputs.path(slot), body)
                    error = None
                except (OSError, http.client.HTTPException) as exc:
                    status, raw, error = None, b"", f"transport: {exc!r}"
                done = time.perf_counter()
                record = {"slot": slot, "due": due, "sent": sent, "done": done,
                          "status": status, "raw": raw, "error": error,
                          "req_bytes": len(body)}
                if rec is not None:
                    rec.add_span("request", due, done, request=slot["index"],
                                 cls=slot["cls"], step=slot["step"],
                                 children=(("generator.wait", due, sent),
                                           ("http", sent, done)))
                with lock:
                    results.append(record)
                answered[slot["index"]].set()

        threads = [threading.Thread(target=worker, name=f"load-{i}")
                   for i in range(connections)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=LOAD_TIMEOUT_S)
            if thread.is_alive():
                raise RuntimeError("load thread did not finish")
        speed.sample()
    results.sort(key=lambda r: r["slot"]["index"])
    return results


# ----------------------------------------------------------------------
# checking the responses
# ----------------------------------------------------------------------
def check_responses(inputs: Inputs, results, library: Dict[int, Any], report):
    """Schema, replay, cost and byte-identity checks; returns per-record
    payloads (``None`` for failures) and the summed cost of new plans."""
    from repro.exact.validate import check_invariants
    from repro.io import schedule_from_dict, schedule_to_dict
    from repro.serve import canonical_json
    from repro.serve.cache import topology_hash
    from repro.serve.schemas import (PLAN_RESPONSE_FORMAT, VALIDATE_RESPONSE_FORMAT,
                                     check_response_format)

    by_index = {s["index"]: s for s in inputs.slots}
    first_bytes: Dict[str, str] = {}
    cold_cost = 0.0
    payloads = []
    sampled = set()
    for record in results:
        slot = record["slot"]
        what = f"request {slot['index']} ({slot['cls']})"
        payload = None
        try:
            if record["error"] or record["status"] != 200:
                raise ValueError(record["error"] or f"status {record['status']}: "
                                 f"{record['raw'][:200]!r}")
            payload = json.loads(record["raw"])
            if slot["cls"] == "validate":
                check_response_format(payload, VALIDATE_RESPONSE_FORMAT)
                _check_validate(inputs, slot, by_index, payload, library,
                                check_invariants)
                sampled.add("validate")
            else:
                check_response_format(payload, PLAN_RESPONSE_FORMAT)
                instance = inputs.instance_of(slot, by_index)
                text = canonical_json(payload["schedule"])
                key = payload["fingerprint"]
                if key in first_bytes:
                    if first_bytes[key] != text:
                        raise ValueError("replayed schedule differs from the first")
                else:
                    first_bytes[key] = text
                    schedule = schedule_from_dict(payload["schedule"])
                    problems = common.check_schedule(instance, schedule, what)
                    if problems:
                        raise ValueError("; ".join(problems))
                    cost, _ = common.recomputed_cost(instance, schedule)
                    if abs(cost - payload["cost"]) > 1e-6 * max(1.0, cost):
                        raise ValueError(f"cost {payload['cost']} != {cost}")
                if slot["cls"] == "cold":
                    cold_cost += common.recomputed_cost(
                        instance, schedule_from_dict(payload["schedule"]))[0]
                    if payload["topology"] != topology_hash(instance.costs):
                        raise ValueError("topology hash differs from the client's")
                if slot["cls"] not in sampled:
                    ref = library_schedule(slot, by_index, inputs, library)
                    if canonical_json(schedule_to_dict(ref)) != text:
                        raise ValueError("schedule differs from the library path")
                    sampled.add(slot["cls"])
        except (ValueError, KeyError, TypeError) as exc:
            report.fail(f"{what}: {exc}")
            payload = None
        payloads.append(payload)
    missing = set(CLASSES) - sampled
    if missing:
        report.fail(f"no library-path comparison for {sorted(missing)}")
    return payloads, cold_cost


def library_schedule(slot, by_index, inputs: Inputs, library):
    """The in-process schedule of a plan slot, planned on first use."""
    from repro.core.pipeline import build_pipeline

    if slot["cls"] == "cached":
        return library_schedule(by_index[slot["ref"]], by_index, inputs, library)
    if slot["cls"] == "cold":
        key, seed = slot["base"], inputs.base_seeds[slot["base"]]
    else:
        key, seed = ("delta", slot["delta"]), inputs.draw_seeds[slot["delta"]]
    if key not in library:
        library[key] = build_pipeline(PIPELINE).run(
            inputs.instance_of(slot, by_index), rng=seed)
    return library[key]


def _check_validate(inputs, slot, by_index, payload, library, check_invariants):
    base = by_index[slot["ref"]]["base"]
    local = check_invariants(inputs.bases[base], library[base])
    if payload["ok"] is not True or not local.ok:
        raise ValueError(f"strict validation rejected a valid schedule: "
                         f"{payload.get('violations')}")
    if (abs(payload["cost"] - local.cost) > 1e-6 * max(1.0, local.cost)
            or payload["dummy_transfers"] != local.dummy_transfers):
        raise ValueError("validate response disagrees with the local oracle")


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------
def boot(root: str, out_dir: str, workers: int,
         speed: common.HostSpeed) -> Tuple[ServerProcess, List[float]]:
    """Boot ``BOOTS`` servers in turn and keep the last; returns it and
    each boot's wall time to ``/healthz``."""
    server = None
    times = []
    for attempt in range(BOOTS):
        if server is not None:
            server.stop()
        speed.sample()
        server = ServerProcess(root, out_dir, workers, tag=str(attempt),
                               cpu=speed.cpu)
        try:
            times.append(server.wait_healthy())
        except RuntimeError:
            server.stop()
            raise
    speed.sample()
    return server, times


def warm_up(server: ServerProcess, inputs: Inputs, report) -> None:
    """Plan and strictly validate the warm-up instances, untimed, so the
    server's one-time lazy set-up is not charged to the first requests
    (a long-running service pays it once)."""
    from repro.io import instance_to_dict

    for index, instance in enumerate(inputs.warmups):
        wire = instance_to_dict(instance)
        report.attempted += 2
        status, raw = request(server.host, server.port, "POST", "/v1/plan",
                              plan_body(wire, index))
        if status != 200:
            report.fail(f"warm-up plan {index}: status {status}")
            return
        schedule = json.loads(raw)["schedule"]
        status, raw = request(server.host, server.port, "POST", "/v1/validate",
                              validate_body(wire, schedule))
        if status != 200 or not json.loads(raw)["ok"]:
            report.fail(f"warm-up validate {index}: status {status}")


def closed_loop(server: ServerProcess, inputs: Inputs, speed: common.HostSpeed,
                report) -> Tuple[List[float], float, float]:
    """Plan each closed-loop instance on an otherwise idle service, one
    request at a time, sampling the host speed on the service's CPU
    between requests. Returns the wall latencies, the phase's speed
    factor and the summed recomputed cost of the served schedules."""
    from repro.io import instance_to_dict, schedule_from_dict
    from repro.serve.schemas import PLAN_RESPONSE_FORMAT, check_response_format

    first = len(speed.samples)
    latencies: List[float] = []
    cost = 0.0
    for index, instance in enumerate(inputs.closed):
        body = plan_body(instance_to_dict(instance), inputs.closed_seeds[index])
        speed.sample()
        report.attempted += 1
        t0 = time.perf_counter()
        try:
            status, raw = request(server.host, server.port, "POST", "/v1/plan", body)
        except (OSError, http.client.HTTPException) as exc:
            status, raw = None, repr(exc).encode()
        latency = time.perf_counter() - t0
        what = f"closed-loop request {index}"
        try:
            if status != 200:
                raise ValueError(f"status {status}: {raw[:200]!r}")
            payload = check_response_format(json.loads(raw), PLAN_RESPONSE_FORMAT)
            if payload["cache_hit"]:
                raise ValueError("a new instance was served from the cache")
            schedule = schedule_from_dict(payload["schedule"])
            problems = common.check_schedule(instance, schedule, what)
            if problems:
                raise ValueError("; ".join(problems))
        except (ValueError, KeyError, TypeError) as exc:
            report.fail(f"{what}: {exc}")
            report.failed += 1
            continue
        latencies.append(latency)
        cost += common.recomputed_cost(instance, schedule)[0]
    speed.sample()
    return latencies, speed.factor(since=first), cost


def metrics_counts(server: ServerProcess) -> Dict[str, float]:
    """Plan-cache counters from ``/metrics`` (Prometheus text)."""
    status, raw = request(server.host, server.port, "GET", "/metrics")
    counts: Dict[str, float] = {}
    if status != 200:
        return counts
    for line in raw.decode("utf-8").splitlines():
        for name in ("hits", "misses"):
            if line.startswith(f"rtsp_serve_cache_plan_{name}_total "):
                counts[name] = float(line.split()[-1])
    return counts


def run(args, report, root: str, out_dir: str, rec=None) -> None:
    import batch
    from repro.core.pipeline import build_pipeline

    # The service gets a CPU of its own and the load generator the rest;
    # host-speed samples are taken on the service's CPU, whose speed is
    # what its latencies follow.
    cpus = sorted(os.sched_getaffinity(0))
    connections = len(cpus)
    os.sched_setaffinity(0, set(cpus[1:]) or set(cpus))
    speed = common.HostSpeed(cpu=cpus[0])
    slots = script(args.seconds, args.seed)
    gen_times = []
    inputs = None
    for _ in range(batch.SETUP_REPEATS):
        speed.sample()
        t0 = time.perf_counter()
        inputs = Inputs(slots, args.offsets)
        gen_times.append(time.perf_counter() - t0)
    digests = inputs.digests()
    report.check_pins(digests)
    report.meta["instance_digests"] = common.combined_digest(
        sum(digests.values(), []))
    if report.problems:
        return
    # The benchmark's own reference plans, outside every timed region.
    library: Dict[Any, Any] = {}
    library_s: Dict[int, float] = {}
    for slot in [s for s in slots if s["cls"] == "cold"][:VALIDATE_TARGETS]:
        base = slot["base"]
        t0 = time.perf_counter()
        library[base] = build_pipeline(PIPELINE).run(
            inputs.bases[base], rng=inputs.base_seeds[base])
        library_s[base] = time.perf_counter() - t0
    inputs.finish(library)

    server, boot_times = boot(root, out_dir, SERVER_WORKERS, speed)
    try:
        warm_up(server, inputs, report)
        closed, closed_factor, closed_cost = closed_loop(server, inputs, speed,
                                                          report)
        # Offered rates are in reference requests per second: on a host
        # running slower than the reference, requests go out
        # proportionally slower, so each step sits at the same share of
        # the service's capacity however fast the host is today.
        pace = speed.factor()
        report.meta["pace"] = pace
        results = drive(server, inputs, args.seconds, connections, rec, speed,
                        pace)
        report.attempted += len(results)
        metric_counts = metrics_counts(server)
        server_rss = server.peak_rss_mb()
    finally:
        server.stop()
    payloads, cold_cost = check_responses(inputs, results, library, report)
    report.failed += sum(1 for p in payloads if p is None)
    factor = speed.factor()
    summarize(args, report, inputs, results, payloads, cold_cost + closed_cost,
              factor, server_rss, metric_counts, connections)
    if not args.trace:
        stats = common.summarize([x * closed_factor for x in closed])
        facts = dict(stats, speed_factor=closed_factor,
                     wall=common.summarize(closed))
        report.metric("plan_s", stats["median"], "s", facts)
        report.metric("tail_s", stats.get("tail", stats["max"]), "s",
                      dict(facts, tail_rule=stats.get("tail_q", "max")))
    if not args.trace:
        setup = [(g + b) * factor for g, b in zip(gen_times, boot_times)]
        report.metric("setup_s", statistics.median(setup), "s",
                      dict(common.summarize(setup), generate_s=gen_times,
                           boot_s=boot_times, speed_factor=factor))
    else:
        library_layers(report, inputs, rec, library, library_s)


def summarize(args, report, inputs, results, payloads, cold_cost, factor,
              server_rss, metric_counts, connections) -> None:
    """The ladder's sustained rate (in reference units, wall figures in
    the run facts) and, when traced, the serve layers."""
    steps = []
    for step_index, step in enumerate(ladder(args.seconds)):
        rows = [(r, p) for r, p in zip(results, payloads)
                if r["slot"]["step"] == step_index]
        ok = [r for r, p in rows if p is not None]
        latencies, lags = common.open_loop_latencies(
            (r["due"], r["sent"], r["done"]) for r in ok)
        steps.append(dict(step, latencies=[x * factor for x in latencies],
                          wall_latencies=latencies, lags=lags,
                          failed=len(rows) - len(ok),
                          growing=common.backlog_growing(
                              [r["due"] for r, _ in rows],
                              [r["done"] for r, _ in rows], connections),
                          wall_rate=common.completion_rate([r["done"] for r in ok]),
                          rows=rows))
    ref = steps[0]
    # The limit applies to the latency callers see: wall seconds.
    best = common.max_sustained_rate(
        [dict(s, latencies=s["wall_latencies"]) for s in steps],
        LATENCY_LIMIT_S, 90.0)
    report.meta["ladder"] = [
        {"rate": s["rate"], "n": len(s["rows"]), "failed": s["failed"],
         "growing": s["growing"], "wall_rate": s["wall_rate"],
         "wall_p90": common.percentile(s["wall_latencies"], 90.0)
         if s["latencies"] else None} for s in steps]
    if args.trace:
        serve_layers(report, ref, metric_counts, results, payloads,
                     warmup_plans=len(inputs.warmups))
        return
    report.metric("throughput_rps", best["wall_rate"] / factor if best else 0.0, "1/s",
                  {"n": len(best["rows"]) if best else 0,
                   "rate": best["rate"] if best else None,
                   "limit_s": LATENCY_LIMIT_S})
    report.metric("plan_cost", cold_cost, "cost",
                  {"n": len(inputs.closed)
                   + sum(1 for s in inputs.slots if s["cls"] == "cold")})
    report.metric("peak_rss_mb", server_rss or 0.0, "MiB", {"n": 1})


def serve_layers(report, ref, metric_counts, results, payloads,
                 warmup_plans: int) -> None:
    rows = [(r, p) for r, p in ref["rows"] if p is not None]
    stats = common.summarize(ref["wall_latencies"])
    report.metric("serve.p90_s", stats.get("tail", stats["max"]), "s",
                  dict(stats, rate=ref["rate"], tail_rule=stats.get("tail_q", "max")))
    for cls in CLASSES:
        lat = [r["done"] - r["due"] for r, p in rows if r["slot"]["cls"] == cls]
        report.metric(f"serve.{cls}.p50_s", statistics.median(lat) if lat else 0.0,
                      "s", {"n": len(lat)})
    cold = [(r, p) for r, p in rows if r["slot"]["cls"] in ("cold", "delta")
            and not p["cache_hit"]]
    jobs = [p["elapsed_seconds"] for _, p in cold]
    overheads = [(r["done"] - r["sent"]) - p["elapsed_seconds"] for r, p in cold]
    report.metric("serve.job.s", statistics.median(jobs) if jobs else 0.0, "s",
                  {"n": len(jobs)})
    report.metric("serve.overhead.s",
                  statistics.median(overheads) if overheads else 0.0, "s",
                  {"n": len(overheads)})
    plans = [p for r, p in zip(results, payloads)
             if p is not None and r["slot"]["cls"] != "validate"]
    hits = sum(1 for p in plans if p["cache_hit"])
    report.metric("serve.cache_hit_share", hits / len(plans) if plans else 0.0,
                  "ratio", {"n": len(plans), "hits": hits})
    # /metrics counts every plan the server ran, warm-up included; its
    # miss counter is read beside the responses' own cache_hit fields.
    m_hits, m_misses = metric_counts.get("hits", 0.0), metric_counts.get("misses", 0.0)
    response_misses = len(plans) - hits + warmup_plans
    report.metric("serve.metrics_hit_share",
                  m_hits / (m_hits + m_misses) if m_hits + m_misses else 0.0,
                  "ratio", {"n": len(plans), "hits": m_hits, "misses": m_misses,
                            "response_misses": response_misses,
                            "misses_per_response_miss":
                                m_misses / response_misses if response_misses else None})
    lags = ref["lags"]
    report.metric("serve.generator_lag_s",
                  common.percentile(lags, 90.0) if lags else 0.0, "s",
                  {"n": len(lags), "percentile": 90})
    series = common.backlog_series([r["due"] for r, _ in ref["rows"]],
                                   [r["done"] for r, _ in ref["rows"]])
    report.metric("serve.backlog_max", max(level for _, level in series), "count",
                  {"n": len(ref["rows"]), "rate": ref["rate"]})
    report.metric("serve.req_bytes",
                  statistics.median(r["req_bytes"] for r in results), "bytes",
                  {"n": len(results)})
    report.metric("serve.resp_bytes",
                  statistics.median(len(r["raw"]) for r in results), "bytes",
                  {"n": len(results)})


def library_layers(report, inputs: Inputs, rec, library, library_s) -> None:
    """Stage, oracle, io and partition layers on the instances the
    benchmark planned itself, re-planned through the traced stages."""
    import batch

    tally = batch.StageTally()
    layers: Dict[str, List[float]] = {key: [] for key in batch.LAYER_LISTS}
    first = len(rec.spans)
    for base in sorted(library_s):
        traced, problems = batch.traced_request(
            rec, tally, f"serve-mix/library/{base}", inputs.bases[base],
            inputs.base_seeds[base], layers)
        report.problems += problems
        if common.schedule_digest(traced) != common.schedule_digest(library[base]):
            report.fail("traced stage-by-stage schedule differs from the pipeline's")
    traced_s, stage_s = batch.traced_layers(report, rec, tally, layers, first, 1,
                                            "pipeline")
    untraced_s = sum(library_s.values())
    report.metric("shard.pool_speedup", 0.0, "ratio", {"n": 0})
    report.metric("trace.overhead_s", traced_s - untraced_s, "s",
                  {"n": len(library_s), "traced_plan_s": traced_s,
                   "stage_s": stage_s, "untraced_plan_s": untraced_s})
