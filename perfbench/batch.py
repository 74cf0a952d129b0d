"""The batch workloads: paper-tight, large-single and fleet-sharded.

Untraced runs time whole passes through the public entry points
(``build_pipeline(spec).run`` and ``plan_sharded``). Traced runs add
spans around the calls into each layer, from outside the planner:
``get_builder(...).build`` and each ``get_optimizer(...).optimize`` with
the generator sequence ``Pipeline.run`` uses, then the oracle, the
replay check, the partitioner and the io functions.
"""

from __future__ import annotations

import statistics
import time
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

import common
import workloads
from workloads import PIPELINE

SETUP_REPEATS = 3
#: untraced plan_sharded repetitions per worker count in a traced run
POOL_REPEATS = 3

STAGES = PIPELINE.split("+")


# ----------------------------------------------------------------------
# traced planning, one layer per span
# ----------------------------------------------------------------------
class StageTally:
    """Per-stage outcome counts summed over every traced pipeline run."""

    def __init__(self) -> None:
        self.golcf_actions = 0
        self.dummies: Dict[str, int] = {stage: 0 for stage in STAGES}
        self.h2_cost = 0.0
        self.op1_cost = 0.0

    def per_layer(self) -> Dict[str, float]:
        first, h1 = self.dummies[STAGES[0]], self.dummies["H1"]
        removed = (first - h1) / first if first else 0.0
        saved = (self.h2_cost - self.op1_cost) / self.h2_cost if self.h2_cost else 0.0
        return {
            "stage.GOLCF.actions": self.golcf_actions,
            "stage.GOLCF.dummy_transfers": first,
            "stage.H1.dummies_removed_ratio": removed,
            "stage.OP1.cost_saved_ratio": saved,
            "plan.dummy_transfers": self.dummies[STAGES[-1]],
        }


def traced_pipeline_run(rec: common.SpanRecorder, tally: StageTally, instance, rng):
    """``Pipeline.run`` stage by stage, each stage in a ``stage`` span."""
    from repro.core.base import get_builder, get_optimizer
    from repro.util.rng import ensure_rng

    gen = ensure_rng(rng)
    with rec.span("pipeline", pipeline=PIPELINE):
        schedule = None
        for stage in STAGES:
            with rec.span("stage", stage=stage):
                if schedule is None:
                    schedule = get_builder(stage).build(instance, rng=gen)
                else:
                    schedule = get_optimizer(stage).optimize(
                        instance, schedule, rng=gen
                    )
            # Outcome counts sit in the pipeline span's self time.
            tally.dummies[stage] += schedule.count_dummy_transfers(instance)
            if stage == STAGES[0]:
                tally.golcf_actions += len(schedule)
            elif stage == "H2":
                tally.h2_cost += schedule.cost(instance)
            elif stage == "OP1":
                tally.op1_cost += schedule.cost(instance)
    return schedule


def make_traced_pipeline(rec: common.SpanRecorder, tally: StageTally):
    """A :class:`Pipeline` whose ``run`` is :func:`traced_pipeline_run`,
    so ``plan_sharded`` plans every part through the traced stages."""
    from repro.core.pipeline import Pipeline, build_pipeline

    class TracedPipeline(Pipeline):
        def run(self, instance, rng=None):
            return traced_pipeline_run(rec, tally, instance, rng)

    plain = build_pipeline(PIPELINE)
    return TracedPipeline(plain.builder, plain.optimizers, name=plain.name)


def traced_checks(rec: common.SpanRecorder, instance, schedule, io_bytes: List[int]):
    """Oracle, replay and serialization of one schedule, each in a span."""
    from repro.exact.validate import check_invariants
    from repro.io import schedule_to_dict
    from repro.serve import canonical_json

    with rec.span("validate.replay"):
        replay = schedule.validate(instance)
    with rec.span("validate.strict"):
        strict = check_invariants(instance, schedule)
    with rec.span("io.serialize"):
        text = canonical_json(schedule_to_dict(schedule))
    io_bytes.append(len(text.encode("utf-8")))
    problems = []
    if not replay.ok:
        problems.append(f"traced replay failed: {replay.message}")
    if not strict.ok:
        problems.append(f"strict oracle failed: {strict.summary()}")
    return problems


def traced_parse(rec: common.SpanRecorder, instance):
    """``instance_from_dict`` of the instance's wire form, in a span."""
    from repro.io import instance_from_dict, instance_to_dict

    wire = instance_to_dict(instance)
    with rec.span("io.parse"):
        parsed = instance_from_dict(wire)
    if common.instance_digest(parsed) != common.instance_digest(instance):
        return ["io round trip changed the instance"]
    return []


def traced_request(rec, tally, request_id, instance, seed, layers):
    """One instance through every layer, as a traced pass runs it.

    Planning goes through ``plan_sharded(workers=1, validate=False)`` on
    a partition made beforehand, with the traced pipeline planning each
    part; on a one-part instance that is ``Pipeline.run`` itself, so the
    schedule equals ``build_pipeline(spec).run(instance, rng=seed)``.
    """
    from repro.analysis.quality import lpt_imbalance
    from repro.shard import plan_sharded
    from repro.shard.partition import resolve_partition

    with rec.span("request", request=request_id):
        problems = traced_parse(rec, instance)
        with rec.span("shard.partition"):
            partition = resolve_partition(instance)
        with rec.span("plan_sharded", workers=1) as span:
            plan = plan_sharded(
                instance,
                make_traced_pipeline(rec, tally),
                workers=1,
                rng=seed,
                validate=False,
                partitioner=partition,
            )
        seconds = [stat.seconds for stat in plan.stats]
        layers["shard.parts"].append(len(partition.parts))
        layers["shard.plan.sum_s"].append(sum(seconds))
        layers["shard.plan.max_s"].append(max(seconds))
        layers["shard.overhead_s"].append(
            span["wall"][1] - span["wall"][0] - sum(seconds)
        )
        layers["shard.lpt_imbalance"].append(lpt_imbalance(plan.partition, plan.shards))
        problems += traced_checks(rec, instance, plan.schedule, layers["io.schedule_bytes"])
    return plan.schedule, problems


# ----------------------------------------------------------------------
# workload definitions
# ----------------------------------------------------------------------
class BatchWorkload:
    """Instances and one timed pass through the public call."""

    name = ""

    def __init__(self, seeds: List[int], workers: int) -> None:
        self.seeds = seeds
        self.workers = workers
        #: ``(instance, pipeline seed)`` in the order schedules come back
        self.items: List[Tuple[Any, int]] = []

    def generate(self) -> None:
        raise NotImplementedError

    def digests(self) -> List[str]:
        return [common.instance_digest(inst) for inst, _ in self.items]

    def plan_pass(self, order: Sequence[int], before_each=None) -> Tuple[List[Any], float]:
        """Plan every instance once, in ``order``. Returns the schedules in
        instance order and the seconds spent in the planning calls;
        ``before_each`` runs untimed before every call."""
        from repro.core.pipeline import build_pipeline

        out: List[Any] = [None] * len(self.items)
        seconds = 0.0
        for index in order:
            if before_each is not None:
                before_each()
            instance, seed = self.items[index]
            t0 = time.perf_counter()
            out[index] = build_pipeline(PIPELINE).run(instance, rng=seed)
            seconds += time.perf_counter() - t0
        return out, seconds

    def twin_pass(self) -> Tuple[List[Any], float]:
        """The untraced twin of the traced pass's planning calls: its
        schedules and the seconds they took."""
        return self.plan_pass(range(len(self.items)))


class PaperTight(BatchWorkload):
    name = "paper-tight"

    def generate(self) -> None:
        self.items = workloads.paper_tight(self.seeds)


class LargeSingle(BatchWorkload):
    name = "large-single"

    def generate(self) -> None:
        self.items = workloads.large_single(self.seeds)


class FleetSharded(BatchWorkload):
    name = "fleet-sharded"

    def generate(self) -> None:
        self.blocks = workloads.fleet_blocks(self.seeds)
        self.items = [(workloads.compose_fleet(self.blocks), 0)]

    def digests(self) -> List[str]:
        return [common.instance_digest(b) for b in self.blocks] + super().digests()

    def sharded(self, workers: int, validate: bool, **kwargs):
        from repro.shard import plan_sharded

        instance, seed = self.items[0]
        return plan_sharded(
            instance, PIPELINE, workers=workers, rng=seed, validate=validate,
            **kwargs,
        )

    def plan_pass(self, order: Sequence[int], before_each=None) -> Tuple[List[Any], float]:
        if before_each is not None:
            before_each()
        t0 = time.perf_counter()
        plan = self.sharded(self.workers, validate=True)
        return [plan.schedule], time.perf_counter() - t0

    def twin_pass(self) -> Tuple[List[Any], float]:
        from repro.shard.partition import resolve_partition

        partition = resolve_partition(self.items[0][0])
        t0 = time.perf_counter()
        plan = self.sharded(1, validate=False, partitioner=partition)
        return [plan.schedule], time.perf_counter() - t0


WORKLOADS = {cls.name: cls for cls in (PaperTight, LargeSingle, FleetSharded)}

#: per-layer lists filled by :func:`traced_request`
LAYER_LISTS = ("shard.parts", "shard.plan.sum_s", "shard.plan.max_s",
               "shard.overhead_s", "shard.lpt_imbalance", "io.schedule_bytes")
#: span layers reported as self time
SPAN_LAYERS = ("validate.strict", "validate.replay", "io.parse", "io.serialize",
               "shard.partition")


# ----------------------------------------------------------------------
# running
# ----------------------------------------------------------------------
def setup(work: BatchWorkload, report, speed: common.HostSpeed) -> List[float]:
    """Generate the instances ``SETUP_REPEATS`` times, sampling the host
    speed around each; returns the wall times, then checks digests."""
    times = []
    for _ in range(SETUP_REPEATS):
        speed.sample()
        t0 = time.perf_counter()
        work.generate()
        times.append(time.perf_counter() - t0)
    speed.sample()
    digests = work.digests()
    report.meta["instance_digests"] = common.combined_digest(digests)
    report.check_pins(digests)
    return times


def pass_order(seed: int, pass_index: int, count: int) -> List[int]:
    """The seeded order in which a pass plans the instances."""
    rng = np.random.default_rng([seed, pass_index])
    return [int(i) for i in rng.permutation(count)]


def digests_of(schedules: Sequence[Any]) -> List[str]:
    return [common.schedule_digest(s) for s in schedules]


def check_outputs(work: BatchWorkload, schedules: Sequence[Any], report) -> float:
    """Replay, X_new and cost checks; returns the recomputed total cost."""
    total = 0.0
    for index, ((instance, _), schedule) in enumerate(zip(work.items, schedules)):
        report.problems += common.check_schedule(
            instance, schedule, f"{work.name} instance {index}"
        )
        total += common.recomputed_cost(instance, schedule)[0]
    return total


def run_untraced(work: BatchWorkload, args, report) -> None:
    speed = common.HostSpeed()
    setup_times = setup(work, report, speed)
    if report.problems:
        return
    count = len(work.items)
    walls: List[float] = []
    reference: List[str] = []
    schedules: List[Any] = []
    started = time.perf_counter()
    while not walls or time.perf_counter() - started < args.seconds:
        order = pass_order(args.seed, len(walls), count)
        report.attempted += count
        schedules, wall = work.plan_pass(order, before_each=speed.sample)
        for _ in range(3):
            speed.sample()
        walls.append(wall)
        digests = digests_of(schedules)
        if not reference:
            reference = digests
        elif digests != reference:
            report.fail(f"pass {len(walls)} schedules differ from pass 1")
    cost = check_outputs(work, schedules, report)
    if isinstance(work, FleetSharded):
        report.attempted += 1
        if digests_of(work.twin_pass()[0]) != reference:
            report.fail(f"workers=1 and workers={work.workers} schedules differ")
    report.meta["schedule_digest"] = common.combined_digest(reference)

    factor = speed.factor()
    passes = [wall * factor for wall in walls]
    stats = dict(common.summarize(passes), speed_factor=factor,
                 speed_samples=len(speed.samples), wall=common.summarize(walls))
    report.metric("plan_s", stats["median"], "s", stats)
    report.metric("tail_s", stats.get("tail", stats["max"]), "s",
                  dict(stats, tail_rule=stats.get("tail_q", "max")))
    report.metric("throughput_rps", count * len(passes) / sum(passes), "1/s",
                  {"n": len(passes), "instances_per_pass": count,
                   "wall": count * len(walls) / sum(walls)})
    report.metric("plan_cost", cost, "cost", {"n": count})
    report.metric("peak_rss_mb", common.peak_rss_mb(), "MiB", {"n": 1})
    setup_ref = [wall * factor for wall in setup_times]
    report.metric("setup_s", statistics.median(setup_ref), "s",
                  dict(common.summarize(setup_ref), wall=setup_times))


def traced_layers(report, rec, tally: StageTally, layers, first_span: int,
                  passes: int, root: str) -> Tuple[float, float]:
    """Report every layer a traced pass measured, per pass; returns the
    traced planning time per pass (the ``root`` spans: what the untraced
    twin pass times) and the stage spans' share of it."""
    spans = rec.spans[first_span:]
    own = common.self_times(spans)
    n = {"n": passes}
    for stage in STAGES:
        report.metric(f"stage.{stage}.s", own.get(f"stage.{stage}", 0.0) / passes, "s", n)
    for key, value in tally.per_layer().items():
        ratio = key.endswith("ratio")
        report.metric(key, value if ratio else value / passes,
                      "ratio" if ratio else "count", n)
    for key in SPAN_LAYERS:
        report.metric(f"{key}.s", own.get(key, 0.0) / passes, "s", n)
    for key in ("shard.parts", "shard.plan.sum_s", "shard.overhead_s",
                "io.schedule_bytes"):
        unit = "s" if key.endswith("_s") else ("bytes" if "bytes" in key else "count")
        report.metric(key, sum(layers[key]) / passes, unit, n)
    report.metric("shard.plan.max_s", max(layers["shard.plan.max_s"]), "s", n)
    report.metric("shard.lpt_imbalance", max(layers["shard.lpt_imbalance"]), "ratio", n)
    planned = sum(s["wall"][1] - s["wall"][0] for s in spans if s["name"] == root)
    stages = sum(own.get(f"stage.{stage}", 0.0) for stage in STAGES)
    return planned / passes, stages / passes


def run_traced(work: BatchWorkload, args, report, rec) -> None:
    setup(work, report, common.HostSpeed())
    if report.problems:
        return
    count = len(work.items)
    untraced: List[float] = []
    tally = StageTally()
    layers: Dict[str, List[float]] = {key: [] for key in LAYER_LISTS}
    first_span = len(rec.spans)
    passes = 0
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < args.seconds:
        report.attempted += 2 * count
        plain, seconds = work.twin_pass()
        untraced.append(seconds)
        traced = []
        for index, (instance, seed) in enumerate(work.items):
            schedule, problems = traced_request(
                rec, tally, f"{work.name}/pass{passes}/{index}", instance, seed,
                layers,
            )
            traced.append(schedule)
            report.problems += problems
        passes += 1
        if digests_of(traced) != digests_of(plain):
            report.fail("traced stage-by-stage schedules differ from the pipeline's")
    report.meta["schedule_digest"] = common.combined_digest(digests_of(plain))
    check_outputs(work, plain, report)
    # The twin of a one-part instance is Pipeline.run, timed by the
    # ``pipeline`` span; the fleet's twin is the whole plan_sharded call.
    root = "plan_sharded" if isinstance(work, FleetSharded) else "pipeline"
    traced_s, stage_s = traced_layers(report, rec, tally, layers, first_span,
                                      passes, root)
    if isinstance(work, FleetSharded):
        pool_layers(work, report)
    else:
        report.metric("shard.pool_speedup", 0.0, "ratio", {"n": 0})
    report.zero_layers("serve.")
    report.metric("trace.overhead_s", traced_s - statistics.median(untraced), "s",
                  {"n": passes, "traced_plan_s": traced_s, "stage_s": stage_s,
                   "untraced_plan_s": statistics.median(untraced)})


def pool_layers(work: FleetSharded, report) -> None:
    """workers=1 over workers=nproc, untraced, ``validate=False``, on a
    partition made beforehand, alternating which runs first."""
    from repro.shard.partition import resolve_partition

    partition = resolve_partition(work.items[0][0])
    times: Dict[int, List[float]] = {1: [], work.workers: []}
    for rep in range(POOL_REPEATS):
        order = (1, work.workers) if rep % 2 == 0 else (work.workers, 1)
        for workers in order:
            report.attempted += 1
            t0 = time.perf_counter()
            work.sharded(workers, validate=False, partitioner=partition)
            times[workers].append(time.perf_counter() - t0)
    serial = statistics.median(times[1])
    pooled = statistics.median(times[work.workers])
    report.metric("shard.pool_speedup", serial / pooled, "ratio",
                  {"n": POOL_REPEATS, "workers": work.workers,
                   "serial_s": serial, "pooled_s": pooled})
