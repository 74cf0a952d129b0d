#!/usr/bin/env python3
"""The planner's end-to-end benchmark: one workload per run.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper-tight --seed 0 --seconds 15 --trace 0

Every workload runs the paper's winning pipeline, ``GOLCF+H1+H2+OP1``,
through a public entry point and checks every output. With
``--trace 0`` the run prints the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` a separate traced run prints the
per-layer metrics, timed from outside the planner by spans around the
calls into each layer, and writes the spans as ``rtsp-trace/1`` JSONL
(``python -m repro.tools trace-summary <file>`` renders them).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is
0 when every check passed, 1 when an output check or the instance
digests failed, and 2 when the run was refused before measuring
(``RTSP_FLAT`` set, no planner sources beside the benchmark).

Host and run facts (CPU, versions, revision, seed, n and quartiles of
every metric, schedule digests) go to ``.perfbench/<run>.json``.
``--instances heldout`` measures the second, held-out instance sets;
``--write-pins`` regenerates ``pinned.json`` after a deliberate change
to the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PINS = os.path.join(HERE, "pinned.json")
OUT_DIR = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("paper-tight", "large-single", "fleet-sharded", "serve-mix")
#: Leading hex digits of each instance digest kept in ``pinned.json``.
PIN_DIGITS = 16
#: serve-mix pool pinned: enough for a 60-second run.
PIN_SERVE_SECONDS = 60


class Report:
    """Metrics, counts and problems of one run."""

    def __init__(self, declared: Dict[str, str], pins: Any) -> None:
        self.declared = declared
        self.pins = pins
        self.metrics: Dict[str, Dict[str, Any]] = {}
        self.stats: Dict[str, Dict[str, Any]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.meta: Dict[str, Any] = {}

    def metric(self, name: str, value: float, unit: str, stats: Dict[str, Any]) -> None:
        if name in self.metrics:
            self.fail(f"metric {name} reported twice")
        if self.declared.get(name, unit) != unit:
            self.fail(f"metric {name} in {unit}, declared in {self.declared[name]}")
        self.metrics[name] = {"value": float(value), "unit": unit}
        self.stats[name] = stats

    def zero_layers(self, prefix: str) -> None:
        """Report 0 for declared layers under ``prefix`` that this
        workload does not run (n=0 in the run facts)."""
        for name, unit in self.declared.items():
            if name.startswith(prefix) and name not in self.metrics:
                self.metric(name, 0.0, unit, {"n": 0, "layer_runs": False})

    def fail(self, problem: str) -> None:
        self.problems.append(problem)

    def check_pins(self, digests: Any) -> None:
        """Compare generated instance digests with ``pinned.json``.

        A dict of lists (serve-mix) is checked as prefixes: a run uses as
        much of the pinned pool as its length needs.
        """
        import common

        pinned = self.pins
        if isinstance(digests, dict):
            for key, values in digests.items():
                stored = (pinned or {}).get(key, [])
                if len(values) > len(stored):
                    self.fail(f"{key}: {len(values)} instances needed, "
                              f"{len(stored)} pinned")
                    continue
                self.problems += common.check_digests(
                    [d[:PIN_DIGITS] for d in values], stored[:len(values)], key)
            return
        self.problems += common.check_digests(
            [d[:PIN_DIGITS] for d in digests], pinned, "instances")

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0

    def result(self) -> Dict[str, Any]:
        return {
            "correct": self.correct,
            "attempted": max(1, int(self.attempted)),
            "failed": int(self.failed),
            "metrics": self.metrics,
        }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0,
                        help="orders the planning calls and shapes the request mix")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="how long the run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--instances", choices=("primary", "heldout"),
                        default="primary", help="which pinned instance set")
    parser.add_argument("--write-pins", action="store_true",
                        help="regenerate pinned.json and exit")
    args = parser.parse_args(argv)
    if not args.write_pins and args.workload is None:
        parser.error("--workload is required")
    return args


def declared_metrics(trace: int) -> Dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def write_pins() -> int:
    """Regenerate ``pinned.json`` from the current generators."""
    import batch
    import servemix
    import workloads

    pins: Dict[str, Dict[str, Any]] = {}
    for name, cls in batch.WORKLOADS.items():
        pins[name] = {}
        for which, seeds in workloads.SEED_SETS[name].items():
            work = cls(seeds, workers=1)
            work.generate()
            pins[name][which] = [d[:PIN_DIGITS] for d in work.digests()]
    pins["serve-mix"] = {}
    slots = servemix.script(PIN_SERVE_SECONDS, 0)
    for which, offsets in workloads.SEED_SETS["serve-mix"].items():
        inputs = servemix.Inputs(slots, offsets)
        pins["serve-mix"][which] = {
            key: [d[:PIN_DIGITS] for d in values]
            for key, values in inputs.digests().items()
        }
    with open(PINS, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {PINS}")
    return 0


def run_workload(args, report: Report, rec) -> None:
    import batch
    import common
    import servemix
    import workloads

    if args.workload == "serve-mix":
        args.offsets = workloads.SEED_SETS["serve-mix"][args.instances]
        servemix.run(args, report, ROOT, OUT_DIR, rec)
        return
    work = batch.WORKLOADS[args.workload](
        workloads.SEED_SETS[args.workload][args.instances], workers=common.nproc()
    )
    if args.trace:
        batch.run_traced(work, args, report, rec)
    else:
        batch.run_untraced(work, args, report)


def main(argv=None) -> int:
    args = parse_args(argv)
    if os.environ.get("RTSP_FLAT") is not None:
        print("refusing to run: RTSP_FLAT is set and would change which "
              "builder core runs", file=sys.stderr)
        return 2
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"refusing to run: no planner sources under {ROOT}/src",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import repro  # noqa: F401  (fail before measuring when it cannot load)

    if args.write_pins:
        return write_pins()

    import common

    with open(PINS, encoding="utf-8") as fh:
        pins = json.load(fh).get(args.workload, {}).get(args.instances)
    os.makedirs(OUT_DIR, exist_ok=True)
    report = Report(declared_metrics(args.trace), pins)
    rec = common.SpanRecorder() if args.trace else None
    started = time.perf_counter()
    try:
        run_workload(args, report, rec)
    except Exception as exc:  # noqa: BLE001 - reported as a failed run
        traceback.print_exc()
        report.fail(f"{type(exc).__name__}: {exc}")
        report.failed += 1
    missing = sorted(set(report.declared) - set(report.metrics))
    extra = sorted(set(report.metrics) - set(report.declared))
    if missing or extra:
        report.fail(f"metrics missing {missing}, undeclared {extra}")

    tag = f"{args.workload}-{args.instances}-seed{args.seed}-trace{args.trace}"
    facts = {
        "workload": args.workload,
        "instances": args.instances,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "wall_s": time.perf_counter() - started,
        "host": common.host_meta(ROOT),
        "attempted": report.attempted,
        "failed": report.failed,
        "error_rate": report.failed / max(1, report.attempted),
        "problems": report.problems,
        "metrics": {name: dict(report.metrics[name], stats=report.stats[name])
                    for name in report.metrics},
        **report.meta,
    }
    if rec is not None:
        trace_path = os.path.join(OUT_DIR, f"{tag}.trace.jsonl")
        rec.write(trace_path, {"workload": args.workload, "seed": args.seed})
        facts["trace_file"] = trace_path
    facts_path = os.path.join(OUT_DIR, f"{tag}.json")
    with open(facts_path, "w", encoding="utf-8") as fh:
        json.dump(facts, fh, indent=1, sort_keys=True, default=str)

    print(f"perfbench {tag}: {report.attempted} attempted, {report.failed} failed")
    for name, value in report.metrics.items():
        stats = report.stats[name]
        extra_stats = ", ".join(
            f"{k}={stats[k]:.6g}" for k in ("q1", "q3") if isinstance(stats.get(k), float)
        )
        print(f"  {name} = {value['value']:.6g} {value['unit']} "
              f"(n={stats.get('n')}{', ' + extra_stats if extra_stats else ''})")
    for problem in report.problems[:20]:
        print(f"  FAILED CHECK: {problem}")
    print(f"  run facts: {facts_path}")
    print(json.dumps(report.result()))
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())
