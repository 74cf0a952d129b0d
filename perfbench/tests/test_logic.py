"""Tests of the benchmark's own logic (run: python -m pytest perfbench/tests)."""

import math

import numpy as np
import pytest

import common
import run
import servemix


# ----------------------------------------------------------------------
# the percentile rule
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "n, expected",
    [(19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0),
     (10000, 99.9)],
)
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    assert common.tail_percentile(n) == expected


def test_nearest_rank_percentile_leaves_exactly_n_minus_rank_beyond():
    samples = list(range(1, 101))
    assert common.percentile(samples, 90.0) == 90
    assert sum(1 for s in samples if s > common.percentile(samples, 90.0)) == 10
    assert common.percentile(samples, 50.0) == 50
    with pytest.raises(ValueError):
        common.percentile([], 50.0)


def test_summarize_reports_median_quartiles_and_supported_tail():
    stats = common.summarize([float(i) for i in range(1, 101)])
    assert stats["n"] == 100 and stats["median"] == 50.5
    assert stats["tail_q"] == 90.0 and stats["tail"] == 90.0
    few = common.summarize([3.0, 1.0])
    assert "tail" not in few and few["max"] == 3.0


# ----------------------------------------------------------------------
# open-loop latency and generator lag
# ----------------------------------------------------------------------
def test_latency_counts_from_the_due_time_not_the_send_time():
    # A stall: three requests due 0.1 s apart all go out late and finish
    # together. Each is charged the whole wait since it was due.
    records = [(0.0, 0.6, 1.0), (0.1, 0.8, 1.0), (0.2, 0.9, 1.0)]
    latencies, lags = common.open_loop_latencies(records)
    assert latencies == pytest.approx([1.0, 0.9, 0.8])
    assert lags == pytest.approx([0.6, 0.7, 0.7])


def test_generator_lag_is_never_negative():
    _, lags = common.open_loop_latencies([(1.0, 0.999, 1.2)])
    assert lags == [0.0]


def test_backlog_growth_detects_overload_only():
    dues = [i * 0.1 for i in range(40)]
    steady = [d + 0.05 for d in dues]
    overloaded = [0.15 * (i + 1) for i in range(40)]
    assert not common.backlog_growing(dues, steady, connections=2)
    assert common.backlog_growing(dues, overloaded, connections=2)


def test_completion_rate_is_the_fitted_slope():
    dones = [0.5 + i / 15.0 for i in range(45)]
    dones[-1] += 0.3  # one slow last request barely moves it
    assert common.completion_rate(dones) == pytest.approx(15.0, rel=0.05)
    assert common.completion_rate([1.0, 2.0]) == 0.0


# ----------------------------------------------------------------------
# serve_max_rps selection
# ----------------------------------------------------------------------
def _step(rate, latencies, failed=0, growing=False):
    return {"rate": rate, "latencies": latencies, "failed": failed,
            "growing": growing}


def test_max_rate_is_the_highest_step_within_the_limit():
    steps = [_step(10, [0.1] * 100), _step(15, [0.2] * 100),
             _step(45, [0.5] * 100, growing=True)]
    assert common.max_sustained_rate(steps, 1.0)["rate"] == 15


def test_a_failed_request_is_a_miss():
    # Latencies alone would pass; the one failure disqualifies the step.
    steps = [_step(10, [0.1] * 100), _step(15, [0.2] * 99, failed=1)]
    assert common.max_sustained_rate(steps, 1.0)["rate"] == 10
    assert not common.step_passes(_step(15, [0.2] * 99, failed=1), 1.0, 90.0)


def test_tail_over_the_limit_fails_the_step():
    slow = _step(15, [0.2] * 80 + [1.5] * 20)
    assert not common.step_passes(slow, 1.0, 90.0)
    assert common.max_sustained_rate([slow], 1.0) is None


# ----------------------------------------------------------------------
# digests
# ----------------------------------------------------------------------
def test_check_digests_names_the_changed_instance():
    assert common.check_digests(["a", "b"], ["a", "b"], "set") == []
    (problem,) = common.check_digests(["a", "c"], ["a", "b"], "set")
    assert "instance 1" in problem
    assert common.check_digests(["a"], ["a", "b"], "set")
    assert common.check_digests(["a"], None, "set")


def test_instance_digest_sees_every_array():
    from repro.workloads import paper_instance

    inst = paper_instance(replicas=2, num_servers=6, num_objects=12, rng=3)
    same = paper_instance(replicas=2, num_servers=6, num_objects=12, rng=3)
    assert common.instance_digest(inst) == common.instance_digest(same)
    for name in ("sizes", "capacities", "costs", "x_old", "x_new"):
        array = getattr(same, name)
        array.setflags(write=True)
        flat = array.reshape(-1)
        old = flat[1]
        flat[1] = old + 1 if name not in ("x_old", "x_new") else 1 - old
        assert common.instance_digest(same) != common.instance_digest(inst), name
        flat[1] = old


def test_report_checks_pins_and_prefixes():
    report = run.Report({}, ["a" * 16, "b" * 16])
    report.check_pins(["a" * 64, "b" * 64])
    assert report.problems == []
    report.check_pins(["a" * 64, "c" * 64])
    assert report.problems and not report.correct

    pooled = run.Report({}, {"bases": ["a" * 16, "b" * 16, "c" * 16]})
    pooled.check_pins({"bases": ["a" * 64, "b" * 64]})
    assert pooled.problems == []
    pooled.check_pins({"bases": ["a" * 64] * 4})
    assert pooled.problems


# ----------------------------------------------------------------------
# spans and self time
# ----------------------------------------------------------------------
def _span(span_id, parent, name, lo, hi, **attrs):
    return {"type": "span", "id": span_id, "parent": parent, "name": name,
            "attrs": attrs, "counters": {}, "seq": [0, 0], "wall": [lo, hi]}


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(0, None, "request", 0.0, 10.0),
        _span(1, 0, "stage", 1.0, 3.0, stage="GOLCF"),
        _span(2, 0, "stage", 2.0, 5.0, stage="H1"),  # overlaps its sibling
        _span(3, 0, "io.parse", 8.0, 12.0),  # runs past the parent's end
    ]
    own = common.self_times(spans)
    assert own["request"] == pytest.approx(10.0 - (4.0 + 2.0))
    assert own["stage.GOLCF"] == pytest.approx(2.0)
    assert own["stage.H1"] == pytest.approx(3.0)
    assert own["io.parse"] == pytest.approx(4.0)


def test_recorded_spans_nest_carry_request_ids_and_validate(tmp_path):
    from repro.obs.trace import load_trace, validate_trace_file

    rec = common.SpanRecorder()
    with rec.span("request", request="w/0"):
        with rec.span("pipeline"):
            with rec.span("stage", stage="GOLCF"):
                pass
    rec.add_span("request", 1.0, 2.0, request=7,
                 children=(("generator.wait", 1.0, 1.2), ("http", 1.2, 2.0)))
    path = tmp_path / "t.jsonl"
    rec.write(str(path), {"workload": "test"})
    assert validate_trace_file(str(path)) == []
    _, spans = load_trace(str(path))
    by_name = {(s.name, s.attrs.get("request")): s for s in spans}
    stage = by_name[("stage", "w/0")]
    pipeline = by_name[("pipeline", "w/0")]
    assert stage.parent_id == pipeline.span_id
    assert by_name[("http", 7)].parent_id == by_name[("request", 7)].span_id


# ----------------------------------------------------------------------
# the serve-mix request script
# ----------------------------------------------------------------------
def test_script_refers_only_to_earlier_new_instances():
    slots = servemix.script(15, seed=3)
    by_index = {s["index"]: s for s in slots}
    assert all(s["cls"] == "cold" for s in slots[: servemix.PREFIX_COLD])
    for slot in slots:
        if slot["cls"] == "cold":
            continue
        ref = by_index[slot["ref"]]
        assert ref["cls"] == "cold"
        assert slot["index"] - ref["index"] >= servemix.MIN_GAP_SLOTS
        assert slot["t"] - ref["t"] >= servemix.MIN_GAP_S - 1e-9
    reference = servemix.ladder(15)[0]
    assert reference["count"] >= servemix.REFERENCE_SAMPLES


def test_script_planning_work_does_not_depend_on_the_seed():
    a, b = servemix.script(15, seed=1), servemix.script(15, seed=2)
    assert a == servemix.script(15, seed=1)
    key = [(s["cls"], s.get("base"), s.get("delta"),
            s["ref"] if s["cls"] == "delta" else None) for s in a]
    assert key == [(s["cls"], s.get("base"), s.get("delta"),
                    s["ref"] if s["cls"] == "delta" else None) for s in b]
    assert [s.get("ref") for s in a] != [s.get("ref") for s in b]


def test_script_keeps_reused_topologies_inside_the_server_cache():
    # Every topology touched between a base's first request and a delta on
    # it must fit the server's default 32-entry LRU topology cache.
    slots = servemix.script(60, seed=5)
    for slot in slots:
        if slot["cls"] != "delta":
            continue
        between = slots[slot["ref"]: slot["index"]]
        touched = {s["base"] if s["cls"] == "cold" else slots[s["ref"]]["base"]
                   for s in between if s["cls"] != "validate"}
        assert len(touched) <= 32


def test_recomputed_cost_matches_the_planner():
    from repro.core.pipeline import build_pipeline
    from repro.workloads import paper_instance

    inst = paper_instance(replicas=2, num_servers=8, num_objects=20, rng=2)
    schedule = build_pipeline("GOLCF+H1+H2+OP1").run(inst, rng=2)
    cost, dummies = common.recomputed_cost(inst, schedule)
    assert math.isclose(cost, schedule.cost(inst))
    assert dummies == schedule.count_dummy_transfers(inst)
    assert common.check_schedule(inst, schedule, "x") == []
    assert np.isfinite(cost)
