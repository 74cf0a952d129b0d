"""The shared deterministic work queue."""

import multiprocessing

import pytest

from repro.obs.context import current_metrics, current_tracer, observed
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.shard.pool import WorkQueue, fork_available


def _square(context, task):
    return (context or 0) + task * task


def _observed_square(context, task):
    registry = current_metrics()
    registry.counter("tasks").inc()
    with current_tracer().span("task", n=task):
        pass
    return task * task


class TestRun:
    def test_results_in_input_order(self):
        tasks = [5, 3, 1, 4]
        assert WorkQueue().run(_square, tasks) == [25, 9, 1, 16]

    def test_context_threaded_to_every_task(self):
        assert WorkQueue().run(_square, [1, 2], context=100) == [101, 104]

    def test_empty_tasks(self):
        assert WorkQueue(workers=4).run(_square, []) == []

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_worker_count_invariance(self, workers):
        serial = WorkQueue(workers=1).run(_square, list(range(7)))
        assert WorkQueue(workers=workers).run(_square, list(range(7))) == serial


class TestObservabilityMerge:
    @pytest.mark.parametrize("workers", [1, 3])
    def test_fragments_merge_identically(self, workers):
        registry = MetricsRegistry()
        tracer = Tracer()
        with observed(tracer=tracer, metrics=registry):
            WorkQueue(workers=workers).run(_observed_square, list(range(5)))
        assert registry.counter_values()["tasks"] == 5
        assert [s.attrs["n"] for s in tracer.spans] == list(range(5))

    def test_disabled_tracer_records_nothing(self):
        class Disabled:
            enabled = False
            spans = []

        registry = MetricsRegistry()
        with observed(tracer=Disabled(), metrics=registry):
            WorkQueue(workers=1).run(_square, [1, 2])
        assert Disabled.spans == []


class TestSerialFallback:
    def test_fork_available_on_posix(self):
        assert fork_available()

    def test_no_start_method_falls_back_loudly(self, monkeypatch):
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        assert not fork_available()
        lines = []
        queue = WorkQueue(workers=4, progress=lines.append)
        with pytest.warns(RuntimeWarning, match="falling back to serial"):
            results = queue.run(_square, [1, 2, 3])
        assert results == [1, 4, 9]
        assert any("falling back to serial" in line for line in lines)

    def test_broken_context_falls_back_loudly(self, monkeypatch):
        def no_fork(method=None):
            raise ValueError("cannot find context for 'fork'")

        monkeypatch.setattr(multiprocessing, "get_context", no_fork)
        assert not fork_available()
        with pytest.warns(RuntimeWarning, match="falling back to serial"):
            assert WorkQueue(workers=2).run(_square, [2, 3]) == [4, 9]
