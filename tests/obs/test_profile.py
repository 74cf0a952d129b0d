"""Tests for the opt-in profilers."""

import pytest

from repro.obs.profile import (
    StageProfiler,
    profiled,
    timed,
    trace_memory,
)


class TestStageProfiler:
    def test_stage_accumulates(self):
        p = StageProfiler()
        with p.stage("build"):
            pass
        with p.stage("build"):
            pass
        assert set(p.laps) == {"build"}
        assert p.laps["build"] >= 0
        assert p.total == pytest.approx(sum(p.laps.values()))

    def test_lap_alias(self):
        p = StageProfiler()
        with p.lap("x"):
            pass
        assert "x" in p.laps

    def test_stage_exposes_seconds(self):
        p = StageProfiler()
        with p.stage("s") as stage:
            pass
        assert stage.seconds >= 0
        assert p.laps["s"] == pytest.approx(stage.seconds)

    def test_add_and_report(self):
        p = StageProfiler()
        p.add("long-name", 2.0)
        p.add("b", 1.0)
        report = p.report()
        assert report.splitlines()[0].startswith("long-name")
        assert "b" in report

    def test_empty_report(self):
        assert "no laps" in StageProfiler().report()

    def test_timed_decorator_records_on_exception(self):
        p = StageProfiler()

        @timed(p, "boom")
        def explode():
            raise RuntimeError

        with pytest.raises(RuntimeError):
            explode()
        assert "boom" in p.laps


class TestProfiled:
    def test_captures_stats(self):
        with profiled(limit=5) as report:
            sum(range(1000))
        assert report.stats is not None
        assert "function calls" in report.text

    def test_captures_on_exception(self):
        with pytest.raises(ValueError):
            with profiled() as report:
                raise ValueError
        assert report.stats is not None


class TestTraceMemory:
    def test_measures_allocation(self):
        with trace_memory() as snap:
            blob = [0] * 100_000
        assert snap.peak > 0
        del blob

    def test_nested_keeps_outer_session(self):
        import tracemalloc

        with trace_memory():
            with trace_memory() as inner:
                pass
            assert inner.peak >= 0
            assert tracemalloc.is_tracing()
        assert not tracemalloc.is_tracing()
