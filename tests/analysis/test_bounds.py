"""Tests for implementation-cost bounds."""

import numpy as np
import pytest

from repro.analysis.bounds import (
    nearest_source_bound,
    optimality_gap,
    universal_lower_bound,
    worst_case_upper_bound,
)
from repro.analysis.examples import fig1_deadlock_instance, fig3_example_instance
from repro.core import build_pipeline
from repro.exact import solve_optimal
from repro.model.instance import RtspInstance


@pytest.fixture(params=["fig1", "fig3"])
def example(request):
    return (
        fig1_deadlock_instance()
        if request.param == "fig1"
        else fig3_example_instance()
    )


class TestUniversalLowerBound:
    def test_below_exact_optimum(self, example):
        result = solve_optimal(example)
        assert result.proved_optimal
        assert universal_lower_bound(example) <= result.cost + 1e-9

    def test_zero_when_nothing_outstanding(self):
        x = np.array([[1]], dtype=np.int8)
        inst = RtspInstance.create([1.0], [1.0], np.zeros((1, 1)), x, x)
        assert universal_lower_bound(inst) == 0.0

    def test_counts_each_outstanding_replica(self):
        # 2 outstanding unit objects, min cost 1 each
        x_old = np.array([[1, 1], [0, 0]], dtype=np.int8)
        x_new = np.array([[1, 1], [1, 1]], dtype=np.int8)
        costs = np.array([[0.0, 1.0], [1.0, 0.0]])
        inst = RtspInstance.create([1.0, 1.0], [2.0, 2.0], costs, x_old, x_new)
        assert universal_lower_bound(inst) == 2.0


class TestNearestSourceBound:
    def test_at_least_universal(self, example):
        assert (
            nearest_source_bound(example)
            >= universal_lower_bound(example) - 1e-9
        )

    def test_below_heuristic_cost(self, example):
        schedule = build_pipeline("GOLCF+H1+H2+OP1").run(example, rng=0)
        assert nearest_source_bound(example) <= schedule.cost(example) + 1e-9

    def test_below_exact_optimum_on_triangle_costs(self, example):
        # both example cost matrices obey the triangle inequality
        result = solve_optimal(example)
        assert nearest_source_bound(example) <= result.cost + 1e-9


class TestWorstCaseUpperBound:
    def test_above_every_heuristic(self, example):
        ub = worst_case_upper_bound(example)
        for spec in ("RDF", "AR", "GOLCF"):
            schedule = build_pipeline(spec).run(example, rng=1)
            assert schedule.cost(example) <= ub + 1e-9

    def test_formula(self):
        x_old = np.array([[1], [0]], dtype=np.int8)
        x_new = np.array([[0], [1]], dtype=np.int8)
        costs = np.array([[0.0, 2.0], [2.0, 0.0]])
        inst = RtspInstance.create([5.0], [5.0, 5.0], costs, x_old, x_new)
        # one replica in X_new, size 5, dummy cost 3
        assert worst_case_upper_bound(inst) == 15.0


class TestOptimalityGap:
    def test_zero_gap_at_bound(self, example):
        lb = universal_lower_bound(example)
        assert optimality_gap(example, lb) == pytest.approx(0.0)

    def test_positive_gap(self, example):
        lb = universal_lower_bound(example)
        assert optimality_gap(example, 2 * lb) == pytest.approx(1.0)

    def test_zero_lower_bound(self):
        x = np.array([[1]], dtype=np.int8)
        inst = RtspInstance.create([1.0], [1.0], np.zeros((1, 1)), x, x)
        assert optimality_gap(inst, 0.0) == 0.0
