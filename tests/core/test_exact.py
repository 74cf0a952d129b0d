"""Ground-truth tests of the exact branch-and-bound solver
(:func:`repro.exact.solve_optimal`) on the paper's figures and small
hand-built instances."""

import numpy as np
import pytest

from repro.analysis.bounds import universal_lower_bound
from repro.core import build_pipeline
from repro.exact import BranchAndBoundSolver, SolverBudget, solve_optimal
from repro.model.instance import RtspInstance


def swap_instance(cost=2.0):
    """Two full servers that must swap their objects via staging/dummy."""
    x_old = np.array([[1, 0], [0, 1]], dtype=np.int8)
    x_new = np.array([[0, 1], [1, 0]], dtype=np.int8)
    costs = np.array([[0.0, cost], [cost, 0.0]])
    return RtspInstance.create([1.0, 1.0], [1.0, 1.0], costs, x_old, x_new)


class TestOptimality:
    def test_fig1_optimum(self, fig1):
        result = solve_optimal(fig1)
        assert result.proved_optimal
        # one unavoidable dummy (cost 2 = a*(1+1)) + three unit transfers
        assert result.cost == 5.0
        assert result.schedule.validate(fig1).ok
        assert result.schedule.count_dummy_transfers(fig1) == 1

    def test_fig3_optimum_below_heuristics(self, fig3):
        result = solve_optimal(fig3)
        assert result.proved_optimal
        assert result.schedule.validate(fig3).ok
        for spec in ("RDF", "GOLCF", "GOLCF+H1+H2+OP1"):
            for seed in range(3):
                heuristic = build_pipeline(spec).run(fig3, rng=seed)
                assert result.cost <= heuristic.cost(fig3) + 1e-9

    def test_respects_universal_lower_bound(self, fig3):
        result = solve_optimal(fig3)
        assert result.cost >= universal_lower_bound(fig3) - 1e-9

    def test_trivial_instance(self):
        x = np.array([[1]], dtype=np.int8)
        inst = RtspInstance.create([1.0], [1.0], np.zeros((1, 1)), x, x)
        result = solve_optimal(inst)
        assert result.proved_optimal
        assert result.cost == 0.0
        assert len(result.schedule) == 0

    def test_single_transfer_instance(self, tiny_instance):
        result = solve_optimal(tiny_instance)
        assert result.proved_optimal
        # nearest source: S0 at cost 2 (size 1)
        assert result.cost == 2.0


class TestSwapScenarios:
    def test_swap_needs_one_dummy_without_spare(self):
        inst = swap_instance()
        result = solve_optimal(inst)
        assert result.proved_optimal
        assert result.schedule.validate(inst).ok
        # optimal: break the cycle once via the dummy, cascade the rest:
        # D(0,O0), T(0,O1,S1) real, D(1,O1), T(1,O0,dummy)
        assert result.schedule.count_dummy_transfers(inst) == 1
        assert result.cost == pytest.approx(2.0 + 3.0)

    def test_swap_with_spare_server_avoids_dummies(self):
        # add an empty third server: staging beats the dummy
        x_old = np.array([[1, 0], [0, 1], [0, 0]], dtype=np.int8)
        x_new = np.array([[0, 1], [1, 0], [0, 0]], dtype=np.int8)
        costs = np.array(
            [[0.0, 2.0, 1.0], [2.0, 0.0, 1.0], [1.0, 1.0, 0.0]]
        )
        inst = RtspInstance.create(
            [1.0, 1.0], [1.0, 1.0, 1.0], costs, x_old, x_new
        )
        result = solve_optimal(inst, allow_staging=True)
        assert result.proved_optimal
        assert result.schedule.count_dummy_transfers(inst) == 0
        # stage O0 on S2 (1), move O1 to S0 (2), move staged O0 to S1 (1)
        assert result.cost == pytest.approx(4.0)

    def test_staging_disabled_falls_back_to_dummy(self):
        x_old = np.array([[1, 0], [0, 1], [0, 0]], dtype=np.int8)
        x_new = np.array([[0, 1], [1, 0], [0, 0]], dtype=np.int8)
        costs = np.array(
            [[0.0, 2.0, 1.0], [2.0, 0.0, 1.0], [1.0, 1.0, 0.0]]
        )
        inst = RtspInstance.create(
            [1.0, 1.0], [1.0, 1.0, 1.0], costs, x_old, x_new
        )
        unstaged = solve_optimal(inst, allow_staging=False)
        assert unstaged.proved_optimal
        assert unstaged.cost == pytest.approx(5.0)
        assert unstaged.schedule.count_dummy_transfers(inst) == 1
        staged = solve_optimal(inst, allow_staging=True)
        assert staged.cost < unstaged.cost


class TestBudgetsAndSeeding:
    def test_node_budget_returns_incomplete(self, fig3):
        seed = build_pipeline("GOLCF").run(fig3, rng=0)
        result = solve_optimal(fig3, SolverBudget(max_nodes=5))
        assert not result.proved_optimal
        # still returns the heuristic seed (or better)
        assert result.schedule.validate(fig3).ok
        assert result.cost <= seed.cost(fig3)

    def test_budget_without_seed_reports_failure(self, fig1):
        solver = BranchAndBoundSolver(
            budget=SolverBudget(max_nodes=1), seed_incumbent=False
        )
        result = solver.solve(fig1)
        assert not result.proved_optimal
        assert result.cost == np.inf

    def test_nodes_counted(self, fig1):
        result = solve_optimal(fig1)
        assert result.stats.nodes > 0
