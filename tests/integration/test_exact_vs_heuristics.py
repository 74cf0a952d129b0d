"""Integration: heuristics sandwiched against the exact optimum.

On instances small enough for branch and bound, every heuristic cost must
dominate the optimum, and the paper's winning pipeline should land close
to it.
"""

import numpy as np
import pytest

from repro.core import build_pipeline
from repro.exact import SolverBudget, solve_optimal
from repro.model.instance import RtspInstance
from repro.network.costmatrix import uniform_cost_matrix
from repro.workloads.regular import regular_placement_pair
from repro.workloads.sizes import constant_sizes
from repro.workloads.capacity import max_load_capacities


def small_instance(seed, m=4, n=4, r=2):
    rng = np.random.default_rng(seed)
    x_old, x_new = regular_placement_pair(m, n, r, rng=rng)
    sizes = constant_sizes(n, 1.0)
    capacities = max_load_capacities(x_old, x_new, sizes)
    weights = rng.integers(1, 10, size=(m, m)).astype(float)
    costs = (weights + weights.T) / 2
    np.fill_diagonal(costs, 0.0)
    return RtspInstance.create(sizes, capacities, costs, x_old, x_new)


PIPELINES = ["RDF", "GSDF", "AR", "GOLCF", "GOLCF+H1+H2+OP1", "RDF+H1+H2+OP1"]


@pytest.mark.parametrize("seed", range(5))
def test_heuristics_never_beat_exact(seed):
    inst = small_instance(seed, n=3)
    result = solve_optimal(inst)
    assert result.schedule.validate(inst).ok
    if not result.proved_optimal:
        pytest.skip("search budget exhausted; optimum not certified")
    for spec in PIPELINES:
        for run_seed in range(3):
            schedule = build_pipeline(spec).run(inst, rng=run_seed)
            assert schedule.cost(inst) >= result.cost - 1e-9, (spec, run_seed)


@pytest.mark.parametrize("seed", range(5))
def test_winner_pipeline_close_to_optimum(seed):
    """GOLCF+H1+H2+OP1's best-of-3 lands within 60% of the optimum on
    these tiny zero-slack instances (typically much closer)."""
    inst = small_instance(seed, n=3)
    result = solve_optimal(inst)
    if not result.proved_optimal:
        pytest.skip("search budget exhausted; optimum not certified")
    best = min(
        build_pipeline("GOLCF+H1+H2+OP1").run(inst, rng=s).cost(inst)
        for s in range(3)
    )
    assert best <= 1.6 * result.cost + 1e-9


def test_exact_incomplete_still_sound():
    inst = small_instance(0, m=5, n=5, r=2)
    seed_schedule = build_pipeline("GOLCF").run(inst, rng=0)
    result = solve_optimal(inst, SolverBudget(max_nodes=500))
    assert result.schedule.validate(inst).ok
    assert result.cost <= seed_schedule.cost(inst) + 1e-9
