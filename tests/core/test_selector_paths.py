"""Path-identity regression: the selector's scalar and gather refreshes.

``PendingTransferSelector`` (and GOLCF's cheapest-target scan, on the
same threshold) picks between a Python scalar scan and a NumPy gather
based on ``_SCALAR_BLOCK``. Schedules must never depend on which side of
the threshold an instance lands on, so these tests pin the threshold to
both extremes (0 = always gather, huge = always scalar) on the *same*
instances — including fractional data, where a summation-order slip
would show up first — and require byte-identical schedules, equal to
the reference object path of ``tests/builder_oracle.py``. See the
"Path-identity contract" paragraph in the selector's docstring.
"""

import numpy as np
import pytest

from repro.core.base import get_builder
from repro.core.builders.common import PendingTransferSelector
from repro.model.instance import RtspInstance
from repro.util.errors import ConfigurationError
from tests.builder_oracle import oracle_build

BUILDERS = ["GOLCF", "GMC"]  # the selector's only users


def _fractional_instance(seed: int) -> RtspInstance:
    rng = np.random.default_rng(seed)
    m, n = 6, 12
    sizes = rng.uniform(0.3, 3.7, size=n)
    costs = rng.uniform(0.1, 9.0, size=(m, m))
    costs = (costs + costs.T) / 2
    np.fill_diagonal(costs, 0.0)
    x_old = (rng.random((m, n)) < 0.45).astype(np.int8)
    x_new = (rng.random((m, n)) < 0.45).astype(np.int8)
    caps = (
        np.maximum(x_old @ sizes, x_new @ sizes)
        + rng.uniform(0.0, 2.0, size=m)
    )
    return RtspInstance.create(sizes, caps, costs, x_old, x_new)


def _integer_instance(seed: int) -> RtspInstance:
    rng = np.random.default_rng(seed)
    m, n = 7, 14
    sizes = rng.integers(1, 6, size=n).astype(float)
    costs = rng.integers(1, 15, size=(m, m)).astype(float)
    costs = np.ceil((costs + costs.T) / 2)
    np.fill_diagonal(costs, 0.0)
    x_old = (rng.random((m, n)) < 0.4).astype(np.int8)
    x_new = (rng.random((m, n)) < 0.4).astype(np.int8)
    caps = np.maximum(x_old @ sizes, x_new @ sizes) + rng.integers(
        0, 4, size=m
    ).astype(float)
    return RtspInstance.create(sizes, caps, costs, x_old, x_new)


@pytest.mark.parametrize("builder", BUILDERS)
@pytest.mark.parametrize("make", [_integer_instance, _fractional_instance])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_scalar_and_gather_refresh_produce_identical_schedules(
    monkeypatch, builder, make, seed
):
    inst = make(seed)
    monkeypatch.setattr(PendingTransferSelector, "_SCALAR_BLOCK", 1 << 30)
    scalar = get_builder(builder).build(inst, rng=seed)
    monkeypatch.setattr(PendingTransferSelector, "_SCALAR_BLOCK", 0)
    gather = get_builder(builder).build(inst, rng=seed)
    assert scalar.actions() == gather.actions(), (
        f"{builder} diverged between scalar and gather refresh paths"
    )
    assert gather.actions() == oracle_build(builder, inst, rng=seed).actions()


@pytest.mark.parametrize("builder", BUILDERS)
def test_default_threshold_matches_both_forced_paths(monkeypatch, builder):
    inst = _fractional_instance(11)
    default = get_builder(builder).build(inst, rng=5)
    monkeypatch.setattr(PendingTransferSelector, "_SCALAR_BLOCK", 0)
    gather = get_builder(builder).build(inst, rng=5)
    assert default.actions() == gather.actions()
    assert default.actions() == oracle_build(builder, inst, rng=5).actions()


def test_nan_costs_rejected_at_instance_boundary():
    # A NaN cost entry is skipped by the scalar ``<`` scan but selected
    # by the gather's argmin — the paths would diverge. The instance
    # boundary therefore rejects NaN outright.
    costs = np.array([[0.0, 1.0], [np.nan, 0.0]])
    with pytest.raises(ConfigurationError, match="NaN"):
        RtspInstance.create(
            sizes=[1.0],
            capacities=[2.0, 2.0],
            costs=costs,
            x_old=np.array([[1], [0]], dtype=np.int8),
            x_new=np.array([[0], [1]], dtype=np.int8),
        )


def test_infinite_costs_keep_paths_identical(monkeypatch):
    # +inf entries are legal (an unusable link): both the scalar scan
    # and the gathered min handle them identically, and the dummy
    # column bounds every minimum. Pin both paths to prove it.
    rng = np.random.default_rng(3)
    m, n = 5, 10
    sizes = rng.integers(1, 4, size=n).astype(float)
    costs = rng.integers(1, 9, size=(m, m)).astype(float)
    costs = (costs + costs.T) / 2
    np.fill_diagonal(costs, 0.0)
    costs[0, 1] = costs[1, 0] = np.inf
    x_old = (rng.random((m, n)) < 0.5).astype(np.int8)
    x_new = (rng.random((m, n)) < 0.5).astype(np.int8)
    caps = np.maximum(x_old @ sizes, x_new @ sizes) + 2
    inst = RtspInstance.create(sizes, caps, costs, x_old, x_new)
    monkeypatch.setattr(PendingTransferSelector, "_SCALAR_BLOCK", 1 << 30)
    scalar = get_builder("GMC").build(inst, rng=0)
    monkeypatch.setattr(PendingTransferSelector, "_SCALAR_BLOCK", 0)
    gather = get_builder("GMC").build(inst, rng=0)
    assert scalar.actions() == gather.actions()
    assert gather.actions() == oracle_build("GMC", inst, rng=0).actions()
