"""Property tests for the builder core against the reference oracle.

The builder core's whole contract is byte-identity: for every builder
and every seed, the registered builder must emit exactly the action
sequence the reference object path (``tests/builder_oracle.py``) emits.
Hypothesis drives random instances (including forced-dummy objects,
empty servers, fractional sizes and zero-slack capacities) through both;
the exact invariant oracle then re-checks the schedules from first
principles.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import get_builder
from repro.exact.differential import DEFAULT_FAMILIES, family_instances
from repro.exact.validate import check_invariants
from repro.flat import FlatSchedule
from repro.model.instance import RtspInstance
from tests.builder_oracle import BUILDERS, oracle_build

COMMON = dict(
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def instances(draw, fractional: bool = False) -> RtspInstance:
    m = draw(st.integers(2, 5))
    n = draw(st.integers(1, 5))
    if fractional:
        sizes = np.array(
            draw(
                st.lists(
                    st.floats(0.25, 4.0, allow_nan=False),
                    min_size=n,
                    max_size=n,
                )
            )
        )
    else:
        sizes = np.array(
            draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)),
            dtype=float,
        )
    bits = st.lists(
        st.lists(st.integers(0, 1), min_size=n, max_size=n),
        min_size=m,
        max_size=m,
    )
    x_old = np.array(draw(bits), dtype=np.int8)
    x_new = np.array(draw(bits), dtype=np.int8)
    loads_old = x_old.astype(float) @ sizes
    loads_new = x_new.astype(float) @ sizes
    slack = np.array(
        draw(st.lists(st.integers(0, 4), min_size=m, max_size=m)),
        dtype=float,
    )
    capacities = np.maximum(loads_old, loads_new) + slack
    weights = draw(
        st.lists(st.integers(1, 9), min_size=m * m, max_size=m * m)
    )
    costs = np.array(weights, dtype=float).reshape(m, m)
    costs = (costs + costs.T) / 2.0
    np.fill_diagonal(costs, 0.0)
    return RtspInstance.create(sizes, capacities, costs, x_old, x_new)


@settings(**COMMON)
@given(inst=instances(), seed=st.integers(0, 2**31 - 1))
def test_flat_matches_reference_for_every_builder(inst, seed):
    for name in BUILDERS:
        ref = oracle_build(name, inst, rng=seed)
        flat = get_builder(name).build(inst, rng=seed)
        assert ref.actions() == flat.actions(), (
            f"{name} flat/reference divergence at seed {seed}"
        )


@settings(**COMMON)
@given(inst=instances(fractional=True), seed=st.integers(0, 2**31 - 1))
def test_flat_matches_reference_on_fractional_sizes(inst, seed):
    for name in BUILDERS:
        ref = oracle_build(name, inst, rng=seed)
        flat = get_builder(name).build(inst, rng=seed)
        assert ref.actions() == flat.actions(), (
            f"{name} flat/reference divergence (fractional) at seed {seed}"
        )


@settings(**COMMON)
@given(inst=instances(), seed=st.integers(0, 2**31 - 1))
def test_flat_cost_is_bit_identical_pre_materialization(inst, seed):
    for name in BUILDERS:
        ref = oracle_build(name, inst, rng=seed)
        flat = get_builder(name).build(inst, rng=seed)
        assert isinstance(flat, FlatSchedule)
        assert not flat.materialized
        # Vectorized arena cost before materialization...
        assert flat.cost(inst) == ref.cost(inst)
        # ...and the object-path cost after.
        flat.actions()
        assert flat.materialized
        assert flat.cost(inst) == ref.cost(inst)


def test_flat_schedules_pass_exact_oracle_on_differential_families():
    # The <=6x8 differential families are the exact subsystem's
    # canonical corpus; every flat schedule must satisfy the
    # first-principles invariant oracle, not just mirror the reference.
    for family in DEFAULT_FAMILIES:
        for inst in family_instances(family):
            for name in BUILDERS:
                for seed in (0, 1, 2):
                    flat = get_builder(name).build(inst, rng=seed)
                    report = check_invariants(inst, flat)
                    assert report.ok, (
                        f"{family}/{name}/seed={seed}: {report.summary()}"
                    )
