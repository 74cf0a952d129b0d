"""Builder-vs-oracle differential suite.

The acceptance gate for the builder core: over the exact subsystem's
differential families, every builder x seed must produce a schedule
*byte-identical* to the reference object path kept in
``tests/builder_oracle.py``, and every build must return a lazy
:class:`~repro.flat.buffers.FlatSchedule`.
"""

import numpy as np
import pytest

from repro.core.base import get_builder
from repro.exact.differential import DEFAULT_FAMILIES, family_instances
from repro.flat import FlatSchedule
from repro.model.instance import RtspInstance
from repro.util.errors import ConfigurationError
from repro.workloads.regular import paper_instance
from tests.builder_oracle import BUILDERS, oracle_build

SEEDS = (0, 1, 2)


def test_all_paper_builders_have_flat_twins():
    assert BUILDERS == ["AR", "GMC", "GOLCF", "GSDF", "RDF"]


@pytest.mark.parametrize("family", DEFAULT_FAMILIES)
@pytest.mark.parametrize("builder", BUILDERS)
def test_flat_matches_reference_on_differential_families(family, builder):
    for inst in family_instances(family):
        for seed in SEEDS:
            ref = oracle_build(builder, inst, rng=seed)
            flat = get_builder(builder).build(inst, rng=seed)
            assert isinstance(flat, FlatSchedule)
            assert ref.actions() == flat.actions(), (
                f"{family}/{builder}/seed={seed}: flat diverged"
            )


@pytest.mark.parametrize("builder", BUILDERS)
def test_flat_matches_reference_on_paper_workload(builder):
    inst = paper_instance(
        replicas=2, num_servers=12, num_objects=50, rng=99
    )
    for seed in SEEDS:
        ref = oracle_build(builder, inst, rng=seed)
        flat = get_builder(builder).build(inst, rng=seed)
        assert ref.actions() == flat.actions()


def test_flat_build_rejects_unknown_builder():
    with pytest.raises(ConfigurationError, match="unknown builder"):
        get_builder("H1")


def _tiny_instance() -> RtspInstance:
    x_old = np.array([[1, 0], [0, 1], [0, 0]], dtype=np.int8)
    x_new = np.array([[0, 0], [0, 1], [1, 0]], dtype=np.int8)
    costs = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    return RtspInstance.create(
        [1.0, 1.0], [2.0, 2.0, 2.0], costs, x_old, x_new
    )


def test_mode_on_routes_builders_through_flat_core():
    # There is one builder core: even the smallest instance gets a
    # FlatSchedule back.
    inst = _tiny_instance()
    sched = get_builder("GOLCF").build(inst, rng=0)
    assert isinstance(sched, FlatSchedule)


def test_flat_schedule_feeds_optimizer_pipeline():
    # Downstream consumers (H1/H2/OP1) must accept a FlatSchedule
    # transparently — materialization happens on first iteration.
    from repro.core import get_optimizer

    inst = paper_instance(replicas=2, num_servers=10, num_objects=40, rng=5)
    flat = get_builder("RDF").build(inst, rng=4)
    ref = oracle_build("RDF", inst, rng=4)
    out_flat = get_optimizer("H1").optimize(inst, flat)
    out_ref = get_optimizer("H1").optimize(inst, ref)
    assert out_flat.actions() == out_ref.actions()
    assert out_flat.validate(inst).ok
