"""Concurrent plan_sharded calls in one process share no state.

Each thread's serial work queue and observability context are its own,
so threads planning different instances at once must each get exactly
the schedule a lone serial call produces.
"""

import sys
import threading

import pytest

from repro.shard import compose_instances, plan_sharded
from repro.workloads.regular import paper_instance

PIPELINE = "GOLCF+H1"
THREADS_PER_INSTANCE = 4


def _composed(blocks, num_servers, num_objects):
    return compose_instances(
        [
            paper_instance(2, num_servers, num_objects, rng=block)
            for block in range(blocks)
        ]
    )


def _actions(instance, seed):
    plan = plan_sharded(instance, PIPELINE, shards=4, workers=1, rng=seed)
    return [repr(action) for action in plan.schedule.actions()]


@pytest.fixture(scope="module")
def instances():
    return [_composed(6, 12, 60), _composed(3, 20, 100)]


def test_concurrent_serial_plans_match_their_references(instances):
    seeds = [11, 12]
    references = [
        _actions(instance, seed) for instance, seed in zip(instances, seeds)
    ]
    jobs = [
        (index, instances[index], seeds[index])
        for _ in range(THREADS_PER_INSTANCE)
        for index in range(len(instances))
    ]
    start = threading.Barrier(len(jobs))
    results = {}
    errors = []

    def _plan(slot, index, instance, seed):
        start.wait(timeout=30)
        try:
            results[slot] = (index, _actions(instance, seed))
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=_plan, args=(slot, *job))
            for slot, job in enumerate(jobs)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(results) == len(jobs)
    for index, actions in results.values():
        assert actions == references[index]
