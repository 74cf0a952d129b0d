"""Instance sets of the four workloads, drawn from pinned seed sets.

Every instance set comes from a fixed list of generator seeds. The
``primary`` set is what the benchmark measures; the ``heldout`` set is
a second draw of the same shapes, for checking a claim on inputs the
change was not tuned on (``--instances heldout``). The sha256 of every
generated instance is pinned in ``pinned.json`` and checked before any
timing, so a change to the generators fails the benchmark instead of
silently changing its workload.

Why each workload exists:

* ``paper-tight`` -- the paper's §5.1 cell: BRITE tree, zero overlap,
  minimal capacities. GOLCF leaves dozens of dummy transfers, so H1's
  dummy repair does real work; the reference builder core runs here
  (2.5e4 cells, below the flat-core threshold).
* ``large-single`` -- one connected 960x9600 synthetic instance. At
  >= 5e4 cells the flat builder core is selected; no other workload
  reaches it. Large working set.
* ``fleet-sharded`` -- 16 disjoint 60x600 blocks, planned with
  ``plan_sharded``: partition, pool dispatch, stitch and the strict
  invariant oracle.
* ``serve-mix`` -- paper-shaped 20x100 instances sent to the HTTP
  service as an open-loop mix of cold plans, cache replays, placement
  deltas and strict validations.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

PIPELINE = "GOLCF+H1+H2+OP1"

#: workload -> instance set -> generator seeds
SEED_SETS: Dict[str, Dict[str, List[int]]] = {
    "paper-tight": {"primary": list(range(0, 10)), "heldout": list(range(10, 20))},
    "large-single": {"primary": [0], "heldout": [1]},
    "fleet-sharded": {
        "primary": list(range(0, 16)),
        "heldout": list(range(16, 32)),
    },
    # serve-mix draws its base instances and placement deltas from
    # these offsets (see ``serve_pool``).
    "serve-mix": {"primary": [1000, 5000], "heldout": [2000, 6000]},
}

PAPER_SHAPE = dict(replicas=2, num_servers=50, num_objects=500)
LARGE_SHAPE = (960, 9600)
FLEET_BLOCK = (60, 600)
SERVE_SHAPE = dict(replicas=2, num_servers=20, num_objects=100)
#: serve-mix warm-up and closed-loop instances, drawn past the end of
#: the base pool
SERVE_WARMUP = 2
SERVE_WARMUP_OFFSET = 900
SERVE_CLOSED = 100
SERVE_CLOSED_OFFSET = 700


def synth_instance(num_servers: int, num_objects: int, seed: int):
    """A connected synthetic instance built in O(M^2 + N).

    About two replicas per object in both placements, 10% storage
    slack, Manhattan link costs on a random grid. ``paper_instance``
    packs placements with a super-linear knapsack, which would dominate
    set-up at this size.
    """
    from repro.model.instance import RtspInstance

    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 11, size=num_objects).astype(float)
    coords = rng.random((num_servers, 2)) * 100
    costs = np.ceil(np.abs(coords[:, None, :] - coords[None, :, :]).sum(axis=2))
    np.fill_diagonal(costs, 0.0)
    x_old = np.zeros((num_servers, num_objects), dtype=np.int8)
    x_new = np.zeros((num_servers, num_objects), dtype=np.int8)
    cols = np.arange(num_objects)
    for matrix in (x_old, x_new):
        picks = rng.integers(0, num_servers, size=(num_objects, 2))
        matrix[picks[:, 0], cols] = 1
        matrix[picks[:, 1], cols] = 1
    caps = np.maximum(x_old @ sizes, x_new @ sizes) * 1.1 + 5
    return RtspInstance.create(sizes, caps, costs, x_old, x_new)


def paper_tight(seeds: List[int]) -> List[Tuple[object, int]]:
    """``(instance, pipeline seed)`` for each paper §5.1 instance."""
    from repro.workloads import paper_instance

    return [(paper_instance(rng=seed, **PAPER_SHAPE), seed) for seed in seeds]


def large_single(seeds: List[int]) -> List[Tuple[object, int]]:
    """The one large connected instance, planned with its own seed."""
    return [(synth_instance(*LARGE_SHAPE, seed=seed), seed) for seed in seeds]


def fleet_blocks(seeds: List[int]) -> List[object]:
    """The fleet's disjoint blocks, in composition order."""
    return [synth_instance(*FLEET_BLOCK, seed=seed) for seed in seeds]


def compose_fleet(blocks: List[object]):
    """One block-diagonal fleet instance of ``blocks``."""
    from repro.shard import compose_instances

    return compose_instances(blocks)


def serve_pool(offsets: List[int], bases: int, deltas: int):
    """Base instances, placement deltas, warm-up and closed-loop instances
    of the serve-mix workload.

    A delta keeps a base's cost matrix (the server has it cached under
    its topology hash) and replaces sizes, capacities and both
    placements with those of another paper-shaped draw.
    """
    from repro.workloads import paper_instance

    base_offset, delta_offset = offsets

    def draw(start: int, count: int):
        return [paper_instance(rng=start + i, **SERVE_SHAPE) for i in range(count)]

    return (draw(base_offset, bases), draw(delta_offset, deltas),
            draw(base_offset + SERVE_WARMUP_OFFSET, SERVE_WARMUP),
            draw(base_offset + SERVE_CLOSED_OFFSET, SERVE_CLOSED))
