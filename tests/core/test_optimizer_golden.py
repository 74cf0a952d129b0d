"""Frozen schedule digests of every stage of GOLCF+H1+H2+OP1.

``tests/golden/optimizers.json`` holds the sha256 of the schedule after
each stage (GOLCF, then +H1, +H2 and +OP1) for three kinds of input:
the paper's §5.1 cell (``paper_instance(2, 50, 500)``, seeds 0-2), one
100x500 instance, and a synthetic
instance with fractional sizes whose capacities sit within
``CAPACITY_EPS`` of the demand. Any change to an optimizer's
accept/reject decisions shows up as a digest mismatch.

Beside the stages, ``variants`` holds the final digest of whole
pipelines: OP1's continue-in-place ablation (``/continue``:
``restart=False``) and NSR after the winning pipeline on the same
inputs, and OP1 on AR and RDF+H1+H2 schedules of smaller instances,
where it rewrites most and repairs stranded sources (case iii) on many
of the candidates it proves.

Regenerate (only after a deliberate behaviour change)::

    PYTHONPATH=src python tests/core/test_optimizer_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import build_pipeline
from repro.core.optimizers.op1 import OP1ReorderTransfers
from repro.core.pipeline import Pipeline
from repro.model.actions import Transfer
from repro.model.instance import RtspInstance
from repro.model.state import CAPACITY_EPS
from repro.util.rng import ensure_rng
from repro.workloads.regular import paper_instance, regular_placement_pair

CORPUS = Path(__file__).resolve().parents[1] / "golden" / "optimizers.json"
FORMAT = "rtsp-optimizer-golden/1"
PIPELINE = "GOLCF+H1+H2+OP1"


def epsilon_edge_instance(seed: int, m: int = 30, n: int = 240) -> RtspInstance:
    """Fractional sizes; every capacity within ``CAPACITY_EPS`` of its load.

    Capacities are ``max(load_old, load_new)`` nudged by up to half an
    epsilon either way, so many capacity checks pass only through the
    ``CAPACITY_EPS`` slack.
    """
    gen = np.random.default_rng(seed)
    sizes = np.round(gen.uniform(0.1, 3.0, size=n), 3) + 1.0 / 3.0
    coords = gen.random((m, 2)) * 20
    costs = np.ceil(np.abs(coords[:, None, :] - coords[None, :, :]).sum(axis=2))
    np.fill_diagonal(costs, 0.0)
    x_old, x_new = regular_placement_pair(m, n, 2, rng=gen)
    load = np.maximum(
        x_old.astype(np.float64) @ sizes, x_new.astype(np.float64) @ sizes
    )
    capacities = load + gen.uniform(-0.5, 0.5, size=m) * CAPACITY_EPS
    return RtspInstance.create(sizes, capacities, costs, x_old, x_new)


def cases():
    """``(name, instance, pipeline seed)`` of every corpus entry."""
    out = [
        (f"paper-50x500-s{seed}", paper_instance(2, 50, 500, rng=seed), seed)
        for seed in range(3)
    ]
    # The "flat-" prefix is a corpus key from when only instances of at
    # least 5e4 cells ran the array builder core.
    out.append(("flat-100x500-s7", paper_instance(2, 100, 500, rng=7), 7))
    out.append(("eps-edge-30x240-s3", epsilon_edge_instance(3), 3))
    return out


#: Whole pipelines frozen on the stage cases' inputs.
STAGE_VARIANTS = ("GOLCF+H1+H2+OP1/continue", "GOLCF+H1+H2+OP1+NSR")
#: Whole pipelines frozen on :func:`rewrite_cases`' inputs.
REWRITE_VARIANTS = (
    "AR+OP1",
    "AR+OP1/continue",
    "RDF+H1+H2+OP1",
    "RDF+H1+H2+OP1+NSR",
)


def rewrite_cases():
    """``(name, instance, pipeline seed)`` of the AR/RDF variant inputs."""
    out = [
        (f"paper-20x150-s{seed}", paper_instance(2, 20, 150, rng=seed), seed)
        for seed in range(2)
    ]
    out.append(("eps-edge-16x120-s3", epsilon_edge_instance(3, 16, 120), 3))
    return out


def variant_pipeline(spec: str) -> Pipeline:
    """``spec`` as a pipeline; a ``/continue`` suffix runs OP1 with
    ``restart=False``."""
    spec, _, mode = spec.partition("/")
    pipeline = build_pipeline(spec)
    if mode == "continue":
        pipeline.optimizers = [
            OP1ReorderTransfers(restart=False) if o.name == "OP1" else o
            for o in pipeline.optimizers
        ]
    return pipeline


def schedule_digest(schedule) -> str:
    """sha256 of the schedule's action rows in compact JSON."""
    rows = [
        ["T", a.target, a.obj, a.source]
        if isinstance(a, Transfer)
        else ["D", a.server, a.obj]
        for a in schedule
    ]
    text = json.dumps(rows, separators=(",", ":"))
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def stage_digests(instance: RtspInstance, seed: int):
    """``[(stage, digest, actions, dummies)]`` along the pipeline.

    Stages share one generator exactly as :meth:`Pipeline.run` does.
    """
    pipeline = build_pipeline(PIPELINE)
    gen = ensure_rng(seed)
    schedule = pipeline.builder.build(instance, rng=gen)
    out = []
    stages = [pipeline.builder] + pipeline.optimizers
    for stage in stages:
        if stage is not pipeline.builder:
            schedule = stage.optimize(instance, schedule, rng=gen)
        out.append(
            (
                stage.name,
                schedule_digest(schedule),
                len(schedule),
                schedule.count_dummy_transfers(instance),
            )
        )
    return out


def variant_digests(instance: RtspInstance, seed: int, specs):
    """``{spec: {sha256, actions, dummies}}`` of each whole pipeline."""
    out = {}
    for spec in specs:
        schedule = variant_pipeline(spec).run(instance, rng=seed)
        out[spec] = {
            "sha256": schedule_digest(schedule),
            "actions": len(schedule),
            "dummies": schedule.count_dummy_transfers(instance),
        }
    return out


def compute_corpus():
    return {
        "format": FORMAT,
        "pipeline": PIPELINE,
        "cases": {
            name: [
                {"stage": stage, "sha256": digest, "actions": n, "dummies": d}
                for stage, digest, n, d in stage_digests(instance, seed)
            ]
            for name, instance, seed in cases()
        },
        "variants": {
            **{
                name: variant_digests(instance, seed, STAGE_VARIANTS)
                for name, instance, seed in cases()
            },
            **{
                name: variant_digests(instance, seed, REWRITE_VARIANTS)
                for name, instance, seed in rewrite_cases()
            },
        },
    }


def _load():
    with open(CORPUS, encoding="utf-8") as fh:
        return json.load(fh)


CASES = cases()
VARIANT_CASES = [(name, i, seed, STAGE_VARIANTS) for name, i, seed in CASES] + [
    (name, i, seed, REWRITE_VARIANTS) for name, i, seed in rewrite_cases()
]


@pytest.mark.parametrize(
    "name,instance,seed", CASES, ids=[name for name, _, _ in CASES]
)
def test_stage_digests_match_corpus(name, instance, seed):
    corpus = _load()
    assert corpus["format"] == FORMAT
    expected = corpus["cases"][name]
    got = [
        {"stage": stage, "sha256": digest, "actions": n, "dummies": d}
        for stage, digest, n, d in stage_digests(instance, seed)
    ]
    assert got == expected


@pytest.mark.parametrize(
    "name,instance,seed,specs",
    VARIANT_CASES,
    ids=[name for name, _, _, _ in VARIANT_CASES],
)
def test_variant_digests_match_corpus(name, instance, seed, specs):
    expected = _load()["variants"][name]
    assert variant_digests(instance, seed, specs) == expected


def test_corpus_covers_every_case_and_exercises_the_optimizers():
    corpus = _load()
    assert sorted(corpus["cases"]) == sorted(name for name, _, _ in CASES)
    assert sorted(corpus["variants"]) == sorted(
        name for name, _, _, _ in VARIANT_CASES
    )
    for name, stages in corpus["cases"].items():
        assert [s["stage"] for s in stages] == ["GOLCF", "H1", "H2", "OP1"]
        # Every case starts with dummy transfers for H1/H2 to work on.
        assert stages[0]["dummies"] > 0, name


if __name__ == "__main__":  # pragma: no cover - corpus regeneration
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_optimizer_golden.py --write")
    CORPUS.write_text(json.dumps(compute_corpus(), indent=1) + "\n")
    print(f"wrote {CORPUS}")
