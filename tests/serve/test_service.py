"""PlanningService endpoint behaviour (no sockets involved)."""

from __future__ import annotations

import threading
import time

import pytest

from repro.core import build_pipeline
from repro.io import instance_to_dict, schedule_to_dict
from repro.model.schedule import Schedule
from repro.obs.context import current_events, use_events
from repro.obs.events import EventStream
from repro.serve import ServeConfig, PlanningService, canonical_json
from repro.serve.cache import topology_hash
from repro.shard import compose_instances, plan_sharded
from repro.workloads import paper_instance
from repro.serve.schemas import (
    BATCH_REQUEST_FORMAT,
    BATCH_RESPONSE_FORMAT,
    ERROR_FORMAT,
    HEALTH_FORMAT,
    JOB_FORMAT,
    PLAN_REQUEST_FORMAT,
    PLAN_RESPONSE_FORMAT,
    REPAIR_REQUEST_FORMAT,
    REPAIR_RESPONSE_FORMAT,
    VALIDATE_REQUEST_FORMAT,
    VALIDATE_RESPONSE_FORMAT,
    check_response_format,
)

PIPELINE = "GOLCF+H1"


def plan_payload(instance, **over):
    payload = {
        "format": PLAN_REQUEST_FORMAT,
        "pipeline": PIPELINE,
        "seed": 3,
        "mode": "sync",
        "instance": instance_to_dict(instance),
    }
    payload.update(over)
    return payload


def wait_terminal(service, job_id, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, payload = service.job(job_id)
        assert status == 200
        if payload["state"] in ("done", "failed", "cancelled", "timeout"):
            return payload
        time.sleep(0.01)
    raise AssertionError(f"{job_id} never reached a terminal state")


class TestPlanSync:
    def test_plan_returns_valid_response(self, service, small_instance):
        status, payload = service.plan(plan_payload(small_instance))
        assert status == 200
        check_response_format(payload, PLAN_RESPONSE_FORMAT)
        assert payload["pipeline"] == PIPELINE
        assert payload["seed"] == 3
        assert payload["cache_hit"] is False
        assert payload["topology"] == topology_hash(small_instance.costs)
        assert payload["num_actions"] == len(payload["schedule"]["actions"])

    def test_replay_hits_cache(self, service, small_instance):
        _, cold = service.plan(plan_payload(small_instance))
        status, warm = service.plan(plan_payload(small_instance))
        assert status == 200
        assert warm["cache_hit"] is True
        assert warm["schedule"] == cold["schedule"]
        assert warm["cost"] == cold["cost"]

    def test_cache_misses_across_seed_and_pipeline(
        self, service, small_instance
    ):
        service.plan(plan_payload(small_instance))
        _, other_seed = service.plan(plan_payload(small_instance, seed=4))
        assert other_seed["cache_hit"] is False
        _, other_pipe = service.plan(
            plan_payload(small_instance, pipeline="GOLCF")
        )
        assert other_pipe["cache_hit"] is False

    def test_topology_collision_does_not_cross_contaminate(
        self, service, small_instance
    ):
        """Two instances sharing a cost matrix share the topology entry
        but must not share plan-cache entries."""
        from repro.model.instance import RtspInstance

        sibling = RtspInstance.create(
            sizes=small_instance.sizes,
            capacities=small_instance.capacities,
            costs=small_instance.costs,
            x_old=small_instance.x_old,
            x_new=small_instance.x_old,  # different target placement
        )
        _, first = service.plan(plan_payload(small_instance))
        status, second = service.plan(plan_payload(sibling))
        assert status == 200
        assert second["cache_hit"] is False  # same topology, new fingerprint
        assert second["topology"] == first["topology"]
        assert second["fingerprint"] != first["fingerprint"]
        assert service.topologies.stats()["entries"] == 1

    def test_sharded_plan_matches_direct(self, service, small_instance):
        _, direct = service.plan(plan_payload(small_instance))
        status, sharded = service.plan(plan_payload(small_instance, shards=2))
        assert status == 200
        assert sharded["shards"] == 2
        assert sharded["cache_hit"] is False  # shards is part of the key
        assert sharded["schedule"] == direct["schedule"]

    def test_inline_validation_modes(self, service, small_instance):
        for mode in ("basic", "strict"):
            status, payload = service.plan(
                plan_payload(small_instance, seed=7, validate=mode)
            )
            assert status == 200, payload


class TestPlanDelta:
    def test_delta_replans_against_cached_matrix(
        self, service, small_instance
    ):
        _, full = service.plan(plan_payload(small_instance))
        delta = {
            "topology": full["topology"],
            "sizes": small_instance.sizes.tolist(),
            "capacities": small_instance.capacities.tolist(),
            "x_old": small_instance.x_old.tolist(),
            "x_new": small_instance.x_new.tolist(),
        }
        status, replanned = service.plan(
            {
                "format": PLAN_REQUEST_FORMAT,
                "pipeline": PIPELINE,
                "seed": 3,
                "mode": "sync",
                "delta": delta,
            }
        )
        assert status == 200
        # identical placement data -> identical fingerprint -> cache hit
        assert replanned["cache_hit"] is True
        assert replanned["schedule"] == full["schedule"]

    def test_unknown_topology_404(self, service, small_instance):
        status, payload = service.plan(
            {
                "format": PLAN_REQUEST_FORMAT,
                "mode": "sync",
                "delta": {
                    "topology": "sha256:" + "0" * 64,
                    "sizes": small_instance.sizes.tolist(),
                    "capacities": small_instance.capacities.tolist(),
                    "x_old": small_instance.x_old.tolist(),
                    "x_new": small_instance.x_new.tolist(),
                },
            }
        )
        assert status == 404
        check_response_format(payload, ERROR_FORMAT)
        assert payload["error"] == "unknown-topology"


class TestPlanAsync:
    def test_async_plan_completes_via_polling(self, service, small_instance):
        status, accepted = service.plan(
            plan_payload(small_instance, mode="async")
        )
        assert status == 202
        check_response_format(accepted, JOB_FORMAT)
        final = wait_terminal(service, accepted["id"])
        assert final["state"] == "done"
        check_response_format(final["result"], PLAN_RESPONSE_FORMAT)
        names = [e["name"] for e in final["events"]]
        assert "plan.start" in names or "plan.cached" in names

    def test_event_cursor_pagination(self, service, small_instance):
        _, accepted = service.plan(plan_payload(small_instance, mode="async"))
        final = wait_terminal(service, accepted["id"])
        cursor = final["events"][1]["seq"]
        status, page = service.job(accepted["id"], since=cursor)
        assert status == 200
        assert all(e["seq"] >= cursor for e in page["events"])
        assert len(page["events"]) == len(final["events"]) - 1

    def test_cancel_unknown_job_404(self, service):
        status, payload = service.cancel_job("job-424242")
        assert status == 404
        assert payload["error"] == "unknown-job"

    def test_cancel_finished_job_409(self, service, small_instance):
        _, accepted = service.plan(plan_payload(small_instance, mode="async"))
        wait_terminal(service, accepted["id"])
        status, payload = service.cancel_job(accepted["id"])
        assert status == 409
        assert payload["cancel_accepted"] is False
        assert payload["state"] == "done"


class TestPlanErrors:
    @pytest.mark.parametrize(
        "payload",
        [
            {"format": "nonsense"},
            {"format": PLAN_REQUEST_FORMAT},  # no instance/delta
            ["not", "a", "mapping"],
            {"format": PLAN_REQUEST_FORMAT, "instance": {"format": "x"}},
        ],
    )
    def test_malformed_requests_400(self, service, payload):
        status, body = service.plan(payload)
        assert status == 400
        check_response_format(body, ERROR_FORMAT)
        assert body["error"] == "bad-request"

    def test_unknown_pipeline_400(self, service, small_instance):
        status, body = service.plan(
            plan_payload(small_instance, pipeline="MAGIC+H9")
        )
        assert status == 400
        assert body["error"] == "bad-request"

    def test_error_counter_bumped(self, service):
        before = service.metrics.counter("serve.responses.4xx").value
        service.plan({"format": "nonsense"})
        assert service.metrics.counter("serve.responses.4xx").value == (
            before + 1
        )


class TestBatch:
    def test_all_entries_succeed(self, service, small_instance, other_instance):
        status, payload = service.plan(
            {
                "format": BATCH_REQUEST_FORMAT,
                "requests": [
                    plan_payload(small_instance, seed=0),
                    plan_payload(other_instance, seed=1),
                ],
            }
        )
        assert status == 200
        check_response_format(payload, BATCH_RESPONSE_FORMAT)
        assert [entry["status"] for entry in payload["responses"]] == [200, 200]
        seeds = [e["response"]["seed"] for e in payload["responses"]]
        assert seeds == [0, 1]

    def test_mixed_results_207(self, service, small_instance):
        status, payload = service.plan(
            {
                "format": BATCH_REQUEST_FORMAT,
                "requests": [
                    plan_payload(small_instance),
                    plan_payload(small_instance, pipeline="MAGIC"),
                ],
            }
        )
        assert status == 207
        statuses = [entry["status"] for entry in payload["responses"]]
        assert statuses == [200, 400]

    def test_unparseable_batch_400(self, service, small_instance):
        status, payload = service.plan(
            {
                "format": BATCH_REQUEST_FORMAT,
                "requests": [{"format": PLAN_REQUEST_FORMAT}],
            }
        )
        assert status == 400
        check_response_format(payload, ERROR_FORMAT)


class TestValidateEndpoint:
    def test_valid_schedule_passes_strict(self, service, small_instance):
        schedule = build_pipeline(PIPELINE).run(small_instance, rng=0)
        status, payload = service.validate(
            {
                "format": VALIDATE_REQUEST_FORMAT,
                "instance": instance_to_dict(small_instance),
                "schedule": schedule_to_dict(schedule),
                "strict": True,
            }
        )
        assert status == 200
        check_response_format(payload, VALIDATE_RESPONSE_FORMAT)
        assert payload["ok"] is True
        assert payload["violations"] == []
        assert payload["num_actions"] == len(schedule)

    def test_corrupted_schedule_reports_violation(
        self, service, small_instance
    ):
        schedule = build_pipeline(PIPELINE).run(small_instance, rng=0)
        data = schedule_to_dict(schedule)
        data["actions"] = data["actions"][1:]  # drop a prefix action
        status, payload = service.validate(
            {
                "format": VALIDATE_REQUEST_FORMAT,
                "instance": instance_to_dict(small_instance),
                "schedule": data,
                "strict": False,
            }
        )
        assert status == 200
        assert payload["ok"] is False
        assert payload["violations"]
        assert payload["violations"][0]["rule"] == "model-replay"

    def test_malformed_validate_400(self, service):
        status, payload = service.validate({"format": "rtsp-validate-request/9"})
        assert status == 400
        check_response_format(payload, ERROR_FORMAT)


class TestRepairEndpoint:
    def test_repair_round_trip(self, service, small_instance):
        status, payload = service.repair(
            {
                "format": REPAIR_REQUEST_FORMAT,
                "instance": instance_to_dict(small_instance),
                "fault_plan": {
                    "format": "rtsp-fault-plan/1",
                    "transfer_faults": [0, 3],
                    "crashes": [],
                    "slowdowns": [],
                },
                "pipeline": PIPELINE,
                "seed": 1,
                "validate": "basic",
            }
        )
        assert status == 200
        check_response_format(payload, REPAIR_RESPONSE_FORMAT)
        assert payload["completed"] is True
        assert payload["rounds"] >= 1
        assert payload["applied_schedule"]["actions"]

    def test_malformed_fault_plan_400(self, service, small_instance):
        status, payload = service.repair(
            {
                "format": REPAIR_REQUEST_FORMAT,
                "instance": instance_to_dict(small_instance),
                "fault_plan": {"format": "rtsp-fault-plan/1"},
            }
        )
        assert status == 400
        check_response_format(payload, ERROR_FORMAT)


class TestIntrospection:
    def test_healthz_counts_jobs_and_caches(self, service, small_instance):
        service.plan(plan_payload(small_instance))
        status, payload = service.healthz()
        assert status == 200
        check_response_format(payload, HEALTH_FORMAT)
        assert payload["status"] == "ok"
        assert payload["jobs"]["done"] >= 1
        assert payload["cache"]["topology"]["entries"] == 1
        assert payload["uptime_seconds"] > 0

    def test_metrics_exposition(self, service, small_instance):
        from repro.obs.export import parse_prometheus_text

        service.plan(plan_payload(small_instance))
        service.plan(plan_payload(small_instance))
        parsed = parse_prometheus_text(service.metrics_text())
        assert parsed["counters"]["rtsp_serve_requests_plan"] == 2.0
        assert parsed["counters"]["rtsp_serve_cache_plan_hits"] == 1.0
        assert parsed["histograms"]["rtsp_serve_plan_millis"]["count"] == 2


    def test_each_request_counts_one_cache_outcome(
        self, service, small_instance, other_instance
    ):
        from repro.obs.export import parse_prometheus_text

        service.plan(plan_payload(small_instance))  # sync cold
        _, accepted = service.plan(plan_payload(other_instance, mode="async"))
        assert wait_terminal(service, accepted["id"])["state"] == "done"
        _, replay = service.plan(plan_payload(small_instance))
        assert replay["cache_hit"] is True
        counters = parse_prometheus_text(service.metrics_text())["counters"]
        assert counters["rtsp_serve_cache_plan_misses"] == 2.0
        assert counters["rtsp_serve_cache_plan_hits"] == 1.0


class TestDefaultTimeout:
    def test_service_level_timeout_applies(self, small_instance):
        config = ServeConfig(workers=1, default_timeout=0.0)
        with PlanningService(config) as service:
            status, payload = service.plan(plan_payload(small_instance))
            assert status == 504
            assert payload["error"] == "timeout"


class TestDeepProgressIsolation:
    def test_other_threads_events_are_neither_recorded_nor_checked(
        self, service, small_instance, monkeypatch
    ):
        # The job's instruments live in its own thread's context: a
        # thread it starts sees no event stream at all, so nothing it
        # does can land in the job's log or raise the job's cancellation.
        foreign_streams = []
        foreign_errors = []

        def _foreign_heartbeat():
            try:
                foreign_streams.append(current_events())
            except BaseException as exc:  # noqa: BLE001 - recorded
                foreign_errors.append(exc)

        class _Pipeline:
            def run(self, instance, rng=None):
                stream = current_events()
                stream.emit("builder.progress", transfers=256)
                service.queue.get(stream.meta["job"]).cancel_event.set()
                other = threading.Thread(target=_foreign_heartbeat)
                other.start()
                other.join(timeout=10)
                assert not other.is_alive()
                return Schedule()

        monkeypatch.setattr(
            "repro.serve.service.build_pipeline", lambda spec: _Pipeline()
        )
        status, payload = service.plan(
            plan_payload(small_instance, mode="async")
        )
        assert status == 202
        assert wait_terminal(service, payload["id"])["state"] == "cancelled"
        assert foreign_streams == [None]
        assert foreign_errors == []
        progress = [
            event.attrs["transfers"]
            for event in service.queue.get(payload["id"]).stream.events
            if event.name == "builder.progress"
        ]
        assert progress == [256]


def _builder_events(events):
    return [
        (event.name, event.attrs)
        for event in events
        if event.name.startswith("builder.")
    ]


class TestPerJobInstruments:
    def test_concurrent_sharded_sync_plans_match_in_process(self):
        instances = [
            compose_instances(
                [paper_instance(2, 8, 30, rng=b) for b in range(blocks)]
            )
            for blocks in (4, 3)
        ]
        requests = [(inst, seed) for inst in instances for seed in (1, 2)]
        expected = [
            canonical_json(
                schedule_to_dict(
                    plan_sharded(
                        inst, PIPELINE, shards=4, workers=1, rng=seed
                    ).schedule
                )
            )
            for inst, seed in requests
        ]
        responses = [None] * len(requests)
        start = threading.Barrier(len(requests))

        def _plan(slot, inst, seed):
            start.wait(timeout=30)
            responses[slot] = service.plan(
                plan_payload(inst, seed=seed, shards=4)
            )

        with PlanningService(ServeConfig(workers=2)) as service:
            threads = [
                threading.Thread(target=_plan, args=(slot, *request))
                for slot, request in enumerate(requests)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
        for (status, payload), want in zip(responses, expected):
            assert status == 200, payload
            assert canonical_json(payload["schedule"]) == want

    def test_concurrent_jobs_each_get_their_own_progress(self):
        # Two paper-sized jobs run at once; one is cancelled mid-build.
        # Each job log carries exactly its own builder events: those of
        # an in-process run of the same instance and seed (a prefix of
        # them for the cancelled job, which stops at its next event).
        pipeline = "GOLCF+H1+H2+OP1"
        runs = [
            (paper_instance(2, 50, 500, rng=seed), seed) for seed in (0, 1)
        ]
        references = []
        for inst, seed in runs:
            stream = EventStream()
            with use_events(stream):
                build_pipeline(pipeline).run(inst, rng=seed)
            references.append(_builder_events(stream.events))
        with PlanningService(ServeConfig(workers=2)) as service:
            ids = []
            for inst, seed in runs:
                status, payload = service.plan(
                    plan_payload(
                        inst, pipeline=pipeline, seed=seed, mode="async"
                    )
                )
                assert status == 202
                ids.append(payload["id"])
            victim, survivor = (service.queue.get(i) for i in ids)
            deadline = time.monotonic() + 30
            while not any(
                e["name"] == "builder.progress" for e in victim.events_since()
            ):
                assert time.monotonic() < deadline, "no builder progress"
                time.sleep(0.001)
            assert service.cancel_job(victim.id)[0] == 202
            assert wait_terminal(service, victim.id)["state"] == "cancelled"
            assert wait_terminal(service, survivor.id, 60)["state"] == "done"
        cancelled = _builder_events(victim.stream.events)
        done = _builder_events(survivor.stream.events)
        assert any(name == "builder.progress" for name, _ in cancelled)
        assert any(name == "builder.progress" for name, _ in done)
        assert cancelled == references[0][: len(cancelled)]
        assert done == references[1]
