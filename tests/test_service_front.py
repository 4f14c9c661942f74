"""One serving front over both tiers.

:class:`~repro.serve.service.SkycubeService` owns admission, shedding,
deadlines, coalescing, error mapping and the request trace for every
backend.  Each check runs twice on the same data: over a static
:class:`~repro.serve.snapshot.SnapshotHolder` and over a 2-shard
:class:`~repro.shard.coordinator.ShardCoordinator`.
"""

import asyncio

import numpy as np
import pytest

from repro.serve import Request, ServingSnapshot, SkycubeService, SnapshotHolder
from repro.serve.service import request_from_json
from repro.shard import ShardCoordinator, ShardPlan
from repro.trace import BAD_REQUEST, DEADLINE_EXCEEDED, SHED, Tracer

#: The wire error each tier answers writes and ``skyline_diff`` with.
REFUSAL = {"static": "BadRequest", "sharded": "Unsupported"}
LIFECYCLE = {"admit", "batch", "compute", "respond"}


class ListTracer(Tracer):
    """Keeps every event in memory, in order."""

    enabled = True

    def __init__(self):
        super().__init__()
        self.events = []

    def emit(self, event):
        self.events.append(event)

    def request_level(self, stage):
        """``stage`` events of the service (no per-shard spans)."""
        return [
            event for event in self.events
            if event.stage == stage and "shard" not in event.extra
        ]


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(7)
    base = rng.integers(0, 30, size=(90, 4)).astype(np.float64)
    return np.ascontiguousarray(np.vstack([base, base[:6]]))


@pytest.fixture(params=["static", "sharded"])
def tier(request):
    return request.param


def make_service(tier, data, tracer, **kwargs):
    if tier == "static":
        backend = SnapshotHolder(
            ServingSnapshot.build(data, engine="packed-filtered")
        )
    else:
        backend = ShardCoordinator(
            data, ShardPlan.build(data, 2), tracer=tracer
        )
    return SkycubeService(backend, tracer=tracer, **kwargs)


def run_against(tier, data, scenario, **kwargs):
    """Start a traced service, run ``scenario(service)``, stop it."""
    tracer = ListTracer()

    async def main():
        service = make_service(tier, data, tracer, **kwargs)
        await service.start()
        try:
            return await scenario(service)
        finally:
            await service.stop()

    return asyncio.run(main()), tracer


def assert_full_lifecycles(tracer):
    """Every admitted query left admit, batch, compute and respond."""
    admitted = {
        event.request_id for event in tracer.request_level("admit")
        if event.outcome == "ok"
    }
    assert admitted
    stages = {}
    for event in tracer.events:
        if event.request_id in admitted and "shard" not in event.extra:
            stages.setdefault(event.request_id, set()).add(event.stage)
    for request_id in admitted:
        assert LIFECYCLE <= stages[request_id], (request_id, stages)


def test_full_queue_sheds(tier, data):
    async def scenario(service):
        return await asyncio.gather(*(
            service.submit(Request(op="skyline", delta=1))
            for _ in range(32)
        ))

    responses, tracer = run_against(
        tier, data, scenario, window=0.2, max_batch=512, max_pending=4
    )
    shed = [r for r in responses if not r.ok]
    assert len(shed) == 28 and sum(r.ok for r in responses) == 4
    assert all(r.error == "Overloaded" for r in shed)
    assert all(r.failure_class == SHED for r in shed)
    shed_admits = [
        event for event in tracer.request_level("admit")
        if event.outcome == "failure"
    ]
    assert len(shed_admits) == 28
    assert all(event.failure == SHED for event in shed_admits)
    assert_full_lifecycles(tracer)


def test_expired_timeout_answers_deadline_exceeded(tier, data):
    async def scenario(service):
        now = asyncio.get_running_loop().time()
        expired = request_from_json(
            {"op": "skyline", "delta": 3, "timeout_ms": 0.1}, 4, now
        )
        generous = request_from_json(
            {"op": "skyline", "delta": 3, "timeout_ms": 30_000}, 4, now
        )
        return await asyncio.gather(
            service.submit(expired), service.submit(generous)
        )

    (expired, generous), tracer = run_against(
        tier, data, scenario, window=0.05
    )
    assert expired.error == "DeadlineExceeded"
    assert expired.failure_class == DEADLINE_EXCEEDED
    assert generous.ok
    assert_full_lifecycles(tracer)


def test_identical_requests_execute_once(tier, data):
    full = (1 << data.shape[1]) - 1

    async def scenario(service):
        return await asyncio.gather(*(
            service.submit(Request(op="skyline", delta=full))
            for _ in range(8)
        ))

    responses, tracer = run_against(
        tier, data, scenario, window=0.02, max_batch=32
    )
    want = list(
        ServingSnapshot.build(data, engine="packed-filtered").skyline(full)
    )
    assert all(r.ok and r.result == want for r in responses)
    computes = tracer.request_level("compute")
    assert len(computes) == 8
    executed = [event for event in computes if event.detail != "coalesced"]
    assert len(executed) == 1
    assert executed[0].duration_ms is not None
    if tier == "sharded":
        merges = [event for event in tracer.events if event.stage == "merge"]
        assert len(merges) == 1
        assert merges[0].request_id == executed[0].request_id
    assert_full_lifecycles(tracer)


def test_unknown_point_is_not_found(tier, data):
    async def scenario(service):
        return await service.submit(
            Request(op="membership", point_id=99_999, delta=1)
        )

    response, tracer = run_against(tier, data, scenario, window=0.0)
    assert response.error == "NotFound"
    assert response.failure_class == BAD_REQUEST
    assert_full_lifecycles(tracer)


def test_writes_are_refused_with_the_tier_error(tier, data):
    async def scenario(service):
        return [
            await service.submit(Request(op="insert", point=(1.0,) * 4)),
            await service.submit(Request(op="delete", point_id=0)),
            await service.submit(
                Request(op="skyline_diff", delta=1, v_from=0, v_to=1)
            ),
        ]

    responses, tracer = run_against(tier, data, scenario, window=0.0)
    for response in responses:
        assert not response.ok
        assert response.error == REFUSAL[tier]
        assert response.failure_class == BAD_REQUEST
    if tier == "sharded":
        assert all("SHARDING.md" in r.message for r in responses)
    responds = tracer.request_level("respond")
    assert [event.failure for event in responds] == [BAD_REQUEST] * 3
    assert_full_lifecycles(tracer)  # the batched skyline_diff
