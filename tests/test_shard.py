"""End-to-end tests for the sharded scatter–gather tier.

Real worker processes, real pipes.  The acceptance bar is
**bit-identity**: every sharded answer must equal the single-process
``engine="packed-filtered"`` snapshot's answer — same ids, same order —
for every partitioner.  On top of that: shard death degrades into a
typed partial response (never a wrong answer), the background respawn
restores full answers, and one coordinator-side trace file stitches
the whole fan-out (per-shard compute spans, merge barrier, straggler
attribution) under the request's id.
"""

import asyncio
import os
import signal

import numpy as np
import pytest

from repro.data.generator import generate
from repro.serve.service import Request, SkycubeService
from repro.serve.snapshot import ServingSnapshot
from repro.shard import NoLiveShardsError, ShardCoordinator, ShardPlan
from repro.shard.plan import PARTITIONER_NAMES
from repro.trace import WORKER_DEATH, JsonlTracer
from repro.trace.analyze import analyze_file


def run(coro):
    return asyncio.run(coro)


@pytest.fixture(scope="module")
def data():
    # Integer-valued floats with deliberate duplicate rows: ties must
    # survive the distributed merge bit-for-bit.
    rng = np.random.default_rng(42)
    base = rng.integers(0, 40, size=(110, 4)).astype(np.float64)
    return np.ascontiguousarray(np.vstack([base, base[:10]]))


@pytest.fixture(scope="module")
def reference(data):
    return ServingSnapshot.build(data, engine="packed-filtered")


def kill_shard(coordinator, shard):
    """SIGKILL one worker and wait until the OS has reaped it."""
    process = coordinator.handles[shard].process
    os.kill(process.pid, signal.SIGKILL)
    process.join(timeout=5.0)
    assert not process.is_alive()


class TestBitIdentity:
    @pytest.mark.parametrize("partitioner", PARTITIONER_NAMES)
    def test_all_ops_match_single_process(
        self, data, reference, partitioner
    ):
        full = (1 << data.shape[1]) - 1

        async def scenario():
            plan = ShardPlan.build(data, 3, partitioner=partitioner)
            coordinator = ShardCoordinator(data, plan)
            await asyncio.to_thread(coordinator.start)
            try:
                for delta in (full, 0b0101, 0b0011, 0b1000):
                    got, failed = await coordinator.skyline(delta)
                    assert failed == []
                    assert got == list(reference.skyline(delta))
                for pid in (0, 7, 55, len(data) - 1):
                    got, failed = await coordinator.membership(pid, full)
                    assert failed == []
                    assert got == reference.membership(pid, full)
                q = [12.0, 30.0, 5.0, 21.5]
                for delta in (None, 0b1011, 0b0100):
                    got, failed = await coordinator.topk_dynamic(
                        q, 6, delta
                    )
                    assert failed == []
                    assert got == reference.topk_dynamic(q, 6, delta)
            finally:
                await coordinator.aclose()

        run(scenario())

    def test_duplicate_points_are_not_skyline_members(self, data, reference):
        """Exact duplicates tie (never strictly dominate), and the
        distributed membership must agree with the local engine on
        them — rows 110.. duplicate rows 0..9 by construction."""
        full = (1 << data.shape[1]) - 1

        async def scenario():
            plan = ShardPlan.build(data, 4, partitioner="random")
            coordinator = ShardCoordinator(data, plan)
            await asyncio.to_thread(coordinator.start)
            try:
                for pid in range(110, len(data)):
                    got, _ = await coordinator.membership(pid, full)
                    assert got == reference.membership(pid, full)
            finally:
                await coordinator.aclose()

        run(scenario())


class TestCoordinatorLifecycle:
    def test_start_is_idempotent_and_status_reports(self, data):
        async def scenario():
            plan = ShardPlan.build(data, 2)
            coordinator = ShardCoordinator(data, plan)
            await asyncio.to_thread(coordinator.start)
            await asyncio.to_thread(coordinator.start)  # no-op
            try:
                status = coordinator.status()
                assert status["alive"] == [True, True]
                assert status["shards"] == 2
                assert coordinator.alive_count == 2
            finally:
                await coordinator.aclose()

        run(scenario())

    def test_shape_mismatch_rejected(self, data):
        plan = ShardPlan.build(data, 2)
        with pytest.raises(ValueError, match="plan covers"):
            ShardCoordinator(data[:-1], plan)

    def test_nonpositive_timeout_rejected(self, data):
        plan = ShardPlan.build(data, 2)
        with pytest.raises(ValueError, match="timeout"):
            ShardCoordinator(data, plan, timeout=0)

    def test_worker_side_error_is_a_value_error(self, data):
        async def scenario():
            plan = ShardPlan.build(data, 2)
            coordinator = ShardCoordinator(data, plan)
            await asyncio.to_thread(coordinator.start)
            try:
                handle = coordinator.handles[0]
                with pytest.raises(ValueError, match="unknown shard op"):
                    handle.call("frobnicate", None, timeout=5.0)
                # the worker survives a bad request
                assert handle.alive
                payload, _ = handle.call("ping", None, timeout=5.0)
                assert payload == {"n": handle.n_local}
            finally:
                await coordinator.aclose()

        run(scenario())

    def test_bad_query_vector_rejected(self, data):
        async def scenario():
            plan = ShardPlan.build(data, 2)
            coordinator = ShardCoordinator(data, plan)
            await asyncio.to_thread(coordinator.start)
            try:
                with pytest.raises(ValueError, match="coordinates"):
                    await coordinator.topk_dynamic([1.0, 2.0], 3)
                nan_query = [float("nan")] + [1.0] * (data.shape[1] - 1)
                with pytest.raises(ValueError, match="NaN"):
                    await coordinator.topk_dynamic(nan_query, 3)
                with pytest.raises(KeyError):
                    await coordinator.membership(10_000, 1)
            finally:
                await coordinator.aclose()

        run(scenario())


class TestChaos:
    def test_sigkill_degrades_then_respawns(self, data, reference, tmp_path):
        """The ISSUE 8 chaos bar: SIGKILL one shard mid-flight, assert a
        typed partial (degraded) response, a clean stitched trace, and
        full recovery via the background respawn."""
        full = (1 << data.shape[1]) - 1
        trace_path = tmp_path / "chaos.jsonl"

        async def scenario():
            plan = ShardPlan.build(data, 3, partitioner="grid")
            tracer = JsonlTracer(str(trace_path))
            coordinator = ShardCoordinator(
                data, plan, tracer=tracer, auto_respawn=True
            )
            service = SkycubeService(coordinator, tracer=tracer)
            await service.start()
            try:
                response = await service.submit(
                    Request(op="skyline", delta=full)
                )
                assert response.ok and response.partial is None
                assert response.result == list(reference.skyline(full))

                kill_shard(coordinator, 1)
                degraded = await service.submit(
                    Request(op="skyline", delta=full)
                )
                assert degraded.ok  # degraded, not failed
                assert degraded.partial == {
                    "degraded": True,
                    "failed_shards": [1],
                    "failure_class": WORKER_DEATH,
                }
                # the degraded skyline is the exact skyline of the
                # surviving shards' points — a subset, never garbage
                assert set(degraded.result) <= set(reference.skyline(full))
                wire = degraded.to_json()
                assert wire["partial"]["failed_shards"] == [1]

                assert await coordinator.wait_ready(timeout=10.0)
                recovered = await service.submit(
                    Request(op="skyline", delta=full)
                )
                assert recovered.ok and recovered.partial is None
                assert recovered.result == list(reference.skyline(full))
            finally:
                await service.stop()
                tracer.close()

        run(scenario())

        report = analyze_file(str(trace_path))
        assert not report.unclassified  # every failure is classified
        assert report.failures == {WORKER_DEATH: 1}
        assert report.shard_failures == {1: 1}
        assert report.merges == 3
        assert set(report.shard_compute) == {0, 1, 2}
        assert report.executor_events.get("shard_respawned") == 1

    def test_all_shards_dead_is_internal_worker_death(self, data):
        async def scenario():
            plan = ShardPlan.build(data, 2)
            coordinator = ShardCoordinator(data, plan, auto_respawn=False)
            service = SkycubeService(coordinator)
            await service.start()
            try:
                kill_shard(coordinator, 0)
                kill_shard(coordinator, 1)
                response = await service.submit(
                    Request(op="skyline", delta=1)
                )
                assert not response.ok
                assert response.error == "Internal"
                assert response.failure_class == WORKER_DEATH
                with pytest.raises(NoLiveShardsError):
                    await coordinator.skyline(1)
            finally:
                await service.stop()

        run(scenario())

    def test_membership_degrades_on_death(self, data):
        """A degraded membership answer still carries the marker: with
        a shard missing, 'no dominator found' is only evidence from the
        survivors."""
        full = (1 << data.shape[1]) - 1

        async def scenario():
            plan = ShardPlan.build(data, 3)
            coordinator = ShardCoordinator(data, plan, auto_respawn=False)
            await asyncio.to_thread(coordinator.start)
            try:
                kill_shard(coordinator, 2)
                _, failed = await coordinator.membership(3, full)
                assert failed == [2]
            finally:
                await coordinator.aclose()

        run(scenario())


class TestTraceStitching:
    def test_one_request_id_ties_the_fanout(self, data, tmp_path):
        """ISSUE 8 acceptance: per-shard compute spans and the merge
        barrier's straggler attribution, recovered from one trace file
        for one request id."""
        trace_path = tmp_path / "fanout.jsonl"
        full = (1 << data.shape[1]) - 1

        async def scenario():
            plan = ShardPlan.build(data, 3, partitioner="angular")
            tracer = JsonlTracer(str(trace_path))
            coordinator = ShardCoordinator(data, plan, tracer=tracer)
            await asyncio.to_thread(coordinator.start)
            try:
                await coordinator.skyline(full, request_id=777)
            finally:
                await coordinator.aclose()
                tracer.close()

        run(scenario())

        events = [
            event for event in _load_events(trace_path)
            if event.request_id == 777
        ]
        compute = [e for e in events if e.stage == "compute"]
        merges = [e for e in events if e.stage == "merge"]
        assert sorted(e.extra["shard"] for e in compute) == [0, 1, 2]
        assert all(e.duration_ms is not None for e in compute)
        assert len(merges) == 1
        merge = merges[0]
        assert merge.extra["shards"] == 3
        assert merge.extra["failed_shards"] == 0
        assert merge.extra["candidates"] >= 1
        assert merge.extra["straggler_shard"] in (0, 1, 2)
        assert merge.extra["straggler_ms"] >= merge.extra["fastest_ms"]
        assert merge.extra["barrier_ms"] >= 0

    def test_analyze_reports_straggler_attribution(self, data, tmp_path):
        trace_path = tmp_path / "many.jsonl"
        full = (1 << data.shape[1]) - 1

        async def scenario():
            plan = ShardPlan.build(data, 2)
            tracer = JsonlTracer(str(trace_path))
            coordinator = ShardCoordinator(data, plan, tracer=tracer)
            await asyncio.to_thread(coordinator.start)
            try:
                for request_id in range(5):
                    await coordinator.skyline(full, request_id=request_id)
            finally:
                await coordinator.aclose()
                tracer.close()

        run(scenario())
        report = analyze_file(str(trace_path))
        assert report.merges == 5
        assert sum(report.stragglers.values()) == 5
        assert set(report.stragglers) <= {0, 1}
        from repro.trace.analyze import format_report

        text = format_report(report)
        assert "per-shard compute spans (ms):" in text
        assert "merge barriers: 5, straggler attribution:" in text


class TestServiceSurface:
    def test_ping_metrics_and_rejections(self, data):
        async def scenario():
            plan = ShardPlan.build(data, 2, partitioner="tree-leaf")
            coordinator = ShardCoordinator(data, plan)
            service = SkycubeService(coordinator)
            await service.start()
            try:
                ping = await service.submit(Request(op="ping"))
                assert ping.result == {
                    "d": 4, "n": len(data), "shards": 2, "alive": 2,
                    "partitioner": "tree-leaf",
                }
                metrics = await service.submit(Request(op="metrics"))
                assert metrics.result["shards"]["alive"] == [True, True]
                for op in ("insert", "delete", "skyline_diff"):
                    rejected = await service.submit(
                        Request(op=op, point=(1.0, 2.0, 3.0, 4.0),
                                point_id=0, delta=1, v_from=0, v_to=1)
                    )
                    assert not rejected.ok
                    assert rejected.error == "Unsupported"
                    assert "live updates" in rejected.message
                    assert "SHARDING.md" in rejected.message
                missing = await service.submit(
                    Request(op="membership", point_id=99_999, delta=1)
                )
                assert not missing.ok and missing.error == "NotFound"
            finally:
                await service.stop()

        run(scenario())

    def test_coalesced_batch_answers_every_rider(self, data, reference):
        full = (1 << data.shape[1]) - 1

        async def scenario():
            plan = ShardPlan.build(data, 2)
            coordinator = ShardCoordinator(data, plan)
            service = SkycubeService(coordinator, window=0.01, max_batch=32)
            await service.start()
            try:
                responses = await asyncio.gather(*(
                    service.submit(Request(op="skyline", delta=full))
                    for _ in range(8)
                ))
                assert all(r.ok for r in responses)
                want = list(reference.skyline(full))
                assert all(r.result == want for r in responses)
            finally:
                await service.stop()

        run(scenario())


def _load_events(path):
    from repro.trace import TraceEvent

    events = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                events.append(TraceEvent.from_json(line))
    return events
