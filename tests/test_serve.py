"""Tests for the repro.serve subsystem.

Covers, per ISSUE 3: snapshot immutability + atomic swap, the
micro-batcher's coalescing, the service's admission control / load
shedding / deadline propagation, the NDJSON server + blocking client
round-trip, graceful drain, and — the critical one — consistency of
every response with exactly one published snapshot while a
SkycubeMaintainer applies live inserts and deletes underneath.
"""

import asyncio
import json
import threading

import numpy as np
import pytest

from repro.core.bitmask import full_space
from repro.data.generator import generate
from repro.engine import fast_skyline
from repro.serve import (
    LiveUpdater,
    MicroBatcher,
    Request,
    ServeClient,
    ServeError,
    ServeMetrics,
    ServingSnapshot,
    SkycubeServer,
    SkycubeService,
    SnapshotHolder,
)
from repro.serve.metrics import LatencyHistogram
from repro.serve.service import request_from_json


def run(coroutine):
    return asyncio.run(coroutine)


@pytest.fixture
def data():
    return generate("independent", 80, 4, seed=11)


@pytest.fixture
def snapshot(data):
    return ServingSnapshot.build(data)


@pytest.fixture
def holder(snapshot):
    return SnapshotHolder(snapshot)


async def started_service(holder, **kwargs):
    service = SkycubeService(holder, **kwargs)
    await service.start()
    return service


# -- snapshot ---------------------------------------------------------


class TestServingSnapshot:
    def test_matches_fast_kernels(self, data, snapshot):
        for delta in (1, 3, 7, full_space(4)):
            expected = tuple(int(i) for i in fast_skyline(data, delta))
            assert snapshot.skyline(delta) == expected

    def test_membership_agrees_with_skyline(self, data, snapshot):
        for delta in (1, 5, full_space(4)):
            members = set(snapshot.skyline(delta))
            for pid in range(len(data)):
                assert snapshot.membership(pid, delta) == (pid in members)

    def test_unknown_point_raises(self, snapshot):
        with pytest.raises(KeyError):
            snapshot.membership(10_000, 1)

    def test_invalid_subspace_raises(self, snapshot):
        with pytest.raises(KeyError):
            snapshot.skyline(0)
        with pytest.raises(KeyError):
            snapshot.skyline(1 << 4)

    def test_partial_cube_adhoc_fallback(self, data):
        partial = ServingSnapshot.build(data, max_level=2)
        full = ServingSnapshot.build(data)
        for delta in (7, full_space(4)):  # above max_level: kernel path
            assert not partial.materialised(delta)
            assert partial.skyline(delta) == full.skyline(delta)
        for pid in partial.skyline(7):
            assert partial.membership(pid, 7)

    def test_data_is_immutable(self, snapshot):
        with pytest.raises(ValueError):
            snapshot.data[0, 0] = -1.0

    def test_topk_dynamic_self_is_closest(self, data, snapshot):
        top = snapshot.topk_dynamic(data[5], k=1)
        assert top == [5]

    def test_from_maintainer_matches_build(self, data):
        from repro.core.maintain import SkycubeMaintainer

        built = ServingSnapshot.build(data)
        frozen = ServingSnapshot.from_maintainer(SkycubeMaintainer(data), 0)
        for delta in range(1, full_space(4) + 1):
            assert frozen.skyline(delta) == built.skyline(delta)


class TestSnapshotHolder:
    def test_publish_swaps_atomically(self, data, holder):
        old = holder.current
        new = ServingSnapshot.build(data[:40], version=old.version + 1)
        holder.publish(new)
        assert holder.current is new

    def test_stale_version_rejected(self, data, holder):
        stale = ServingSnapshot.build(data, version=holder.version)
        with pytest.raises(ValueError):
            holder.publish(stale)

    def test_subscribers_see_every_publish(self, data, holder):
        seen = []
        holder.subscribe(lambda snapshot: seen.append(snapshot.version))
        for version in (1, 2, 3):
            holder.publish(ServingSnapshot.build(data, version=version))
        assert seen == [1, 2, 3]


# -- batcher ----------------------------------------------------------


class TestMicroBatcher:
    def test_coalesces_within_window(self):
        async def scenario():
            sizes = []

            def double(batch):
                sizes.append(len(batch))
                return [value * 2 for value in batch]

            batcher = MicroBatcher(double, window=0.02, max_batch=64)
            await batcher.start()
            results = await asyncio.gather(
                *(batcher.submit(i) for i in range(10))
            )
            await batcher.stop()
            return results, sizes

        results, sizes = run(scenario())
        assert results == [i * 2 for i in range(10)]
        assert sizes == [10]  # one flush: all ten coalesced

    def test_max_batch_caps_flush_size(self):
        async def scenario():
            sizes = []

            def echo(batch):
                sizes.append(len(batch))
                return list(batch)

            batcher = MicroBatcher(echo, window=0.02, max_batch=4)
            await batcher.start()
            await asyncio.gather(*(batcher.submit(i) for i in range(10)))
            await batcher.stop()
            return sizes

        sizes = run(scenario())
        assert all(size <= 4 for size in sizes)
        assert sum(sizes) == 10

    def test_executor_error_resolves_all_waiters(self):
        async def scenario():
            def boom(batch):
                raise RuntimeError("executor exploded")

            batcher = MicroBatcher(boom, window=0.005, max_batch=8)
            await batcher.start()
            results = await asyncio.gather(
                *(batcher.submit(i) for i in range(3)),
                return_exceptions=True,
            )
            await batcher.stop()
            return results

        results = run(scenario())
        assert all(isinstance(r, RuntimeError) for r in results)

    def test_stop_flushes_stragglers(self):
        async def scenario():
            batcher = MicroBatcher(
                lambda batch: list(batch), window=5.0, max_batch=64
            )
            await batcher.start()
            waiter = asyncio.ensure_future(batcher.submit(42))
            await asyncio.sleep(0.01)
            await batcher.stop()  # must not strand the queued request
            return await waiter

        assert run(scenario()) == 42

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            MicroBatcher(lambda batch: batch, window=-1)
        with pytest.raises(ValueError):
            MicroBatcher(lambda batch: batch, max_batch=0)


# -- service ----------------------------------------------------------


class TestService:
    def test_batch_deduplicates_identical_queries(self, holder):
        async def scenario():
            service = await started_service(
                holder, window=0.02, max_batch=256
            )
            responses = await asyncio.gather(
                *(service.submit(Request(op="skyline", delta=3))
                  for _ in range(50))
            )
            await service.stop()
            return responses, service.metrics

        responses, metrics = run(scenario())
        expected = list(holder.current.skyline(3))
        assert all(r.ok and r.result == expected for r in responses)
        # 50 concurrent identical queries should land in very few
        # batches, not 50 singletons.
        assert metrics.batches <= 3
        assert metrics.max_batch_size >= 25

    def test_load_shedding_is_typed_and_bounded(self, holder):
        async def scenario():
            service = await started_service(
                holder, window=0.2, max_batch=512, max_pending=8
            )
            responses = await asyncio.gather(
                *(service.submit(Request(op="skyline", delta=1))
                  for _ in range(64))
            )
            await service.stop()
            return responses, service.metrics

        responses, metrics = run(scenario())
        ok = [r for r in responses if r.ok]
        shed = [r for r in responses if r.error == "Overloaded"]
        assert len(ok) + len(shed) == 64
        assert len(shed) >= 1
        # Every shed response carries its taxonomy class for the trace.
        assert all(r.failure_class == "Shed" for r in shed)
        assert metrics.shed == len(shed)
        # The bounded queue never exceeded its configured bound.
        assert metrics.peak_queue_depth <= 8

    def test_deadline_propagation(self, holder):
        async def scenario():
            service = await started_service(holder, window=0.05)
            loop = asyncio.get_running_loop()
            expired = service.submit(
                Request(op="skyline", delta=1,
                        deadline=loop.time() + 0.001)
            )
            generous = service.submit(
                Request(op="skyline", delta=1,
                        deadline=loop.time() + 30.0)
            )
            results = await asyncio.gather(expired, generous)
            await service.stop()
            return results

        expired, generous = run(scenario())
        assert expired.error == "DeadlineExceeded"
        assert expired.failure_class == "DeadlineExceeded"
        assert generous.ok
        assert generous.failure_class is None

    def test_metrics_and_ping_ops(self, holder):
        async def scenario():
            service = await started_service(holder, window=0.0)
            await service.submit(Request(op="skyline", delta=1))
            ping = await service.submit(Request(op="ping"))
            metrics = await service.submit(Request(op="metrics"))
            await service.stop()
            return ping, metrics

        ping, metrics = run(scenario())
        assert ping.result == {"d": 4, "n": 80}
        assert metrics.result["requests"]["skyline"] == 1
        assert "p99_ms" in metrics.result["latency"]["skyline"]

    def test_updates_disabled_without_updater(self, holder):
        async def scenario():
            service = await started_service(holder, window=0.0)
            response = await service.submit(
                Request(op="insert", point=(0.0, 0.0, 0.0, 0.0))
            )
            await service.stop()
            return response

        assert run(scenario()).error == "BadRequest"

    def test_counters_integration(self, holder):
        async def scenario():
            metrics = ServeMetrics()
            service = await started_service(
                holder, window=0.0, metrics=metrics
            )
            await service.submit(Request(op="skyline", delta=1))
            await service.stop()
            return metrics

        metrics = run(scenario())
        assert metrics.counters.extra["serve.requests"] == 1
        assert metrics.counters.extra["serve.requests.skyline"] == 1
        assert "serve.requests" in metrics.counters.as_dict()


class TestRequestDecoding:
    def test_delta_forms(self):
        for raw in ("0b101", "5", 5, "0,2"):
            request = request_from_json(
                {"op": "skyline", "delta": raw}, d=4, now=0.0
            )
            assert request.delta == 5

    def test_bad_requests_raise(self):
        bad = [
            {"op": "nope"},
            {"op": "skyline"},  # missing delta
            {"op": "skyline", "delta": "0b0"},
            {"op": "skyline", "delta": 1 << 9},
            {"op": "membership", "delta": 1},  # missing point_id
            {"op": "membership", "delta": 1, "point_id": "x"},
            {"op": "topk_dynamic"},  # missing q
            {"op": "topk_dynamic", "q": [1.0]},  # wrong arity
            {"op": "topk_dynamic", "q": [1.0] * 4, "k": 0},
            {"op": "skyline", "delta": 1, "timeout_ms": -5},
            {"op": "insert"},  # missing point
            "not a dict",
        ]
        for obj in bad:
            with pytest.raises(ValueError):
                request_from_json(obj, d=4, now=0.0)

    def test_hyphenated_op_accepted(self):
        request = request_from_json(
            {"op": "topk-dynamic", "q": [0.0] * 4}, d=4, now=0.0
        )
        assert request.op == "topk_dynamic"

    def test_timeout_becomes_absolute_deadline(self):
        request = request_from_json(
            {"op": "skyline", "delta": 1, "timeout_ms": 250}, d=4, now=100.0
        )
        assert request.deadline == pytest.approx(100.25)


# -- metrics ----------------------------------------------------------


class TestLatencyHistogram:
    def test_percentiles_are_monotone_bounds(self):
        histogram = LatencyHistogram()
        for ms in (1, 1, 1, 1, 1, 1, 1, 1, 1, 500):
            histogram.record(ms / 1000.0)
        assert histogram.total == 10
        assert histogram.percentile(0.5) <= histogram.percentile(0.99)
        assert histogram.percentile(0.99) >= 0.4  # the straggler shows

    def test_empty_histogram(self):
        histogram = LatencyHistogram()
        assert histogram.percentile(0.99) == 0.0
        assert histogram.mean == 0.0
        with pytest.raises(ValueError):
            histogram.percentile(0.0)


# -- server + client round trip ---------------------------------------


class TestServerRoundTrip:
    def test_client_queries_over_tcp(self, data, holder):
        async def scenario():
            service = await started_service(holder, window=0.002)
            server = SkycubeServer(service, port=0)
            await server.start()
            host, port = server.address

            def client_work():
                with ServeClient(host, port) as client:
                    info = client.ping()
                    skyline = client.skyline("0b011")
                    member = client.membership(skyline[0], "0b011")
                    topk = client.topk_dynamic(list(data[0]), k=3)
                    metrics = client.metrics()
                    with pytest.raises(ServeError) as err:
                        client.membership(99_999, 1)
                    return info, skyline, member, topk, metrics, err.value

            result = await asyncio.to_thread(client_work)
            server.request_shutdown()
            await server.serve_until_shutdown()
            return result

        info, skyline, member, topk, metrics, not_found = run(scenario())
        assert info == {"d": 4, "n": 80}
        assert skyline == list(holder.current.skyline(3))
        assert member is True
        assert topk[0] == 0
        assert metrics["requests"]["skyline"] == 1
        assert not_found.error_type == "NotFound"

    def test_malformed_lines_get_typed_bad_request(self, holder):
        async def scenario():
            service = await started_service(holder, window=0.0)
            server = SkycubeServer(service, port=0)
            await server.start()
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"this is not json\n")
            writer.write(json.dumps({"id": 9, "op": "warp"}).encode() + b"\n")
            await writer.drain()
            first = json.loads(await reader.readline())
            second = json.loads(await reader.readline())
            writer.close()
            await writer.wait_closed()
            server.request_shutdown()
            await server.serve_until_shutdown()
            return first, second

        responses = run(scenario())
        # Responses on one connection may reorder; match by echoed id.
        by_id = {response["id"]: response for response in responses}
        assert set(by_id) == {None, 9}
        for response in responses:
            assert response["ok"] is False
            assert response["error"]["type"] == "BadRequest"

    def test_graceful_drain_finishes_inflight(self, holder):
        async def scenario():
            service = await started_service(
                holder, window=0.05, max_batch=512
            )
            server = SkycubeServer(service, port=0)
            await server.start()
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(
                json.dumps({"id": 1, "op": "skyline", "delta": 3}).encode()
                + b"\n"
            )
            await writer.drain()
            await asyncio.sleep(0.01)  # request parked in the window
            server.request_shutdown()
            await server.serve_until_shutdown()
            # The in-flight response was written before the close.
            response = json.loads(await reader.readline())
            writer.close()
            await writer.wait_closed()
            return response

        response = run(scenario())
        assert response["ok"] is True
        assert response["id"] == 1


# -- live updates under serving (the torn-read test) -------------------


class TestLiveUpdateConsistency:
    def test_responses_match_exactly_one_snapshot(self):
        """Interleave queries with maintainer inserts/deletes.

        Every published snapshot is retained; each response must equal
        the answer of the snapshot whose version it reports — i.e. a
        response reflects exactly the pre- or post-update state, never
        a torn mix.
        """
        data = generate("anticorrelated", 50, 3, seed=5)
        rng = np.random.default_rng(7)
        deltas = list(range(1, full_space(3) + 1))

        async def scenario():
            updater, holder = LiveUpdater.bootstrap(data)
            snapshots = {holder.current.version: holder.current}
            holder.subscribe(
                lambda snapshot: snapshots.setdefault(
                    snapshot.version, snapshot
                )
            )
            service = SkycubeService(
                updater, window=0.002, max_batch=64, max_pending=512,
            )
            await service.start()
            server = SkycubeServer(service, port=0)
            await server.start()
            host, port = server.address

            stop = threading.Event()
            checked = {"queries": 0}
            failures = []

            def retained(version):
                # publish() swaps the reference *before* firing the
                # subscriber, so a response can briefly cite a version
                # the dict has not recorded yet — wait it out.
                import time as _time

                for _ in range(1000):
                    snapshot = snapshots.get(version)
                    if snapshot is not None:
                        return snapshot
                    _time.sleep(0.001)
                raise AssertionError(f"version {version} never published")

            def querier(seed):
                generator = np.random.default_rng(seed)
                with ServeClient(host, port) as client:
                    while not stop.is_set():
                        delta = int(generator.choice(deltas))
                        response = client.request("skyline", delta=delta)
                        snapshot = retained(response["snapshot_version"])
                        got = list(response["result"])
                        want = list(snapshot.skyline(delta))
                        if got != want:
                            failures.append(
                                (snapshot.version, delta, got, want)
                            )
                        # Membership must agree with whichever snapshot
                        # answered it (the point may be deleted by then:
                        # a typed NotFound is the one acceptable miss).
                        if want:
                            pid = int(generator.choice(want))
                            try:
                                member = client.request(
                                    "membership", point_id=pid, delta=delta
                                )
                            except ServeError as error:
                                if error.error_type != "NotFound":
                                    failures.append(
                                        ("member-error", delta, pid,
                                         error.error_type)
                                    )
                            else:
                                at = retained(member["snapshot_version"])
                                if member["result"] != at.membership(
                                    pid, delta
                                ):
                                    failures.append(
                                        (at.version, delta, pid,
                                         member["result"])
                                    )
                        checked["queries"] += 1

            def mutator():
                import time as _time

                with ServeClient(host, port) as client:
                    inserted = []
                    for step in range(12):
                        if inserted and step % 3 == 2:
                            client.delete(inserted.pop(0))
                        else:
                            point = rng.random(3).tolist()
                            inserted.append(client.insert(point))
                        _time.sleep(0.003)  # let queries interleave

            query_threads = [
                threading.Thread(target=querier, args=(seed,))
                for seed in (101, 202)
            ]
            for thread in query_threads:
                thread.start()
            try:
                await asyncio.to_thread(mutator)
                await asyncio.sleep(0.05)
            finally:
                stop.set()
                for thread in query_threads:
                    await asyncio.to_thread(thread.join)
            server.request_shutdown()
            await server.serve_until_shutdown()
            return snapshots, checked["queries"], failures

        snapshots, queries, failures = run(scenario())
        assert failures == [], failures[:5]
        assert len(snapshots) == 13  # initial + 12 updates, all published
        assert queries >= 10  # the queriers really ran during updates


class TestSkylineDiffOp:
    def test_diff_over_wire_matches_endpoint_snapshots(self):
        data = generate("anticorrelated", 40, 3, seed=13)

        async def scenario():
            updater, holder = LiveUpdater.bootstrap(data)
            snapshots = {0: holder.current}
            holder.subscribe(
                lambda snapshot: snapshots.setdefault(
                    snapshot.version, snapshot
                )
            )
            service = SkycubeService(updater, window=0.0)
            await service.start()
            server = SkycubeServer(service, port=0)
            await server.start()
            host, port = server.address

            def client_work():
                with ServeClient(host, port) as client:
                    pid = client.insert([0.0, 0.0, 0.0])  # v1: dominator
                    delete_version = client.delete(pid)  # v2: back out
                    raw = client.request(
                        "skyline_diff", delta=7,
                        **{"from": 0, "to": 1},
                    )
                    round_trip = client.skyline_diff(7, 0, 2)
                    with pytest.raises(ServeError) as err:
                        client.skyline_diff(7, 2, 1)
                    return pid, delete_version, raw, round_trip, err.value

            result = await asyncio.to_thread(client_work)
            server.request_shutdown()
            await server.serve_until_shutdown()
            return snapshots, result

        snapshots, (pid, delete_version, raw, round_trip, bad) = run(
            scenario()
        )
        assert delete_version == 2
        assert raw["snapshot_version"] == 2
        assert raw["result"]["from"] == 0 and raw["result"]["to"] == 1
        # v0 -> v1: the all-zero dominator entered, everyone else left.
        before = set(snapshots[0].skyline(7))
        after = set(snapshots[1].skyline(7))
        assert raw["result"]["entered"] == sorted(after - before) == [pid]
        assert raw["result"]["left"] == sorted(before - after)
        # v0 -> v2 composes back to no net movement.
        assert round_trip == {"entered": [], "left": []}
        assert bad.error_type == "BadRequest"
        assert "from < to" in bad.message

    def test_diff_without_updater_is_typed_bad_request(self, holder):
        async def scenario():
            service = await started_service(holder, window=0.0)
            response = await service.submit(
                Request(op="skyline_diff", delta=1, v_from=0, v_to=1)
            )
            await service.stop()
            return response

        response = run(scenario())
        assert response.error == "BadRequest"
        assert "changelog" in response.message

    def test_wire_decoding(self):
        request = request_from_json(
            {"op": "skyline_diff", "delta": "0b11", "from": 2, "to": 5},
            d=4, now=0.0,
        )
        assert (request.delta, request.v_from, request.v_to) == (3, 2, 5)
        # The version window is part of the coalescing key.
        other = request_from_json(
            {"op": "skyline_diff", "delta": "0b11", "from": 2, "to": 6},
            d=4, now=0.0,
        )
        assert request.key() != other.key()
        bad = [
            {"op": "skyline_diff"},  # missing everything
            {"op": "skyline_diff", "delta": 3},  # missing the window
            {"op": "skyline_diff", "delta": 3, "from": 0},  # half a window
            {"op": "skyline_diff", "delta": 3, "from": "v0", "to": 1},
            {"op": "skyline_diff", "delta": 3, "from": -1, "to": 1},
            {"op": "skyline_diff", "delta": 3, "from": True, "to": 2},
        ]
        for obj in bad:
            with pytest.raises(ValueError):
                request_from_json(obj, d=4, now=0.0)
