"""Sharded serving throughput: scatter–gather vs single-process.

Drives the same 256-concurrent-client mixed workload as
``bench_serve_throughput`` through the sharded tier at 1, 2 and 4
shards and compares against the single-process
:class:`~repro.serve.service.SkycubeService` baseline over the
identical ``packed-filtered`` snapshot.  Before any timing, every
sharded configuration must answer the whole workload **bit-identically**
to the baseline — the merge's exactness is a precondition of the
numbers meaning anything.

The workload leans on ad-hoc compute (dynamic top-k passes with
distinct query points, skylines past the materialised level) because
that is what actually fans out: per-shard kernels run in worker
*processes*, so with enough cores the barrier waits ~1/shards as long
per query.  The scaling floor (2 shards >= 1.2x the 1-shard sharded
run) is asserted at full size on hosts with >= 2 cores only; on
smaller hosts and under ``--quick`` the table is recorded with a loose
no-pathological-slowdown guard instead, mirroring
``bench_parallel_scaling``.
"""

import asyncio
import os
import time

from repro.data.generator import generate
from repro.experiments.report import Table
from repro.serve import (
    Request,
    ServingSnapshot,
    SkycubeService,
    SnapshotHolder,
)
from repro.shard import ShardCoordinator, ShardPlan

CONCURRENCY = 256
SHARD_COUNTS = (1, 2, 4)
PARTITIONER = "grid"
MAX_LEVEL = 2  # skylines above level 2 hit the ad-hoc kernel


def build_workload(data, d):
    """256 mixed requests biased toward real per-shard compute."""
    full = (1 << d) - 1
    wide = [full, full ^ 1, full ^ 2, full >> 1]  # above MAX_LEVEL
    requests = []
    for i in range(CONCURRENCY):
        kind = i % 4
        if kind == 0:  # wide ad-hoc skylines
            requests.append(Request(op="skyline", delta=wide[i % len(wide)]))
        elif kind == 1:  # materialised probes
            requests.append(Request(op="skyline", delta=(1 << (i % d)) | 1))
        elif kind == 2:  # O(n) membership scans
            requests.append(
                Request(op="membership", point_id=(i * 31) % len(data),
                        delta=full)
            )
        else:  # distinct-query top-k: no coalescing, pure compute
            q = tuple(float(v) + (i % 7) for v in data[(i * 17) % len(data)])
            requests.append(Request(op="topk_dynamic", q=q, k=8))
    return requests


async def drive(service, requests):
    """All 256 in flight at once; returns (elapsed, responses)."""
    await service.start()
    try:
        start = time.perf_counter()
        responses = await asyncio.gather(
            *(service.submit(request) for request in requests)
        )
        elapsed = time.perf_counter() - start
    finally:
        await service.stop()
    for response in responses:
        assert response.ok, (response.error, response.message)
        assert response.partial is None, response.partial
    return elapsed, responses


def run_single(data, requests):
    holder = SnapshotHolder(
        ServingSnapshot.build(
            data, max_level=MAX_LEVEL, engine="packed-filtered"
        )
    )
    service = SkycubeService(
        holder, window=0.002, max_batch=64, max_pending=2 * CONCURRENCY
    )
    return asyncio.run(drive(service, requests))


def run_sharded(data, requests, shards):
    plan = ShardPlan.build(data, shards, partitioner=PARTITIONER)
    coordinator = ShardCoordinator(
        data, plan, engine="packed-filtered", max_level=MAX_LEVEL
    )
    service = SkycubeService(
        coordinator, window=0.002, max_batch=64,
        max_pending=2 * CONCURRENCY,
    )
    return asyncio.run(drive(service, requests))


def test_shard_throughput(benchmark, quick):
    n = 1_500 if quick else 12_000
    d = 6
    data = generate("anticorrelated", n, d, seed=3)
    requests = build_workload(data, d)

    def measure():
        results = {}
        elapsed, baseline_responses = run_single(data, requests)
        results["single"] = elapsed
        baseline = [r.result for r in baseline_responses]
        for shards in SHARD_COUNTS:
            elapsed, responses = run_sharded(data, requests, shards)
            # Bit-identity before the numbers mean anything.
            assert [r.result for r in responses] == baseline, (
                f"sharded answers diverged at shards={shards}"
            )
            results[shards] = elapsed
        return results

    results = benchmark.pedantic(measure, rounds=1, iterations=1)

    table = Table(
        f"Sharded serving throughput: {CONCURRENCY} concurrent mixed "
        f"queries, anticorrelated n={n} d={d}, partitioner="
        f"{PARTITIONER}, max_level={MAX_LEVEL}",
        ["configuration", "req/s", "elapsed ms", "speedup vs single"],
        notes=[
            f"host has {os.cpu_count()} cores; every sharded answer "
            f"asserted bit-identical to the single-process "
            f"packed-filtered baseline before timing",
            "single = SkycubeService, one process; shards = N worker "
            "processes behind the scatter-gather coordinator",
        ],
    )
    single = results["single"]
    table.add_row(
        "single process", CONCURRENCY / single, 1000.0 * single, 1.0
    )
    for shards in SHARD_COUNTS:
        elapsed = results[shards]
        table.add_row(
            f"{shards} shard{'s' if shards > 1 else ''}",
            CONCURRENCY / elapsed,
            1000.0 * elapsed,
            single / elapsed,
        )
    table.save("shard_throughput.txt")

    # Scaling floor: with real cores and full-size work, two worker
    # processes must beat one.  On single-core hosts (and --quick) only
    # the no-pathological-slowdown direction is guarded: the IPC +
    # merge overhead must not eat more than ~10x over single-process.
    if not quick and (os.cpu_count() or 1) >= 2:
        assert results[1] / results[2] > 1.2, table.format()
    assert results[2] < 10.0 * single, table.format()
