"""Sharded scatter–gather serving tier.

The multi-process counterpart of :mod:`repro.serve`: a
:class:`~repro.shard.plan.ShardPlan` partitions the dataset
(pluggable :data:`~repro.shard.plan.PARTITIONERS` — random, grid,
angular, tree-leaf), a :class:`~repro.shard.coordinator.ShardCoordinator`
spawns one worker process per shard over zero-copy shared-memory
slices and merges per-shard answers via the local-skyline union
property (bit-identical to the single-process engine).  The coordinator
is a :class:`~repro.serve.service.QueryBackend`, so the one
:class:`~repro.serve.service.SkycubeService` fronts it with the same
admission/batching/tracing lifecycle as the single-process tiers — and
the TCP server, client and CLI run unchanged over
``python -m repro serve data.npy --shards N``.
"""

from repro.shard.coordinator import (
    NoLiveShardsError,
    ShardCoordinator,
    ShardDeadError,
)
from repro.shard.plan import PARTITIONER_NAMES, PARTITIONERS, ShardPlan
from repro.shard.worker import WorkerSpec, shard_worker_main

__all__ = [
    "PARTITIONERS",
    "PARTITIONER_NAMES",
    "ShardPlan",
    "ShardCoordinator",
    "ShardDeadError",
    "NoLiveShardsError",
    "WorkerSpec",
    "shard_worker_main",
]
