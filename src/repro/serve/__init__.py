"""repro.serve — the asyncio skycube query service.

The online layer the ROADMAP's north star needs: materialise once
(the paper's HashCube trade-off), then amortise the build over many
queries arriving over the wire.  Pieces, each its own module:

* :mod:`repro.serve.snapshot` — immutable :class:`ServingSnapshot` +
  atomic swap (:class:`SnapshotHolder`) + live updates
  (:class:`LiveUpdater` over a :class:`~repro.core.maintain.SkycubeMaintainer`,
  publishing copy-on-write delta snapshots and a per-version
  :class:`ChangeLog` for temporal ``skyline_diff`` queries);
* :mod:`repro.serve.batcher` — micro-batching (:class:`MicroBatcher`);
* :mod:`repro.serve.service` — routing, admission control, deadlines,
  load shedding (:class:`SkycubeService`), over one
  :class:`QueryBackend`: a :class:`SnapshotHolder`, a
  :class:`LiveUpdater`, or the sharded tier's
  :class:`~repro.shard.coordinator.ShardCoordinator`;
* :mod:`repro.serve.server` — the NDJSON TCP front-end
  (:class:`SkycubeServer`, :func:`run_server`);
* :mod:`repro.serve.metrics` — per-endpoint counters and latency
  histograms (:class:`ServeMetrics`);
* :mod:`repro.serve.client` — a small blocking client
  (:class:`ServeClient`).

``python -m repro serve`` starts a server; ``docs/SERVING.md`` has the
protocol and the consistency/overload semantics.
"""

from repro.serve.batcher import MicroBatcher
from repro.serve.client import ServeClient, ServeError
from repro.serve.metrics import LatencyHistogram, ServeMetrics
from repro.serve.server import SkycubeServer, run_server
from repro.serve.service import QueryBackend, Request, Response, SkycubeService
from repro.serve.snapshot import (
    ChangeLog,
    LiveUpdater,
    ServingSnapshot,
    SnapshotHolder,
)

__all__ = [
    "ChangeLog",
    "LatencyHistogram",
    "LiveUpdater",
    "MicroBatcher",
    "QueryBackend",
    "Request",
    "Response",
    "ServeClient",
    "ServeError",
    "ServeMetrics",
    "ServingSnapshot",
    "SkycubeServer",
    "SkycubeService",
    "SnapshotHolder",
    "run_server",
]
