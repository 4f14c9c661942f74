"""The shard worker process: one snapshot over one zero-copy slice.

A worker is a plain :mod:`multiprocessing` process driven entirely by
one duplex pipe.  At bootstrap it attaches the coordinator's
:class:`~repro.engine.parallel.SharedDataset` segment, takes the
contiguous ``[start, stop)`` slice its :class:`WorkerSpec` names (a
true zero-copy view — the plan reordered the matrix so every shard is
contiguous), materialises a local
:class:`~repro.serve.snapshot.ServingSnapshot` with ``copy=False``
over that view, and acknowledges with a ``ready`` message.  After
that it answers one request tuple at a time:

``("skyline", delta)``
    Local ``S_δ`` as *global* row ids — the shard's merge candidates.
    One cube probe when materialised, the ad-hoc kernel otherwise.
``("dominated", (q, delta))``
    Whether any local row δ-dominates the coordinates ``q`` — the
    distributed membership primitive (a point is in the global skyline
    iff *no* shard holds a dominator; the point itself and exact
    duplicates never strictly dominate, so no self-exclusion is
    needed).
``("topk_candidates", (q, delta))``
    Global ids of the local *dynamic* skyline of ``|rows - q|`` — the
    per-point transform makes the union property carry over verbatim
    to dynamic top-k.
``("ping", None)`` / ``("stop", None)``
    Liveness and graceful shutdown.

Every reply carries the request id it answers and the worker-side
compute time in milliseconds, which the coordinator turns into the
per-shard ``compute`` trace spans.  The worker never traces on its
own: request ids propagate *into* it and timings propagate *out*, so
one coordinator-side trace file stitches the whole fan-out.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from multiprocessing.connection import Connection
from typing import Any, List, Optional, Tuple

import numpy as np

from repro.core.dominance import dominance_masks_vs_all
from repro.engine.kernels import fast_skyline
from repro.engine.parallel import SharedDataset
from repro.serve.snapshot import ServingSnapshot

__all__ = ["WorkerSpec", "shard_worker_main"]

#: Wire shapes of the shard pipe protocol (documentation aliases).
WorkerRequest = Tuple[int, str, Any]
WorkerReply = Tuple[int, str, Any, float]


@dataclass(frozen=True)
class WorkerSpec:
    """Everything one worker needs, picklable under any start method."""

    index: int
    descriptor: Tuple[str, Tuple[int, ...], str]
    start: int
    stop: int
    #: Global (input-order) row ids of the slice, position-aligned.
    ids: Tuple[int, ...] = field(repr=False)
    engine: str = "packed-filtered"
    max_level: Optional[int] = None


class _WorkerState:
    """The worker's resident state: view, id map, local snapshot."""

    __slots__ = ("view", "ids", "snapshot")

    def __init__(self, spec: WorkerSpec) -> None:
        full = SharedDataset.attach(spec.descriptor)
        self.view = full[spec.start:spec.stop]
        self.ids = np.asarray(spec.ids, dtype=np.int64)
        if len(self.ids) != len(self.view):
            raise ValueError(
                f"shard {spec.index}: {len(self.ids)} ids for "
                f"{len(self.view)} rows"
            )
        self.snapshot: Optional[ServingSnapshot] = None
        if len(self.view):
            self.snapshot = ServingSnapshot.build(
                self.view, max_level=spec.max_level, engine=spec.engine,
                copy=False,
            )

    def skyline(self, delta: int) -> List[int]:
        if self.snapshot is None:
            return []
        local = self.snapshot.skyline(delta)
        return [int(self.ids[row]) for row in local]

    def dominated(self, q: Tuple[float, ...], delta: int) -> bool:
        if len(self.view) == 0:
            return False
        point = np.asarray(q, dtype=np.float64)
        le, _, eq = dominance_masks_vs_all(self.view, point)
        return bool(np.any(((le & delta) == delta) & ((eq & delta) != delta)))

    def topk_candidates(
        self, q: Tuple[float, ...], delta: Optional[int]
    ) -> List[int]:
        if len(self.view) == 0:
            return []
        transformed = np.abs(self.view - np.asarray(q, dtype=np.float64))
        local = fast_skyline(transformed, delta)
        return [int(self.ids[row]) for row in local]


def _answer(state: _WorkerState, op: str, args: Any) -> Any:
    if op == "skyline":
        return state.skyline(int(args))
    if op == "dominated":
        q, delta = args
        return state.dominated(q, int(delta))
    if op == "topk_candidates":
        q, delta = args
        return state.topk_candidates(q, None if delta is None else int(delta))
    if op == "ping":
        return {"n": len(state.view)}
    raise ValueError(f"unknown shard op {op!r}")


def shard_worker_main(
    spec: WorkerSpec, conn: Connection
) -> None:  # pragma: no cover - exercised in subprocesses
    """Worker entry point: bootstrap, acknowledge, serve until stopped."""
    try:
        try:
            state = _WorkerState(spec)
        except Exception as error:
            conn.send(("failed", spec.index, f"{type(error).__name__}: {error}"))
            return
        conn.send(("ready", spec.index, len(state.view)))
        while True:
            request_id, op, args = conn.recv()
            if op == "stop":
                conn.send((request_id, "ok", None, 0.0))
                break
            started = time.perf_counter()
            try:
                payload = _answer(state, op, args)
            except Exception as error:
                conn.send((
                    request_id, "error",
                    f"{type(error).__name__}: {error}", 0.0,
                ))
                continue
            elapsed_ms = 1000.0 * (time.perf_counter() - started)
            conn.send((request_id, "ok", payload, elapsed_ms))
    except (EOFError, BrokenPipeError, OSError, KeyboardInterrupt):
        pass  # the coordinator vanished or is tearing us down
    finally:
        try:
            conn.close()
        except OSError:
            pass
