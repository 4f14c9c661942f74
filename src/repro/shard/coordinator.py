"""The scatter–gather coordinator over N shard worker processes.

One :class:`ShardCoordinator` owns the whole sharded data plane: it
reorders the dataset by the :class:`~repro.shard.plan.ShardPlan` so
every shard is one contiguous slice, places the reordered matrix in a
single :class:`~repro.engine.parallel.SharedDataset` segment, spawns
one :func:`~repro.shard.worker.shard_worker_main` process per shard
(each attaching a zero-copy view of its slice), and serves three
async query ops by scatter → gather → merge:

``skyline``
    Scatter the subspace, gather per-shard *local* skylines, refine
    the union with one :func:`~repro.engine.kernels.fast_skyline` pass
    over the candidate rows.  Exact by the local-skyline union
    property (see :mod:`repro.shard.plan`).
``membership``
    Scatter the queried point's coordinates; the point is in the
    global skyline iff **no** shard holds a δ-dominator.  Exact and
    ``O(n/shards)`` per shard, no merge work at all.
``topk_dynamic``
    Scatter the query point, gather local dynamic-skyline candidates,
    and answer with :func:`~repro.query.dynamic.dynamic_topk` over the
    candidate rows in id order: the same refine and rank (L1 distance
    over the active dimensions, ties by id) as the single process.

The pipe endpoints are blocking, so every worker conversation runs in
a thread (``asyncio.to_thread``) and the scatter is an
``asyncio.gather`` over those threads — the merge barrier.  A send,
receive or poll that fails (EOF, broken pipe, timeout) marks the shard
dead on the spot; the query is answered *degraded* from the surviving
shards (the caller receives the failed shard list to attach as a typed
partial-result marker) and a respawn task restores the shard in the
background from the still-mapped shared segment.

Tracing: the coordinator is where ROADMAP item 5's fan-out stitching
happens.  The request id rides the scatter messages into every worker;
each reply's worker-side timing comes back as one per-shard
``compute`` span (``extra={"shard": i}``), each death as a
``WorkerDeath`` failure span, and every query ends with one ``merge``
event carrying barrier wall time plus straggler attribution — which
shard the barrier waited for, and by how much.
"""

from __future__ import annotations

import asyncio
import itertools
import math
import multiprocessing
import threading
import time
from typing import Any, Awaitable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.engine.kernels import fast_skyline
from repro.engine.parallel import SharedDataset
from repro.query.dynamic import dynamic_topk
from repro.serve.service import BackendUnavailableError, Request, UnsupportedError
from repro.shard.plan import ShardPlan
from repro.shard.worker import WorkerSpec, shard_worker_main
from repro.trace import NULL_TRACER, WORKER_DEATH, TraceEvent, Tracer

__all__ = ["NoLiveShardsError", "ShardDeadError", "ShardCoordinator"]


class ShardDeadError(RuntimeError):
    """One worker conversation failed; the shard is marked dead."""

    def __init__(self, index: int, reason: str) -> None:
        super().__init__(f"shard {index}: {reason}")
        self.index = index
        self.reason = reason


class NoLiveShardsError(BackendUnavailableError):
    """Every shard is dead — there is nobody left to scatter to."""


#: ``Unsupported``, not ``BadRequest``: each shard snapshots on its own,
#: so there is no cross-shard version to mutate or diff yet.
_LIVE_UNSUPPORTED = (
    "live updates are not supported on the sharded tier "
    "(see docs/SHARDING.md: delta publish per shard)"
)


class _ShardHandle:
    """Coordinator-side endpoint of one worker: pipe + process + lock.

    ``call`` is deliberately blocking — the coordinator always invokes
    it through ``asyncio.to_thread`` — and the per-handle lock
    serialises conversations so replies cannot interleave.
    """

    __slots__ = ("index", "process", "conn", "lock", "alive", "n_local",
                 "_request_ids")

    def __init__(
        self,
        index: int,
        process: multiprocessing.process.BaseProcess,
        conn: Any,
    ) -> None:
        self.index = index
        self.process = process
        self.conn = conn
        self.lock = threading.Lock()
        self.alive = True
        self.n_local = 0
        self._request_ids = itertools.count()

    def call(
        self, op: str, args: Any, timeout: float
    ) -> Tuple[Any, float]:
        """One request/reply conversation; raises :class:`ShardDeadError`."""
        if not self.alive:
            raise ShardDeadError(self.index, "already marked dead")
        request_id = next(self._request_ids)
        try:
            with self.lock:
                self.conn.send((request_id, op, args))
                if not self.conn.poll(timeout):
                    raise ShardDeadError(
                        self.index, f"no reply within {timeout:g}s"
                    )
                reply = self.conn.recv()
        except ShardDeadError:
            self.mark_dead()
            raise
        except (EOFError, BrokenPipeError, OSError) as error:
            self.mark_dead()
            raise ShardDeadError(
                self.index, f"{type(error).__name__}: {error}"
            ) from None
        if not isinstance(reply, tuple) or len(reply) != 4:
            self.mark_dead()
            raise ShardDeadError(self.index, f"malformed reply {reply!r}")
        got_id, status, payload, elapsed_ms = reply
        if got_id != request_id:
            self.mark_dead()
            raise ShardDeadError(
                self.index, f"reply id {got_id} for request {request_id}"
            )
        if status != "ok":
            # The worker is healthy; the *request* failed (bad delta …).
            raise ValueError(str(payload))
        return payload, float(elapsed_ms)

    def mark_dead(self) -> None:
        self.alive = False
        process = self.process
        if process.is_alive():
            process.kill()
        process.join(timeout=1.0)

    def shutdown(self, timeout: float) -> None:
        """Polite stop: drain message, then escalate to kill."""
        if self.alive:
            try:
                self.call("stop", None, timeout)
            except (ShardDeadError, ValueError):
                pass
        self.alive = False
        self.process.join(timeout=timeout)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(timeout=1.0)
        try:
            self.conn.close()
        except OSError:
            pass


class ShardCoordinator:
    """Owns the shared segment, the workers, and the merge logic.

    Lifecycle is synchronous (``start``/``stop`` block on process
    spawn and join; the service wraps them in ``asyncio.to_thread``),
    queries are coroutines.  ``version`` is constant 0 — the sharded
    tier serves a static dataset; live updates stay on the
    single-process tier until re-sharding lands.

    As the sharded tier's :class:`~repro.serve.service.QueryBackend`
    it answers each batched query with a scatter–gather coroutine.
    """

    version = 0

    def __init__(
        self,
        data: np.ndarray,
        plan: ShardPlan,
        engine: str = "packed-filtered",
        max_level: Optional[int] = None,
        timeout: float = 30.0,
        tracer: Optional[Tracer] = None,
        auto_respawn: bool = True,
        mp_context: Optional[str] = None,
    ) -> None:
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 2 or data.shape[0] == 0:
            raise ValueError(
                f"expected a non-empty 2-D dataset, got shape {data.shape}"
            )
        if data.shape[0] != plan.n or data.shape[1] != plan.d:
            raise ValueError(
                f"plan covers {plan.n}x{plan.d} but data is "
                f"{data.shape[0]}x{data.shape[1]}"
            )
        if timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        self.plan = plan
        self.engine = engine
        self.max_level = max_level
        self.timeout = float(timeout)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.auto_respawn = auto_respawn
        self._ctx = multiprocessing.get_context(mp_context)
        # Physical layout: rows grouped by shard, one shared segment.
        self._reordered = np.ascontiguousarray(data[plan.order])
        # Position of each global id in the reordered matrix — the
        # refine sweep gathers candidate rows through this.
        position = np.empty(plan.n, dtype=np.int64)
        position[plan.order] = np.arange(plan.n, dtype=np.int64)
        self._position = position
        self._shared: Optional[SharedDataset] = None
        self._handles: List[_ShardHandle] = []
        self._respawning: Set[int] = set()
        self._respawn_tasks: Set["asyncio.Task[None]"] = set()
        self._started = False

    # -- lifecycle (synchronous; wrap in to_thread from async code) ----

    @property
    def n(self) -> int:
        return self.plan.n

    @property
    def d(self) -> int:
        return self.plan.d

    @property
    def handles(self) -> List[_ShardHandle]:
        return list(self._handles)

    @property
    def alive_count(self) -> int:
        return sum(1 for handle in self._handles if handle.alive)

    def knows(self, point_id: int) -> bool:
        return 0 <= point_id < self.plan.n

    def status(self) -> Dict[str, Any]:
        """The plan plus per-shard liveness."""
        info = self.plan.describe()
        info["alive"] = [handle.alive for handle in self._handles]
        return info

    def start(self) -> None:
        """Share the matrix, spawn every worker, await their readies."""
        if self._started:
            return
        self._shared = SharedDataset(self._reordered)
        try:
            for shard in range(self.plan.shards):
                self._handles.append(self._spawn(shard))
        except Exception:
            self.stop()
            raise
        self._started = True

    def _spawn(self, shard: int) -> _ShardHandle:
        assert self._shared is not None
        start, stop = self.plan.bounds(shard)
        spec = WorkerSpec(
            index=shard,
            descriptor=self._shared.descriptor,
            start=start,
            stop=stop,
            ids=tuple(int(i) for i in self.plan.ids_of(shard)),
            engine=self.engine,
            max_level=self.max_level,
        )
        ours, theirs = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=shard_worker_main, args=(spec, theirs),
            name=f"repro-shard-{shard}", daemon=True,
        )
        process.start()
        theirs.close()
        handle = _ShardHandle(shard, process, ours)
        if not ours.poll(self.timeout):
            handle.mark_dead()
            raise ShardDeadError(shard, "no ready within bootstrap timeout")
        message = ours.recv()
        if message[0] != "ready":
            handle.mark_dead()
            raise ShardDeadError(shard, f"bootstrap failed: {message!r}")
        handle.n_local = int(message[2])
        return handle

    def stop(self) -> None:
        """Drain every worker and unlink the shared segment."""
        for handle in self._handles:
            handle.shutdown(self.timeout)
        self._handles = []
        if self._shared is not None:
            self._shared.close()
            self._shared = None
        self._started = False

    async def aclose(self) -> None:
        """Async teardown: cancel respawns, then the blocking stop."""
        for task in list(self._respawn_tasks):
            task.cancel()
        self._respawn_tasks.clear()
        await asyncio.to_thread(self.stop)

    # -- shard death / recovery ----------------------------------------

    def _note_death(self, index: int) -> None:
        if self.auto_respawn and index not in self._respawning:
            self._respawning.add(index)
            task = asyncio.get_running_loop().create_task(
                self._respawn(index)
            )
            self._respawn_tasks.add(task)
            task.add_done_callback(self._respawn_tasks.discard)

    async def _respawn(self, index: int) -> None:
        try:
            handle = await asyncio.to_thread(self._spawn, index)
        except Exception as error:
            if self.tracer.enabled:
                self.tracer.emit(TraceEvent(
                    stage="compute", outcome="failure", failure=WORKER_DEATH,
                    detail=f"respawn failed: {error}",
                    extra={"shard": index, "kind": "shard_respawn_failed"},
                ))
            return
        finally:
            self._respawning.discard(index)
        self._handles[index] = handle
        if self.tracer.enabled:
            self.tracer.emit(TraceEvent(
                stage="compute",
                extra={"shard": index, "kind": "shard_respawned"},
            ))

    async def wait_ready(self, timeout: float = 10.0) -> bool:
        """Wait until every shard is alive again (tests, ops tooling)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.alive_count == self.plan.shards:
                return True
            await asyncio.sleep(0.02)
        return self.alive_count == self.plan.shards

    # -- scatter / gather ----------------------------------------------

    def _call_guarded(
        self, handle: _ShardHandle, op: str, args: Any
    ) -> Tuple[int, str, Any, float]:
        """Thread-side worker conversation; never raises for deaths."""
        try:
            payload, elapsed_ms = handle.call(op, args, self.timeout)
        except ShardDeadError as error:
            return (handle.index, "dead", error.reason, 0.0)
        return (handle.index, "ok", payload, elapsed_ms)

    async def _scatter(
        self,
        op: str,
        args: Any,
        request_id: Optional[int],
        delta: Optional[int],
    ) -> Tuple[List[Tuple[int, Any, float]], List[int], float]:
        """Fan ``op`` out to every live shard; gather at the barrier.

        Returns ``(ok, failed, barrier_ms)`` where ``ok`` rows are
        ``(shard, payload, worker_ms)``.  Emits the per-shard compute
        spans (and ``WorkerDeath`` failures) here, on the event-loop
        thread, so trace emission needs no cross-thread locking.
        """
        live = [handle for handle in self._handles if handle.alive]
        if not live:
            raise NoLiveShardsError("all shards are dead")
        barrier_start = time.perf_counter()
        replies = await asyncio.gather(*(
            asyncio.to_thread(self._call_guarded, handle, op, args)
            for handle in live
        ))
        barrier_ms = 1000.0 * (time.perf_counter() - barrier_start)
        ok: List[Tuple[int, Any, float]] = []
        failed: List[int] = []
        tracer = self.tracer
        for index, status, payload, elapsed_ms in replies:
            if status == "ok":
                ok.append((index, payload, elapsed_ms))
                if tracer.enabled:
                    tracer.emit(TraceEvent(
                        stage="compute", request_id=request_id, op=op,
                        delta=delta, snapshot_version=self.version,
                        duration_ms=elapsed_ms, extra={"shard": index},
                    ))
            else:
                failed.append(index)
                if tracer.enabled:
                    tracer.emit(TraceEvent(
                        stage="compute", outcome="failure",
                        failure=WORKER_DEATH, request_id=request_id, op=op,
                        delta=delta, detail=str(payload),
                        extra={"shard": index},
                    ))
                self._note_death(index)
        if not ok:
            raise NoLiveShardsError(
                f"every scattered shard died answering {op!r}"
            )
        return ok, failed, barrier_ms

    def _emit_merge(
        self,
        request_id: Optional[int],
        op: str,
        delta: Optional[int],
        ok: List[Tuple[int, Any, float]],
        failed: List[int],
        barrier_ms: float,
        merge_ms: float,
        candidates: int,
    ) -> None:
        if not self.tracer.enabled:
            return
        timings = [(elapsed_ms, index) for index, _, elapsed_ms in ok]
        straggler_ms, straggler = max(timings)
        fastest_ms, _ = min(timings)
        self.tracer.emit(TraceEvent(
            stage="merge", request_id=request_id, op=op, delta=delta,
            snapshot_version=self.version, duration_ms=merge_ms,
            extra={
                "shards": len(ok),
                "failed_shards": len(failed),
                "candidates": candidates,
                "barrier_ms": round(barrier_ms, 4),
                "straggler_shard": straggler,
                "straggler_ms": round(straggler_ms, 4),
                "fastest_ms": round(fastest_ms, 4),
            },
        ))

    # -- queries -------------------------------------------------------

    async def skyline(
        self, delta: int, request_id: Optional[int] = None
    ) -> Tuple[List[int], List[int]]:
        """``(sorted global S_δ ids, failed shard list)``."""
        ok, failed, barrier_ms = await self._scatter(
            "skyline", int(delta), request_id, delta
        )
        merge_start = time.perf_counter()
        candidate_lists = [payload for _, payload, _ in ok]
        candidates = np.array(
            [pid for chunk in candidate_lists for pid in chunk],
            dtype=np.int64,
        )
        if len(candidates) == 0:
            result: List[int] = []
        else:
            rows = self._reordered[self._position[candidates]]
            survivors = fast_skyline(rows, delta)
            result = sorted(int(pid) for pid in candidates[survivors])
        merge_ms = 1000.0 * (time.perf_counter() - merge_start)
        self._emit_merge(
            request_id, "skyline", delta, ok, failed, barrier_ms,
            merge_ms, len(candidates),
        )
        return result, failed

    async def membership(
        self, point_id: int, delta: int, request_id: Optional[int] = None
    ) -> Tuple[bool, List[int]]:
        """``(p ∈ S_δ, failed shard list)``; KeyError for unknown ids."""
        if not self.knows(point_id):
            raise KeyError(f"unknown point id {point_id}")
        q = tuple(float(v) for v in self._reordered[self._position[point_id]])
        ok, failed, barrier_ms = await self._scatter(
            "dominated", (q, int(delta)), request_id, delta
        )
        merge_start = time.perf_counter()
        member = not any(payload for _, payload, _ in ok)
        merge_ms = 1000.0 * (time.perf_counter() - merge_start)
        self._emit_merge(
            request_id, "membership", delta, ok, failed, barrier_ms,
            merge_ms, len(ok),
        )
        return member, failed

    async def topk_dynamic(
        self,
        q: Sequence[float],
        k: int = 10,
        delta: Optional[int] = None,
        request_id: Optional[int] = None,
    ) -> Tuple[List[int], List[int]]:
        """``(top-k dynamic skyline ids, failed shard list)``.

        The refine + rank is :func:`repro.query.dynamic.dynamic_topk`
        over the union of the shards' candidates: their rows are in id
        order, so its ties by row are ties by id.
        """
        query = tuple(float(v) for v in q)
        if len(query) != self.d:
            raise ValueError(
                f"query must have {self.d} coordinates, got {len(query)}"
            )
        if any(math.isnan(v) for v in query):
            raise ValueError("query contains NaN")
        ok, failed, barrier_ms = await self._scatter(
            "topk_candidates", (query, delta), request_id, delta
        )
        merge_start = time.perf_counter()
        candidates = np.array(
            sorted(pid for _, payload, _ in ok for pid in payload),
            dtype=np.int64,
        )
        if len(candidates) == 0:
            result: List[int] = []
        else:
            rows = self._reordered[self._position[candidates]]
            local = dynamic_topk(rows, query, k, delta)
            result = [int(pid) for pid in candidates[local]]
        merge_ms = 1000.0 * (time.perf_counter() - merge_start)
        self._emit_merge(
            request_id, "topk_dynamic", delta, ok, failed, barrier_ms,
            merge_ms, len(candidates),
        )
        return result, failed

    # -- QueryBackend --------------------------------------------------

    @property
    def current(self) -> "ShardCoordinator":
        """One static version: the coordinator is its own snapshot."""
        return self

    def answer(
        self, snapshot: Any, request: Request
    ) -> Awaitable[Tuple[Any, List[int]]]:
        """One batched query as a scatter–gather under its trace id."""
        if request.op == "skyline":
            assert request.delta is not None
            return self.skyline(request.delta, request_id=request.trace_id)
        if request.op == "membership":
            assert request.point_id is not None
            assert request.delta is not None
            return self.membership(
                request.point_id, request.delta, request_id=request.trace_id
            )
        if request.op == "topk_dynamic":
            assert request.q is not None
            return self.topk_dynamic(
                request.q, k=request.k, delta=request.delta,
                request_id=request.trace_id,
            )
        raise UnsupportedError(_LIVE_UNSUPPORTED)

    def describe(self) -> Dict[str, Any]:
        return {
            "d": self.d, "n": self.n, "shards": self.plan.shards,
            "alive": self.alive_count, "partitioner": self.plan.partitioner,
        }

    def metrics_extra(self) -> Dict[str, Any]:
        return {"shards": self.status()}

    def insert(self, point: Sequence[float]) -> Tuple[int, int]:
        raise UnsupportedError(_LIVE_UNSUPPORTED)

    def delete(self, point_id: int) -> Tuple[Optional[int], int]:
        raise UnsupportedError(_LIVE_UNSUPPORTED)
