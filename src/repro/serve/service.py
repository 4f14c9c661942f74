"""The skycube query service: routing, admission control, batch execution.

One :class:`SkycubeService` fronts one :class:`QueryBackend` — a
:class:`~repro.serve.snapshot.SnapshotHolder` (static), a
:class:`~repro.serve.snapshot.LiveUpdater` (``--live``) or a
:class:`~repro.shard.coordinator.ShardCoordinator` (``--shards N``).
A request travels: admission check (bounded in-flight queue — beyond
``max_pending`` the request is *shed* with a typed ``Overloaded``
response instead of queueing unboundedly) → micro-batcher → batch
execution against a single snapshot capture → typed response.

Batch execution is where the coalescing pays: requests are grouped by
``(op, arguments)`` and each distinct group is computed once — the
HashCube probe, membership word test, ad-hoc kernel pass or shard
scatter–gather — then fanned back out to every waiter.  Because the
whole batch reads one snapshot, every response is tagged with that
snapshot's version and is never a torn mix of pre- and post-update
state.

Deadlines propagate: a request carries an absolute event-loop deadline
(set from the client's ``timeout_ms``), and a batch that gets to it too
late answers ``DeadlineExceeded`` rather than burning compute on an
answer nobody is waiting for.

Backends refuse with typed exceptions and only this module turns them
into wire errors: ``KeyError``/``ValueError`` → ``BadRequest``,
:class:`UnsupportedError` → ``Unsupported``,
:class:`BackendUnavailableError` → ``Internal``.

When a :class:`~repro.trace.Tracer` is attached, every request leaves
one event per lifecycle stage — ``admit`` (admission decision),
``batch`` (queue wait + batch size), ``compute`` (snapshot version +
execution time) and ``respond`` (final outcome) — and every failure
carries exactly one class from the typed taxonomy
(:data:`repro.trace.FAILURE_CLASSES`).  The default
:data:`~repro.trace.NULL_TRACER` keeps the whole layer free.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, replace
from typing import (
    Any,
    Awaitable,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Set,
    Tuple,
    Union,
    cast,
)

from repro.core.bitmask import parse_subspace
from repro.serve.batcher import MicroBatcher
from repro.serve.metrics import ServeMetrics
from repro.trace import (
    BAD_REQUEST as TAXONOMY_BAD_REQUEST,
    DEADLINE_EXCEEDED as TAXONOMY_DEADLINE,
    INTERNAL_ERROR,
    NULL_TRACER,
    SHED,
    SNAPSHOT_SWAP_RACE,
    WORKER_DEATH,
    TraceEvent,
    Tracer,
    classify_wire_error,
)

__all__ = [
    "Answer",
    "BackendUnavailableError",
    "QueryBackend",
    "QuerySnapshot",
    "Request",
    "Response",
    "SkycubeService",
    "QUERY_OPS",
    "UnsupportedError",
    "request_from_json",
]

#: Ops that go through the micro-batcher.
QUERY_OPS = ("skyline", "membership", "topk_dynamic", "skyline_diff")
#: Ops handled directly by the service.
CONTROL_OPS = ("metrics", "ping", "insert", "delete")

#: Typed error names on the wire.
OVERLOADED = "Overloaded"
BAD_REQUEST = "BadRequest"
NOT_FOUND = "NotFound"
DEADLINE_EXCEEDED = "DeadlineExceeded"
INTERNAL = "Internal"
#: A structurally valid request for a capability this deployment does
#: not offer (``insert``, ``delete`` and ``skyline_diff`` on the sharded
#: tier).  Distinct from ``BadRequest`` so clients can tell "fix your
#: request" from "ask a different deployment"; the static tier answers
#: ``BadRequest`` to all three, as ``--live`` would enable them.
UNSUPPORTED = "Unsupported"


class UnsupportedError(Exception):
    """A backend's refusal of an op this deployment does not offer."""


class BackendUnavailableError(RuntimeError):
    """The backend has nothing left to answer with (every shard died)."""


#: Typed refusals a backend may raise from ``answer``/``insert``/
#: ``delete``; anything else is a bug and answers ``Internal``.
_REFUSALS = (UnsupportedError, BackendUnavailableError, KeyError, ValueError)

#: One backend answer: the result, plus the ids of the shards that
#: failed to contribute to it (empty unless a sharded answer degraded).
Answer = Tuple[Any, Sequence[int]]


@dataclass(frozen=True)
class Request:
    """One decoded request (already validated where statically possible)."""

    op: str
    delta: Optional[int] = None
    point_id: Optional[int] = None
    q: Optional[Tuple[float, ...]] = None
    k: int = 10
    point: Optional[Tuple[float, ...]] = None
    #: Version window for ``skyline_diff`` (changes over ``(v_from, v_to]``).
    v_from: Optional[int] = None
    v_to: Optional[int] = None
    #: Absolute event-loop deadline (``loop.time()`` scale), or None.
    deadline: Optional[float] = None
    #: Trace context, stamped by the service at admission when tracing
    #: is on; never part of the coalescing key or the wire format.
    trace_id: Optional[int] = None
    admit_version: Optional[int] = None
    admitted_at: Optional[float] = None

    def key(self) -> Tuple[Any, ...]:
        """Coalescing key: requests with equal keys share one answer."""
        return (
            self.op, self.delta, self.point_id, self.q, self.k,
            self.v_from, self.v_to,
        )


@dataclass(frozen=True)
class Response:
    """One typed response; ``error`` is None on success."""

    op: str
    ok: bool
    result: Any = None
    error: Optional[str] = None
    message: str = ""
    snapshot_version: Optional[int] = None
    #: Taxonomy class for the trace (never serialised on the wire).
    #: Set where the failure is diagnosed — the one place with enough
    #: context to, say, tell a snapshot-swap race from a bad request.
    failure_class: Optional[str] = None
    #: Degraded-mode marker (sharded tier): a successful answer that
    #: lost shards mid-query carries ``{"degraded": True,
    #: "failed_shards": [...], "failure_class": "WorkerDeath"}`` so
    #: clients can tell a partial result from a complete one.
    partial: Optional[Dict[str, Any]] = None

    def to_json(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"ok": self.ok, "op": self.op}
        if self.ok:
            payload["result"] = self.result
            if self.snapshot_version is not None:
                payload["snapshot_version"] = self.snapshot_version
            if self.partial is not None:
                payload["partial"] = self.partial
        else:
            payload["error"] = {"type": self.error, "message": self.message}
        return payload


def _error(
    op: str,
    error: str,
    message: str,
    failure_class: Optional[str] = None,
) -> Response:
    return Response(
        op=op, ok=False, error=error, message=message,
        failure_class=failure_class,
    )


def request_from_json(
    obj: Dict[str, Any], d: int, now: float
) -> Request:
    """Decode one wire-format request dict; raises ValueError when bad."""
    if not isinstance(obj, dict):
        raise ValueError("request must be a JSON object")
    op = obj.get("op")
    if isinstance(op, str):
        op = op.replace("-", "_")  # accept "topk-dynamic" for topk_dynamic
    if op not in QUERY_OPS and op not in CONTROL_OPS:
        raise ValueError(f"unknown op {op!r}")
    delta: Optional[int] = None
    if "delta" in obj and obj["delta"] is not None:
        raw = obj["delta"]
        if isinstance(raw, bool):
            raise ValueError("delta must be an integer or string")
        if isinstance(raw, int):
            delta = parse_subspace(str(raw), d)
        elif isinstance(raw, str):
            delta = parse_subspace(raw, d)
        else:
            raise ValueError("delta must be an integer or string")
    point_id: Optional[int] = None
    if "point_id" in obj and obj["point_id"] is not None:
        if not isinstance(obj["point_id"], int) or isinstance(
            obj["point_id"], bool
        ):
            raise ValueError("point_id must be an integer")
        point_id = obj["point_id"]
    q: Optional[Tuple[float, ...]] = None
    if "q" in obj and obj["q"] is not None:
        try:
            q = tuple(float(value) for value in obj["q"])
        except (TypeError, ValueError):
            raise ValueError("q must be a list of numbers") from None
        if len(q) != d:
            raise ValueError(f"q must have {d} coordinates, got {len(q)}")
    point: Optional[Tuple[float, ...]] = None
    if "point" in obj and obj["point"] is not None:
        try:
            point = tuple(float(value) for value in obj["point"])
        except (TypeError, ValueError):
            raise ValueError("point must be a list of numbers") from None
        if len(point) != d:
            raise ValueError(
                f"point must have {d} coordinates, got {len(point)}"
            )
    k = 10
    if "k" in obj and obj["k"] is not None:
        if not isinstance(obj["k"], int) or isinstance(obj["k"], bool):
            raise ValueError("k must be an integer")
        if obj["k"] < 1:
            raise ValueError(f"k must be positive, got {obj['k']}")
        k = obj["k"]
    v_from: Optional[int] = None
    v_to: Optional[int] = None
    for field_name, wire_name in (("v_from", "from"), ("v_to", "to")):
        if wire_name in obj and obj[wire_name] is not None:
            raw = obj[wire_name]
            if not isinstance(raw, int) or isinstance(raw, bool):
                raise ValueError(f"'{wire_name}' must be an integer")
            if raw < 0:
                raise ValueError(
                    f"'{wire_name}' must be a non-negative version, got {raw}"
                )
            if field_name == "v_from":
                v_from = raw
            else:
                v_to = raw
    deadline: Optional[float] = None
    if "timeout_ms" in obj and obj["timeout_ms"] is not None:
        timeout_ms = obj["timeout_ms"]
        if not isinstance(timeout_ms, (int, float)) or isinstance(
            timeout_ms, bool
        ) or timeout_ms <= 0:
            raise ValueError("timeout_ms must be a positive number")
        deadline = now + timeout_ms / 1000.0
    # Per-op required arguments.
    if op == "skyline" and delta is None:
        raise ValueError("skyline requires 'delta'")
    if op == "membership" and (delta is None or point_id is None):
        raise ValueError("membership requires 'point_id' and 'delta'")
    if op == "topk_dynamic" and q is None:
        raise ValueError("topk_dynamic requires 'q'")
    if op == "skyline_diff" and (
        delta is None or v_from is None or v_to is None
    ):
        raise ValueError("skyline_diff requires 'delta', 'from' and 'to'")
    if op == "insert" and point is None:
        raise ValueError("insert requires 'point'")
    if op == "delete" and point_id is None:
        raise ValueError("delete requires 'point_id'")
    return Request(
        op=op, delta=delta, point_id=point_id, q=q, k=k, point=point,
        v_from=v_from, v_to=v_to, deadline=deadline,
    )


class QuerySnapshot(Protocol):
    """The backend state one batch is answered from."""

    @property
    def version(self) -> int: ...

    @property
    def d(self) -> int: ...

    def knows(self, point_id: int) -> bool: ...


class QueryBackend(Protocol):
    """What :class:`SkycubeService` needs from the tier behind it.

    ``current`` is read once per batch and handed back to ``answer``
    for each distinct query in it.  An in-process backend answers
    directly, so its batch runs in one step of the event loop; an
    awaitable answer (a shard scatter–gather) is awaited, distinct
    keys concurrently.  ``start``, ``insert`` and ``delete`` block:
    the service runs them in a worker thread, writes one at a time.
    """

    @property
    def current(self) -> QuerySnapshot: ...

    def answer(
        self, snapshot: Any, request: Request
    ) -> Union[Answer, Awaitable[Answer]]: ...

    def describe(self) -> Dict[str, Any]: ...  # the ``ping`` payload

    def metrics_extra(self) -> Dict[str, Any]: ...  # added to ``metrics``

    def start(self) -> None: ...

    async def aclose(self) -> None: ...

    def insert(self, point: Sequence[float]) -> Tuple[int, int]: ...

    def delete(self, point_id: int) -> Tuple[Optional[int], int]: ...


def _refusal(op: str, error: Exception) -> Response:
    """The wire error for one of a backend's typed refusals."""
    if isinstance(error, UnsupportedError):
        return _error(
            op, UNSUPPORTED, str(error), failure_class=TAXONOMY_BAD_REQUEST
        )
    if isinstance(error, BackendUnavailableError):
        return _error(op, INTERNAL, str(error), failure_class=WORKER_DEATH)
    return _error(
        op, BAD_REQUEST, str(error), failure_class=TAXONOMY_BAD_REQUEST
    )


def _answered(
    snapshot: QuerySnapshot, request: Request, answer: Answer
) -> Response:
    result, failed = answer
    return Response(
        op=request.op, ok=True, result=result,
        snapshot_version=snapshot.version,
        # The typed degraded-mode marker: a success that lost shards.
        partial=None if not failed else {
            "degraded": True,
            "failed_shards": sorted(failed),
            "failure_class": WORKER_DEATH,
        },
    )


class SkycubeService:
    """Routes requests to the batcher, the backend's writes, or metrics."""

    def __init__(
        self,
        backend: QueryBackend,
        window: float = 0.002,
        max_batch: int = 64,
        max_pending: int = 1024,
        metrics: Optional[ServeMetrics] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        self.backend = backend
        self.metrics = metrics if metrics is not None else ServeMetrics()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.max_pending = max_pending
        self._pending = 0
        self._batcher: MicroBatcher[Request, Response] = MicroBatcher(
            self._execute_batch, window=window, max_batch=max_batch,
            on_executor_error=self._on_batch_error,
        )
        self._update_gate = asyncio.Lock()
        self.metrics.observe_snapshot(backend.current.version)

    def _on_batch_error(self, batch_size: int, error: Exception) -> None:
        """A whole flush failed in the executor: an internal bug."""
        if self.tracer.enabled:
            self.tracer.emit(TraceEvent(
                stage="batch", outcome="failure", failure=INTERNAL_ERROR,
                batch_size=batch_size,
                detail=f"{type(error).__name__}: {error}",
            ))

    # -- lifecycle -----------------------------------------------------

    @property
    def d(self) -> int:
        return self.backend.current.d

    async def start(self) -> None:
        await asyncio.to_thread(self.backend.start)
        await self._batcher.start()

    async def stop(self) -> None:
        """Drain: flush queued requests, then release the backend."""
        await self._batcher.stop()
        await self.backend.aclose()

    # -- submission ----------------------------------------------------

    async def submit(self, request: Request) -> Response:
        """Admission control + dispatch; always returns a Response."""
        op = request.op
        self.metrics.record_request(op)
        loop = asyncio.get_running_loop()
        started = loop.time()
        tracer = self.tracer
        backend = self.backend
        if tracer.enabled:
            # Stamp the trace context once: the request id ties the
            # four lifecycle events together, and the admit-time
            # snapshot version is what lets the compute stage tell a
            # snapshot-swap race from a plain bad request.
            request = replace(
                request,
                trace_id=tracer.next_request_id(),
                admit_version=backend.current.version,
                admitted_at=started,
            )
        try:
            if op in QUERY_OPS:
                response = await self._submit_query(request)
            elif op == "metrics":
                response = Response(
                    op=op, ok=True,
                    result={**self.metrics.as_dict(), **backend.metrics_extra()},
                    snapshot_version=backend.current.version,
                )
            elif op == "ping":
                response = Response(
                    op=op, ok=True, result=backend.describe(),
                    snapshot_version=backend.current.version,
                )
            elif op in ("insert", "delete"):
                response = await self._submit_write(request)
            else:
                response = _error(
                    op, BAD_REQUEST, f"unknown op {op!r}",
                    failure_class=TAXONOMY_BAD_REQUEST,
                )
        except Exception as error:  # never leak a raw traceback
            response = _error(
                op, INTERNAL, f"{type(error).__name__}: {error}",
                failure_class=INTERNAL_ERROR,
            )
        if not response.ok and response.error is not None:
            self.metrics.record_error(op, response.error)
        self.metrics.record_latency(op, loop.time() - started)
        if tracer.enabled:
            failure = response.failure_class
            if failure is None and not response.ok:
                failure = classify_wire_error(
                    response.error, request.admit_version,
                    response.snapshot_version,
                )
            tracer.emit(TraceEvent(
                stage="respond",
                outcome="ok" if response.ok else "failure",
                failure=failure,
                request_id=request.trace_id,
                op=op,
                delta=request.delta,
                snapshot_version=response.snapshot_version,
                duration_ms=1000.0 * (loop.time() - started),
                detail="degraded" if response.partial else None,
            ))
        return response

    async def _submit_query(self, request: Request) -> Response:
        if self._pending >= self.max_pending:
            # Load shedding: reject *now*, with a typed response the
            # client can back off on, instead of queueing unboundedly.
            self.metrics.record_shed()
            if self.tracer.enabled:
                self.tracer.emit(TraceEvent(
                    stage="admit", outcome="failure", failure=SHED,
                    request_id=request.trace_id, op=request.op,
                    delta=request.delta,
                    extra={"queue_depth": self._pending},
                ))
            return _error(
                request.op, OVERLOADED,
                f"queue full ({self.max_pending} pending)",
                failure_class=SHED,
            )
        self._pending += 1
        self.metrics.observe_queue_depth(self._pending)
        if self.tracer.enabled:
            self.tracer.emit(TraceEvent(
                stage="admit", request_id=request.trace_id, op=request.op,
                delta=request.delta,
                extra={"queue_depth": self._pending},
            ))
        try:
            return await self._batcher.submit(request)
        finally:
            self._pending -= 1
            self.metrics.observe_queue_depth(self._pending)

    async def _submit_write(self, request: Request) -> Response:
        """``insert``/``delete``: serialised, off the event loop."""
        backend = self.backend
        result: Dict[str, Any]
        try:
            async with self._update_gate:
                if request.op == "insert":
                    assert request.point is not None  # request_from_json
                    point_id, version = await asyncio.to_thread(
                        backend.insert, request.point
                    )
                    result = {"point_id": point_id}
                else:
                    assert request.point_id is not None  # request_from_json
                    _, version = await asyncio.to_thread(
                        backend.delete, request.point_id
                    )
                    result = {"deleted": request.point_id}
        except KeyError:
            return _error(
                request.op, NOT_FOUND,
                f"unknown point id {request.point_id}",
                failure_class=TAXONOMY_BAD_REQUEST,
            )
        except (UnsupportedError, ValueError) as error:
            return _refusal(request.op, error)
        self.metrics.observe_snapshot(version)
        return Response(
            op=request.op, ok=True, result=result, snapshot_version=version,
        )

    # -- batch execution ----------------------------------------------

    def _execute_batch(
        self, requests: List[Request]
    ) -> Union[List[Response], Awaitable[List[Response]]]:
        """Answer a whole batch from one snapshot capture.

        Grouping by :meth:`Request.key` means each distinct question is
        computed once per batch regardless of how many clients asked it
        — the vectorised pass (ad-hoc subspaces), the cube probes and
        the shard scatter–gathers are all shared.  Direct answers fan
        out on the spot, so an in-process batch never leaves this call;
        awaitable answers are gathered by :meth:`_gather`.
        """
        snapshot = self.backend.current
        loop = asyncio.get_running_loop()
        now = loop.time()
        tracer = self.tracer
        batch_size = len(requests)
        cache: Dict[Tuple[Any, ...], Response] = {}
        awaited: Dict[Tuple[Any, ...], Awaitable[Response]] = {}
        responses: List[Optional[Response]] = []
        for request in requests:
            if tracer.enabled:
                waited = (
                    None if request.admitted_at is None
                    else 1000.0 * (now - request.admitted_at)
                )
                tracer.emit(TraceEvent(
                    stage="batch", request_id=request.trace_id,
                    op=request.op, delta=request.delta,
                    batch_size=batch_size, duration_ms=waited,
                ))
            if request.deadline is not None and now > request.deadline:
                if tracer.enabled:
                    tracer.emit(TraceEvent(
                        stage="compute", outcome="failure",
                        failure=TAXONOMY_DEADLINE,
                        request_id=request.trace_id, op=request.op,
                        delta=request.delta,
                        snapshot_version=snapshot.version,
                    ))
                responses.append(_error(
                    request.op, DEADLINE_EXCEEDED,
                    "deadline expired before execution",
                    failure_class=TAXONOMY_DEADLINE,
                ))
                continue
            key = request.key()
            response = cache.get(key)
            coalesced = response is not None or key in awaited
            elapsed_ms = 0.0
            if not coalesced:
                before = loop.time()
                answer = self._answer(snapshot, request)
                if isinstance(answer, Response):
                    response = cache[key] = answer
                    elapsed_ms = 1000.0 * (loop.time() - before)
                else:
                    awaited[key] = answer  # traces itself when it resolves
            if response is not None and tracer.enabled:
                self._trace_compute(
                    request, response, snapshot.version, elapsed_ms, coalesced
                )
            responses.append(response)
        if awaited:
            return self._gather(requests, responses, awaited, snapshot.version)
        self.metrics.record_batch(batch_size)
        return cast(List[Response], responses)

    async def _gather(
        self,
        requests: List[Request],
        responses: List[Optional[Response]],
        awaited: Dict[Tuple[Any, ...], Awaitable[Response]],
        version: int,
    ) -> List[Response]:
        """Await the pending answers, distinct keys concurrently, then
        fan each out to the riders that coalesced onto it."""
        answers = dict(zip(awaited, await asyncio.gather(*awaited.values())))
        executed: Set[Tuple[Any, ...]] = set()
        for position, request in enumerate(requests):
            if responses[position] is None:
                key = request.key()
                response = responses[position] = answers[key]
                if key in executed and self.tracer.enabled:
                    self._trace_compute(request, response, version, 0.0, True)
                executed.add(key)
        self.metrics.record_batch(len(requests))
        return cast(List[Response], responses)

    def _trace_compute(
        self,
        request: Request,
        response: Response,
        version: int,
        elapsed_ms: float,
        coalesced: bool,
    ) -> None:
        self.tracer.emit(TraceEvent(
            stage="compute",
            outcome="ok" if response.ok else "failure",
            failure=response.failure_class,
            request_id=request.trace_id, op=request.op,
            delta=request.delta,
            snapshot_version=version,
            duration_ms=elapsed_ms,
            detail="coalesced" if coalesced else None,
        ))

    def _answer(
        self, snapshot: QuerySnapshot, request: Request
    ) -> Union[Response, Awaitable[Response]]:
        """One distinct query: the backend's answer or typed refusal."""
        if request.op == "membership":
            assert request.point_id is not None
            if not snapshot.knows(request.point_id):
                # The one context-dependent classification: if the
                # snapshot moved between admission and this batch, a
                # racing delete may have removed the point — that is
                # the serving layer's race, not the client's mistake.
                raced = (
                    request.admit_version is not None
                    and snapshot.version != request.admit_version
                )
                return _error(
                    request.op, NOT_FOUND,
                    f"unknown point id {request.point_id}",
                    failure_class=(
                        SNAPSHOT_SWAP_RACE if raced
                        else TAXONOMY_BAD_REQUEST
                    ),
                )
        try:
            answer = self.backend.answer(snapshot, request)
        except _REFUSALS as error:
            return _refusal(request.op, error)
        if isinstance(answer, tuple):
            return _answered(snapshot, request, answer)
        return self._await_answer(snapshot, request, answer)

    async def _await_answer(
        self,
        snapshot: QuerySnapshot,
        request: Request,
        pending: Awaitable[Answer],
    ) -> Response:
        """An awaitable answer; its ``compute`` event spans the await
        (for a shard query: the whole scatter–gather plus merge)."""
        loop = asyncio.get_running_loop()
        started = loop.time()
        try:
            response = _answered(snapshot, request, await pending)
        except _REFUSALS as error:
            response = _refusal(request.op, error)
        if self.tracer.enabled:
            self._trace_compute(
                request, response, snapshot.version,
                1000.0 * (loop.time() - started), False,
            )
        return response
