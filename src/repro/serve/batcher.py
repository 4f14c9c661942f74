"""Micro-batching: coalesce concurrent requests into one shared pass.

Serving cost is dominated by per-query work that *repeats* across
concurrent clients: popular subspaces are probed again and again, and
each probe scans the HashCube table (or, ad-hoc, runs a kernel pass).
The batcher exploits the skyline-specific fact that a query's answer
depends only on ``(op, arguments, snapshot)`` — so any number of
identical requests arriving within a window can be answered by one
computation, and distinct requests still share the snapshot capture
and the scheduling overhead.

Mechanics: ``submit`` parks the request on an internal queue and
returns a future.  A single flusher task wakes on the first arrival,
waits at most ``window`` seconds (collecting whatever else arrives,
up to ``max_batch``), then hands the whole batch to the executor
callback, which resolves every future.  ``window=0`` degenerates to
pass-through batches — the unbatched baseline the throughput benchmark
compares against.
"""

from __future__ import annotations

import asyncio
from typing import (
    Awaitable,
    Callable,
    Generic,
    List,
    Optional,
    Tuple,
    TypeVar,
    cast,
)

__all__ = ["MicroBatcher"]

RequestT = TypeVar("RequestT")
ResponseT = TypeVar("ResponseT")

#: The executor callback: a full batch in, one response per request out
#: (same order).  May be sync or async.
BatchExecutor = Callable[
    [List[RequestT]], "Awaitable[List[ResponseT]] | List[ResponseT]"
]


class MicroBatcher(Generic[RequestT, ResponseT]):
    """Window/size-bounded request coalescing in front of an executor."""

    def __init__(
        self,
        execute: BatchExecutor,
        window: float = 0.002,
        max_batch: int = 64,
        on_executor_error: Optional[Callable[[int, Exception], None]] = None,
    ) -> None:
        if window < 0:
            raise ValueError(f"window must be >= 0, got {window}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self._execute = execute
        #: Observer for a whole-flush executor failure ``(batch_size,
        #: error)`` — the service maps it onto the ``InternalError``
        #: taxonomy class; waiters still get the exception either way.
        self.on_executor_error = on_executor_error
        self.window = window
        self.max_batch = max_batch
        self._queue: List[Tuple[RequestT, asyncio.Future]] = []
        self._wakeup: Optional[asyncio.Event] = None
        self._full: Optional[asyncio.Event] = None
        self._flusher: Optional[asyncio.Task] = None
        self._closed = False

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        if self._flusher is not None:
            return  # idempotent: server.start() follows service.start()
        self._wakeup = asyncio.Event()
        self._full = asyncio.Event()
        self._flusher = asyncio.ensure_future(self._run())

    async def stop(self) -> None:
        """Flush everything still queued, then stop the flusher task."""
        self._closed = True
        if self._wakeup is not None:
            self._wakeup.set()
        if self._full is not None:
            self._full.set()  # break out of an in-progress window wait
        if self._flusher is not None:
            await self._flusher
            self._flusher = None

    # -- submission ----------------------------------------------------

    async def submit(self, request: RequestT) -> ResponseT:
        """Queue ``request``; resolves when its batch has executed."""
        if self._closed or self._wakeup is None:
            raise RuntimeError("batcher is not running")
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._queue.append((request, future))
        self._wakeup.set()
        if self._full is not None and len(self._queue) >= self.max_batch:
            self._full.set()
        return await future

    # -- flushing ------------------------------------------------------

    async def _run(self) -> None:
        assert self._wakeup is not None
        while True:
            await self._wakeup.wait()
            self._wakeup.clear()
            if not self._queue:
                if self._closed:
                    return
                continue
            # First request seen: hold the door open for the window
            # (unless the batch fills first), then flush repeatedly
            # until the queue drains.
            if self.window > 0 and len(self._queue) < self.max_batch:
                assert self._full is not None
                self._full.clear()
                try:
                    await asyncio.wait_for(
                        self._full.wait(), timeout=self.window
                    )
                except asyncio.TimeoutError:
                    pass
            while self._queue:
                batch = self._queue[: self.max_batch]
                del self._queue[: len(batch)]
                await self._flush(batch)
            if self._closed:
                return

    async def _flush(
        self, batch: List[Tuple[RequestT, asyncio.Future]]
    ) -> None:
        requests = [request for request, _ in batch]
        try:
            outcome = self._execute(requests)
            if asyncio.iscoroutine(outcome):
                responses: List[ResponseT] = await outcome
            else:
                responses = cast("List[ResponseT]", outcome)
            if len(responses) != len(requests):
                raise RuntimeError(
                    f"batch executor returned {len(responses)} responses "
                    f"for {len(requests)} requests"
                )
        except Exception as error:  # resolve every waiter, never hang
            if self.on_executor_error is not None:
                try:
                    self.on_executor_error(len(requests), error)
                except Exception:
                    pass  # an observer must never mask the real failure
            for _, future in batch:
                if not future.done():
                    future.set_exception(error)
            return
        for (_, future), response in zip(batch, responses):
            if not future.done():
                future.set_result(response)
