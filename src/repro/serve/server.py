"""Asyncio TCP front-end speaking newline-delimited JSON.

Wire protocol (one JSON object per line, UTF-8):

* request: ``{"id": 7, "op": "skyline", "delta": "0b101",
  "timeout_ms": 50}`` — ``id`` is client-chosen and echoed back;
  responses on a connection may be reordered (each request line is
  dispatched as its own task so micro-batching works *across* the
  requests of one pipelined connection as well as across connections).
* response: ``{"id": 7, "ok": true, "result": [...],
  "snapshot_version": 3}`` or ``{"id": 7, "ok": false, "error":
  {"type": "Overloaded", "message": "..."}}``.

The server fronts one :class:`~repro.serve.service.SkycubeService`;
which backend answers (static, live or sharded) never shows here.

Shutdown is a graceful drain: on SIGTERM/SIGINT the listener stops
accepting, in-flight requests finish (bounded by ``drain_timeout``),
open connections close, and ``run_server`` returns — no response is
ever cut off mid-line.
"""

from __future__ import annotations

import asyncio
import json
import signal
from typing import Any, Dict, Optional, Set, Tuple

from repro.serve.service import BAD_REQUEST, SkycubeService, request_from_json
from repro.trace import BAD_REQUEST as TAXONOMY_BAD_REQUEST
from repro.trace import TraceEvent

__all__ = ["SkycubeServer", "run_server"]


class SkycubeServer:
    """One listening socket bound to one :class:`SkycubeService`."""

    def __init__(
        self,
        service: SkycubeService,
        host: str = "127.0.0.1",
        port: int = 0,
        drain_timeout: float = 10.0,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.drain_timeout = drain_timeout
        self._server: Optional[asyncio.base_events.Server] = None
        self._tasks: Set[asyncio.Task] = set()
        self._connections: Set[asyncio.StreamWriter] = set()
        self._shutdown = asyncio.Event()
        self._draining = False

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        """Bind the socket and start the service's batcher."""
        await self.service.start()
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port
        )
        sockets = self._server.sockets or []
        if sockets:
            self.port = sockets[0].getsockname()[1]

    @property
    def address(self) -> Tuple[str, int]:
        return self.host, self.port

    def request_shutdown(self) -> None:
        """Signal-safe trigger for the graceful drain."""
        self._shutdown.set()

    def install_signal_handlers(self) -> None:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self.request_shutdown)
            except NotImplementedError:  # non-unix event loops
                break

    async def serve_until_shutdown(self) -> None:
        """Block until a shutdown is requested, then drain and return."""
        await self._shutdown.wait()
        await self.drain()

    async def drain(self) -> None:
        """Stop accepting, finish in-flight requests, close the socket."""
        self._draining = True
        if self._server is not None:
            self._server.close()
        pending = [task for task in self._tasks if not task.done()]
        if pending:
            done, still_pending = await asyncio.wait(
                pending, timeout=self.drain_timeout
            )
            for task in still_pending:
                task.cancel()
            if still_pending:
                await asyncio.gather(*still_pending, return_exceptions=True)
        # Close idle connections *after* their in-flight responses went
        # out; this also unblocks handler readlines so that
        # ``wait_closed`` (which since 3.12 waits for handlers too)
        # cannot hang on a client that never disconnects.
        for writer in list(self._connections):
            writer.close()
        if self._server is not None:
            await self._server.wait_closed()
        await self.service.stop()

    # -- connection handling -------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        write_lock = asyncio.Lock()
        inflight: Set[asyncio.Task] = set()
        self._connections.add(writer)
        try:
            while not self._draining:
                line = await reader.readline()
                if not line:
                    break
                if not line.strip():
                    continue
                task = asyncio.ensure_future(
                    self._handle_line(line, writer, write_lock)
                )
                inflight.add(task)
                self._tasks.add(task)
                task.add_done_callback(inflight.discard)
                task.add_done_callback(self._tasks.discard)
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        finally:
            self._connections.discard(writer)
            if inflight:
                await asyncio.gather(*inflight, return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _handle_line(
        self,
        line: bytes,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        request_id: Any = None
        try:
            obj = json.loads(line.decode("utf-8"))
            if isinstance(obj, dict):
                request_id = obj.get("id")
            request = request_from_json(
                obj, self.service.d, asyncio.get_running_loop().time()
            )
        except (ValueError, UnicodeDecodeError) as error:
            # Rejected before it ever became a Request: trace it here,
            # at the admit stage, or the failure would be invisible.
            tracer = self.service.tracer
            if tracer.enabled:
                tracer.emit(TraceEvent(
                    stage="admit", outcome="failure",
                    failure=TAXONOMY_BAD_REQUEST,
                    request_id=tracer.next_request_id(),
                    detail=str(error),
                ))
            payload: Dict[str, Any] = {
                "id": request_id,
                "ok": False,
                "error": {"type": BAD_REQUEST, "message": str(error)},
            }
            await self._write(writer, write_lock, payload)
            return
        response = await self.service.submit(request)
        payload = dict(response.to_json())
        payload["id"] = request_id
        await self._write(writer, write_lock, payload)

    async def _write(
        self,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        payload: Dict[str, Any],
    ) -> None:
        encoded = (json.dumps(payload) + "\n").encode("utf-8")
        async with write_lock:
            if writer.is_closing():
                return
            writer.write(encoded)
            try:
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError):
                pass


async def run_server(
    service: SkycubeService,
    host: str = "127.0.0.1",
    port: int = 0,
    install_signals: bool = True,
    ready: Optional[asyncio.Event] = None,
) -> None:
    """Start a server, announce readiness, and serve until SIGTERM."""
    server = SkycubeServer(service, host=host, port=port)
    await server.start()
    if install_signals:
        server.install_signal_handlers()
    if ready is not None:
        ready.set()
    bound_host, bound_port = server.address
    print(f"repro.serve: listening on {bound_host}:{bound_port}", flush=True)
    await server.serve_until_shutdown()
    print("repro.serve: drained, bye", flush=True)
