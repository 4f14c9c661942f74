"""The server process and a pipelined asyncio NDJSON client.

The benchmark drives ``python -m repro serve`` exactly as a user would:
it spawns the process on a generated ``.npy`` file, waits for the
``listening`` line, talks the wire protocol over at most two TCP
connections, and stops the server with SIGTERM, which must drain it.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import select
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from common import ROOT, SetupError, program_env

#: Wire error types; anything else a server answers counts as Internal.
ERROR_TYPES = ("Overloaded", "DeadlineExceeded", "Internal", "BadRequest", "NotFound")
TRANSPORT = "Transport"


class Lines:
    """Line reader over a child's stdout pipe with a timeout.

    Reads raw bytes and splits lines itself: a buffered reader could
    hold a complete line in user space while ``select`` waits on an
    empty pipe.
    """

    def __init__(self, proc: subprocess.Popen) -> None:
        assert proc.stdout is not None
        self.proc = proc
        self.fd = proc.stdout.fileno()
        self.buffer = b""
        self.seen: List[str] = []

    def readline(self, timeout: float) -> Optional[str]:
        """The next line, or None at end of output."""
        deadline = time.perf_counter() + timeout
        while b"\n" not in self.buffer:
            left = deadline - time.perf_counter()
            ready, _, _ = select.select([self.fd], [], [], max(left, 0))
            if not ready:
                raise SetupError(f"{self.proc.args[1:4]} silent for {timeout}s")
            chunk = os.read(self.fd, 1 << 16)
            if not chunk:
                if not self.buffer:
                    return None
                self.buffer += b"\n"
            self.buffer += chunk
        line, self.buffer = self.buffer.split(b"\n", 1)
        text = line.decode(errors="replace")
        self.seen.append(text)
        return text

    def wait_for(self, marker: str, timeout: float) -> str:
        deadline = time.perf_counter() + timeout
        while True:
            line = self.readline(max(deadline - time.perf_counter(), 0))
            if line is None:
                raise SetupError(f"{self.proc.args[1:4]} exited (code "
                                 f"{self.proc.wait()}) before {marker!r}")
            if marker in line:
                return line

    def rest(self, timeout: float = 10.0) -> List[str]:
        """Everything left once the child has exited."""
        while self.readline(timeout) is not None:
            pass
        return self.seen


class Server:
    """One ``python -m repro serve`` child process."""

    def __init__(self, data: Path, log: Path, flags: List[str]) -> None:
        self.argv = [sys.executable, "-m", "repro", "serve", str(data),
                     "--port", "0", *flags]
        self.log = log
        self.port = 0
        self.setup_s = 0.0
        self.proc: Optional[subprocess.Popen] = None
        self.lines: Optional[Lines] = None

    def start(self, timeout: float = 150.0) -> float:
        """Spawn and wait for ``listening``; returns spawn→listening seconds."""
        with open(self.log, "ab") as err:
            started = time.perf_counter()
            self.proc = subprocess.Popen(
                self.argv, cwd=ROOT, env=program_env(), stdout=subprocess.PIPE,
                stderr=err, bufsize=0,
            )
        self.lines = Lines(self.proc)
        line = self.lines.wait_for("listening on", timeout)
        self.setup_s = time.perf_counter() - started
        self.port = int(line.rsplit(":", 1)[1])
        return self.setup_s

    def stop(self, timeout: float = 40.0) -> Dict[str, Any]:
        """SIGTERM, wait for the drain; returns exit facts and peak RSS."""
        proc = self.proc
        if proc is None:
            return {"drained": False, "exit": None, "rss_mb": 0.0}
        if proc.returncode is not None:
            return {"drained": False, "exit": proc.returncode, "rss_mb": 0.0}
        proc.send_signal(signal.SIGTERM)
        deadline = time.perf_counter() + timeout
        status = usage = None
        while time.perf_counter() < deadline:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            time.sleep(0.02)
        else:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            status = None
        code = None if status is None else os.waitstatus_to_exitcode(status)
        proc.returncode = -9 if code is None else code
        assert proc.stdout is not None and self.lines is not None
        output = self.lines.rest()
        proc.stdout.close()
        drained = code == 0 and any("drained" in line for line in output)
        # ru_maxrss is in KiB on Linux.
        return {"drained": drained, "exit": code, "rss_mb": usage.ru_maxrss / 1024.0}

    def kill(self) -> None:
        """Last-resort cleanup on an error path."""
        if self.proc is not None and self.proc.returncode is None:
            self.proc.kill()
            self.proc.wait()
            if self.proc.stdout is not None:
                self.proc.stdout.close()


class Conn:
    """One pipelined connection; many callers may wait on it at once."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer
        self.pending: Dict[int, asyncio.Future] = {}
        self.ids = itertools.count(1)
        self.task = asyncio.ensure_future(self._read())

    @classmethod
    async def open(cls, port: int) -> "Conn":
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", port, limit=1 << 26)
        return cls(reader, writer)

    async def _read(self) -> None:
        try:
            while True:
                line = await self.reader.readline()
                if not line:
                    break
                received = time.perf_counter()
                obj = json.loads(line)
                obj["_bytes"] = len(line)
                future = self.pending.pop(obj.get("id"), None)
                if future is not None and not future.done():
                    future.set_result((received, obj))
        except (ConnectionError, ValueError) as error:
            reason: BaseException = error
        else:
            reason = ConnectionError("server closed the connection")
        for future in self.pending.values():
            if not future.done():
                future.set_exception(ConnectionError(str(reason)))
        self.pending.clear()

    async def call(self, payload: Dict[str, Any]) -> Tuple[float, Dict[str, Any]]:
        """Send one request; returns ``(seconds, response)``."""
        request_id = next(self.ids)
        future = asyncio.get_running_loop().create_future()
        self.pending[request_id] = future
        line = json.dumps({"id": request_id, **payload}) + "\n"
        sent = time.perf_counter()
        self.writer.write(line.encode())
        await self.writer.drain()
        received, response = await future
        return received - sent, response

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except ConnectionError:
            pass
        self.task.cancel()
        try:
            await self.task
        except asyncio.CancelledError:
            pass


class Tally:
    """Attempts, successes, failures by type and latencies of one op class."""

    def __init__(self) -> None:
        self.attempted = 0
        self.ok = 0
        self.errors: Counter = Counter()
        self.latencies_ms: List[float] = []
        #: Completion times (perf_counter) of successful ops.
        self.done_at: List[float] = []

    def record(self, seconds: Optional[float], response: Optional[Dict[str, Any]]) -> bool:
        """Count one op; returns whether it succeeded."""
        self.attempted += 1
        if response is None:
            self.errors[TRANSPORT] += 1
            return False
        if not response.get("ok"):
            kind = (response.get("error") or {}).get("type")
            self.errors[kind if kind in ERROR_TYPES else "Internal"] += 1
            return False
        self.ok += 1
        self.latencies_ms.append(1e3 * seconds)  # type: ignore[operator]
        self.done_at.append(time.perf_counter())
        return True

    @property
    def failed(self) -> int:
        return self.attempted - self.ok


async def closed_loop(conn: Conn, ops, deadline: float, tallies: Dict[str, Tally],
                      on_answer=None) -> None:
    """One logical caller: send, wait for the reply, repeat until the
    deadline.  A transport error ends the caller."""
    while time.perf_counter() < deadline:
        request = next(ops)
        tally = tallies[request["op"]]
        try:
            seconds, response = await conn.call(request)
        except (ConnectionError, OSError):
            tally.record(None, None)
            return
        if tally.record(seconds, response) and on_answer is not None:
            on_answer(request, response)
