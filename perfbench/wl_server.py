"""The ``serve`` and ``live`` workloads: a real server, closed-loop callers.

Both spawn ``python -m repro serve`` with the shipped defaults (2 ms
window, max batch 64), measure set-up as spawn → ``listening`` over
several spawns, then run one closed-loop load from this process over at
most two connections for ``--seconds``.  Answers are checked after the
timed phase; the server must drain on SIGTERM.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Any, Callable, Dict, List

import numpy as np

import workloads as wl
from common import beyond, median, percentile
from wire import Conn, Server, Tally, closed_loop

READ_OPS = ("skyline", "membership", "topk_dynamic")


class Phase:
    """Everything one timed phase against one server observed."""

    def __init__(self, classes, remember: bool) -> None:
        self.tallies: Dict[str, Tally] = {op: Tally() for op in classes}
        self.remember = remember
        self.answers: Dict[str, Any] = {}
        self.inconsistent: List[str] = []
        self.response_bytes: Dict[str, List[int]] = {op: [] for op in classes}
        self.extra_requests = 0

    def observe(self, request: Dict[str, Any], response: Dict[str, Any]) -> None:
        """Record the answer's size and, when remembering, keep the first
        answer per distinct question: a later answer to the same
        question on the same snapshot version must agree."""
        self.response_bytes[request["op"]].append(response["_bytes"])
        if not self.remember:
            return
        key = json.dumps([request, response.get("snapshot_version")], sort_keys=True)
        seen = self.answers.setdefault(key, response["result"])
        if seen is not response["result"] and seen != response["result"]:
            self.inconsistent.append(key)

    @property
    def attempted(self) -> int:
        return sum(t.attempted for t in self.tallies.values())

    @property
    def failed(self) -> int:
        return sum(t.failed for t in self.tallies.values())

    def reads(self) -> List[float]:
        return [x for op in READ_OPS if op in self.tallies
                for x in self.tallies[op].latencies_ms]

    def reads_per_s(self, t0: float, t1: float) -> float:
        done = sum(
            sum(1 for at in self.tallies[op].done_at if at <= t1)
            for op in READ_OPS if op in self.tallies)
        return done / (t1 - t0)


def _p50(tally: Tally) -> float:
    return median(tally.latencies_ms) if tally.latencies_ms else float("nan")


def spawn_setups(server_args, count: int) -> Dict[str, Any]:
    """Spawn the server ``count`` times; all but the last are stopped
    right after ``listening``.  Returns set-up times, the set-up-only
    peak RSS of the stopped ones, and the last (running) server."""
    setups: List[float] = []
    setup_rss: List[float] = []
    drains: List[bool] = []
    server = None
    for i in range(count):
        server = Server(*server_args)
        try:
            setups.append(server.start())
            if i < count - 1:
                stopped = server.stop()
                drains.append(stopped["drained"])
                setup_rss.append(stopped["rss_mb"])
        except BaseException:
            server.kill()
            raise
    return {"setups": setups, "setup_rss": setup_rss, "drains": drains,
            "server": server}


async def _run_load(port: int, seconds: float, phase: Phase,
                    make_callers: Callable[[List[Conn], float], List[Any]]) -> Dict[str, Any]:
    conns = [await Conn.open(port) for _ in range(2)]
    try:
        t0 = time.perf_counter()
        deadline = t0 + seconds
        await asyncio.gather(*make_callers(conns, deadline))
        t_end = time.perf_counter()
        # One control request after the load: the server's own counters.
        _, metrics = await conns[0].call({"op": "metrics"})
        phase.extra_requests += 1
    finally:
        for conn in conns:
            await conn.close()
    return {"t0": t0, "deadline": deadline, "t_end": t_end,
            "server_metrics": metrics.get("result")}


# -- serve -----------------------------------------------------------------


def serve_phase(server: Server, seed: int, seconds: float,
                data: np.ndarray) -> Dict[str, Any]:
    phase = Phase(READ_OPS, remember=True)
    plan = wl.serve_plan(seed, data)

    def callers(conns, deadline):
        out = []
        for caller in range(wl.SERVE_READERS):
            conn = conns[caller % wl.SERVE_CONNECTIONS]
            out.append(closed_loop(conn, wl.serve_ops(seed, caller, plan), deadline,
                                   phase.tallies, phase.observe))
        return out

    timing = asyncio.run(_run_load(server.port, seconds, phase, callers))
    return {"phase": phase, **timing}


def in_skyline(data: np.ndarray, row: int, delta: int) -> bool:
    """Brute-force membership: no point dominates ``row`` in ``delta``."""
    dims = [i for i in range(data.shape[1]) if delta >> i & 1]
    cols, point = data[:, dims], data[row, dims]
    return not bool(((cols <= point).all(axis=1) & (cols < point).any(axis=1)).any())


def check_serve(data: np.ndarray, phase: Phase, seed: int) -> List[str]:
    """Sampled distinct answers vs the in-process reference."""
    from repro import fast_skyline
    from repro.query.dynamic import dynamic_topk

    by_op: Dict[str, List[str]] = {}
    for key in sorted(phase.answers):
        request = json.loads(key)[0]
        by_op.setdefault(request["op"], []).append(key)
    gen = wl.rng(seed, 99)
    sample = {"skyline": 4, "membership": 16, "topk_dynamic": 4}
    skylines: Dict[int, set] = {}

    def reference_skyline(delta: int) -> set:
        if delta not in skylines:
            skylines[delta] = set(int(i) for i in fast_skyline(data, delta))
        return skylines[delta]

    problems = list(phase.inconsistent[:5])
    for op, count in sample.items():
        keys = by_op.get(op, [])
        if not keys:
            problems.append(f"no {op} answers to check")
            continue
        for index in gen.choice(len(keys), size=min(count, len(keys)), replace=False):
            key = keys[int(index)]
            request = json.loads(key)[0]
            got = phase.answers[key]
            if op == "skyline":
                want: Any = sorted(reference_skyline(request["delta"]))
                got = sorted(got)
            elif op == "membership":
                want = in_skyline(data, request["point_id"], request["delta"])
            else:
                want = dynamic_topk(data, request["q"], k=request["k"])
            if got != want:
                problems.append(f"{op} {request}: wrong answer")
    return problems


# -- live ------------------------------------------------------------------


def live_phase(server: Server, seed: int, seconds: float, data: np.ndarray,
               pool: np.ndarray) -> Dict[str, Any]:
    phase = Phase(("skyline", "membership", "insert", "delete"), remember=False)
    model = wl.LiveModel(seed, data, pool)

    async def writer(conn: Conn, deadline: float) -> None:
        while time.perf_counter() < deadline:
            kind, row = model.next_op()
            if kind == "insert":
                request = {"op": "insert", "point": model.rows[row].tolist()}
            else:
                request = {"op": "delete", "point_id": model.ids[row]}
            tally = phase.tallies[kind]
            try:
                seconds_, response = await conn.call(request)
            except (ConnectionError, OSError):
                tally.record(None, None)
                return
            if tally.record(seconds_, response):
                result = response["result"]
                model.apply(kind, row, result.get("point_id") if kind == "insert" else None)

    def callers(conns, deadline):
        out = [writer(conns[0], deadline)]
        for caller in range(wl.LIVE_READERS):
            out.append(closed_loop(conns[1], wl.live_reader_ops(seed, caller, pool),
                                   deadline, phase.tallies, phase.observe))
        return out

    timing = asyncio.run(_run_load(server.port, seconds, phase, callers))
    return {"phase": phase, "model": model, **timing}


def check_live(server: Server, model: wl.LiveModel, seed: int, phase: Phase) -> List[str]:
    """After the last write: sampled server skylines vs ``fast_skyline``
    over the model's live set."""
    from repro import fast_skyline

    live = model.live_rows()
    ids = np.asarray([model.ids[row] for row in live.tolist()])
    rows = model.rows[live]
    deltas = wl.check_subspaces(seed, 12, salt=2)

    async def ask() -> List[Any]:
        conn = await Conn.open(server.port)
        try:
            return [await conn.call({"op": "skyline", "delta": delta})
                    for delta in deltas]
        finally:
            await conn.close()

    problems: List[str] = []
    phase.extra_requests += len(deltas)
    for delta, (_, response) in zip(deltas, asyncio.run(ask())):
        want = sorted(int(i) for i in ids[fast_skyline(rows, delta)])
        if not response.get("ok"):
            problems.append(f"check skyline {delta}: {response.get('error')}")
        elif sorted(response["result"]) != want:
            problems.append(f"live skyline {delta}: wrong answer")
    return problems


# -- summaries ---------------------------------------------------------------


def summarise(phase: Phase, timing: Dict[str, Any]) -> Dict[str, float]:
    """The end-to-end numbers of one phase, under the workload's own
    metric names.  ``read_p99_ms`` only when >= 10 reads lie beyond it."""
    t = phase.tallies
    out = {
        "reads_per_s": phase.reads_per_s(timing["t0"], timing["deadline"]),
        "sky_p50_ms": _p50(t["skyline"]),
        "member_p50_ms": _p50(t["membership"]),
    }
    reads = phase.reads()
    out["read_samples"] = len(reads)
    if beyond(len(reads), 0.99) >= 10:
        out["read_p99_ms"] = percentile(reads, 0.99)
    for op in ("topk_dynamic", "insert", "delete"):
        if op in t:
            name = "topk" if op == "topk_dynamic" else op
            out[f"{name}_p50_ms"] = _p50(t[op])
            out[f"{name}_samples"] = len(t[op].latencies_ms)
    return out
