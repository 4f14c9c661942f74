"""Per-layer numbers of the traced ``serve`` and ``live`` runs.

Two sources, neither of which adds code to the program:

* the server's own ``--trace`` lifecycle events (``admit``, ``batch``,
  ``compute``, ``respond``, ``publish``, ``compact``), read back from
  its jsonl file after the drain;
* an in-process replay of the same seeded inputs through the library
  layers (``fast_skycube``, HashCube probes, ``dynamic_topk``,
  ``SkycubeMaintainer`` with ``HashCube.with_updates``), with spans
  around the benchmark's own calls and around the wrapped entry points
  of ``layers.py``.
"""

from __future__ import annotations

import itertools
import json
import time
from pathlib import Path
from typing import Any, Dict, List

import numpy as np

import workloads as wl
from common import Spans, median, percentile
from layers import BUILD_LAYERS, Wrapped, build_layer_metrics

#: Mutations replayed in-process (whole writer cycles).
REPLAY_CYCLES = 6
#: Reads replayed in-process against the cube.
REPLAY_READS = 4000


def _med(values: List[float]) -> float:
    return median(values) if values else 0.0


def read_events(path: Path) -> List[Dict[str, Any]]:
    with open(path, encoding="utf-8") as lines:
        return [json.loads(line) for line in lines if line.strip()]


def server_layers(events: List[Dict[str, Any]], phase, seconds: float,
                  server_metrics: Dict[str, Any]) -> Dict[str, Any]:
    """serve.*, wire.* and snapshot.* numbers from one traced phase."""
    stage: Dict[str, List[Dict[str, Any]]] = {}
    for event in events:
        stage.setdefault(event.get("stage", "?"), []).append(event)
    waits = [e["duration_ms"] for e in stage.get("batch", []) if "duration_ms" in e]
    computes = [e for e in stage.get("compute", []) if e.get("request_id") is not None]
    fresh = [e for e in computes if e.get("detail") != "coalesced"]
    failures = [e for e in events if e.get("outcome") == "failure"]
    respond: Dict[str, List[float]] = {}
    for event in stage.get("respond", []):
        respond.setdefault(event.get("op", "?"), []).append(event.get("duration_ms", 0.0))
    out: Dict[str, float] = {
        "serve.batch_wait_ms.p50": _med(waits),
        "serve.batch_wait_ms.p99": percentile(waits, 0.99) if waits else 0.0,
        "serve.batch_size": float(server_metrics.get("mean_batch_size", 0.0)),
        "serve.compute_busy_share": sum(e.get("duration_ms", 0.0) for e in fresh) / (1e3 * seconds),
        "serve.coalesced_share": (len(computes) - len(fresh)) / len(computes) if computes else 0.0,
        "serve.shed": float(sum(e.get("failure") == "Shed" for e in failures)),
        "serve.deadline_exceeded": float(sum(e.get("failure") == "DeadlineExceeded" for e in failures)),
        "wire.response_bytes.skyline": _med(phase.response_bytes.get("skyline", [])),
    }
    breakdown: Dict[str, Dict[str, float]] = {}
    for op in ("skyline", "membership", "topk_dynamic"):
        mine = [e.get("duration_ms", 0.0) for e in fresh if e.get("op") == op]
        out[f"serve.compute_ms.{op}"] = _med(mine)
    for op in ("skyline", "membership", "topk_dynamic", "insert", "delete"):
        client = phase.tallies[op].latencies_ms if op in phase.tallies else []
        server = respond.get(op, [])
        out[f"wire.overhead_ms.{op}"] = _med(client) - _med(server) if client and server else 0.0
        if client and server:
            wait = _med([e["duration_ms"] for e in stage.get("batch", [])
                         if e.get("op") == op and "duration_ms" in e])
            compute = _med([e.get("duration_ms", 0.0) for e in computes if e.get("op") == op])
            breakdown[op] = {
                "client_p50_ms": _med(client),
                "batch_wait_ms": wait,
                "compute_ms": compute,
                "server_other_ms": _med(server) - wait - compute,
                "wire_ms": _med(client) - _med(server),
            }
    publishes = stage.get("publish", [])
    compacts = stage.get("compact", [])
    out.update({
        "snapshot.publish_ms": _med([e.get("duration_ms", 0.0) for e in publishes]),
        "snapshot.compact_ms": _med([e.get("duration_ms", 0.0) for e in compacts]),
        "snapshot.compactions": float(len(compacts)),
        "snapshot.masks_rewritten": float(sum(
            e.get("changed", 0) + e.get("removed", 0) for e in publishes + compacts)),
    })
    sent = sum(t.attempted for t in phase.tallies.values()) + phase.extra_requests
    return {"layers": out, "breakdown": breakdown,
            "requests": {"client": sent, "server": len(stage.get("respond", []))}}


def build_layers(data: np.ndarray, spans: Spans, suffix: str):
    """One wrapped ``fast_skycube`` of the served data: its layer split
    and the cube's HashCube."""
    from repro import fast_skycube

    with Wrapped(spans, BUILD_LAYERS):
        with spans.span(f"build.{suffix}"):
            cube = fast_skycube(data)
    return build_layer_metrics(spans, suffix, cube), cube.store


def probe_layers(cube, ops) -> Dict[str, float]:
    """HashCube ``skyline``/``contains`` probe times over a read stream."""
    sky: List[float] = []
    contains: List[float] = []
    for request in itertools.islice(ops, REPLAY_READS):
        if request["op"] == "skyline":
            started = time.perf_counter()
            cube.skyline(request["delta"])
            sky.append(1e6 * (time.perf_counter() - started))
        elif request["op"] == "membership":
            started = time.perf_counter()
            cube.contains(request["point_id"], request["delta"])
            contains.append(1e6 * (time.perf_counter() - started))
    return {"hashcube.skyline_us": _med(sky), "hashcube.contains_us": _med(contains)}


def serve_replay(seed: int, data: np.ndarray, spans: Spans) -> Dict[str, float]:
    from repro.query.dynamic import dynamic_topk

    out, cube = build_layers(data, spans, "anti")
    plan = wl.serve_plan(seed, data)
    out.update(probe_layers(cube, wl.serve_ops(seed, 0, plan)))
    topk: List[float] = []
    for q in plan[1]:
        with spans.span("dynamic.topk") as record:
            dynamic_topk(data, q, k=wl.SERVE_TOPK)
        topk.append(1e3 * (record["end"] - record["start"]))  # type: ignore[operator]
    out["dynamic.topk_ms"] = _med(topk)
    return out


def live_replay(seed: int, data: np.ndarray, pool: np.ndarray,
                spans: Spans) -> Dict[str, float]:
    """Bootstrap a maintainer on the live data and replay the writer's
    first cycles, publishing each delta with ``HashCube.with_updates``."""
    from repro import SkycubeMaintainer
    from repro.instrument.counters import Counters

    counters = Counters()
    with Wrapped(spans, BUILD_LAYERS):
        with spans.span("build.anti"):
            maintainer = SkycubeMaintainer(data, counters=counters)
            cube = maintainer.skycube()
    out = build_layer_metrics(spans, "anti", cube)
    cube = cube.store
    out.update(probe_layers(cube, wl.live_reader_ops(seed, 0, pool)))

    model = wl.LiveModel(seed, data, pool)
    inserts: List[float] = []
    deletes: List[Dict[str, float]] = []
    with Wrapped(spans, ["delta.recompute", "hashcube.with_updates"]):
        for _ in range(REPLAY_CYCLES * len(wl.LIVE_CYCLE)):
            kind, row = model.next_op()
            tests = counters.dominance_tests
            first = len(spans.records)
            if kind == "insert":
                with spans.span("maintain.insert") as record:
                    pid, delta = maintainer.insert_with_delta(model.rows[row])
                inserts.append(1e3 * (record["end"] - record["start"]))  # type: ignore[operator]
                model.apply(kind, row, pid)
            else:
                with spans.span("maintain.delete") as record:
                    delta = maintainer.delete_with_delta(model.ids[row])
                model.apply(kind, row)
                inner = [r for r in spans.records[first:] if r["name"] == "delta.recompute"]
                victims = sum(r["counts"].get("victims", 0) for r in inner)  # type: ignore[union-attr]
                deletes.append({
                    "ms": 1e3 * (record["end"] - record["start"]),  # type: ignore[operator]
                    "recompute_ms": sum(1e3 * (r["end"] - r["start"]) for r in inner),  # type: ignore[operator]
                    "victims": victims,
                    "changed": len(delta.changed),
                    "covered": not inner,
                    "tests": counters.dominance_tests - tests,
                })
            with spans.span("publish"):
                cube = cube.with_updates(delta.changed, delta.removed)
    victims = sum(d["victims"] for d in deletes)
    out.update({
        "maintain.insert_ms": _med(inserts),
        "maintain.delete_ms": _med([d["ms"] for d in deletes]),
        "delta.recompute_ms": _med([d["recompute_ms"] for d in deletes]),
        "maintain.delete_victims": _med([d["victims"] for d in deletes]),
        "maintain.delete_masks_changed": _med([d["changed"] for d in deletes]),
        "maintain.delete_useful_share": sum(d["changed"] for d in deletes) / victims if victims else 0.0,
        "maintain.covered_share": sum(d["covered"] for d in deletes) / len(deletes),
        "maintain.dominance_tests": _med([d["tests"] for d in deletes]),
        "hashcube.with_updates_ms": _med(spans.durations("hashcube.with_updates")),
    })
    return out
