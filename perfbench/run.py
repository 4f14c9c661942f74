"""Benchmark entry point: ``python3 perfbench/run.py --workload NAME``.

Runs one workload (``build``, ``serve`` or ``live``) against the
program in this checkout's ``src``, checks its answers, prints every
metric by name with its unit, and ends with one JSON line::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones (see README.md).  Exits non-zero without a result when
the checkout holds no program to run.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import signal
import sys
import time
from typing import Any, Dict, List

import numpy as np

import common
import workloads as wl
from common import SetupError, Spans, median, metric

#: name -> (unit, better, bound); mirrors BENCHMARK.json.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "rss_mb": ("MB", "lower", 0.10),
    "ops_per_s": ("1/s", "higher", 0.25),
    "light_p50_ms": ("ms", "lower", 0.25),
    "heavy_p50_ms": ("ms", "lower", 0.25),
}

#: Which of a workload's own metrics fills each shared slot.
SLOTS = {
    "build": {"ops_per_s": "builds_per_s", "light_p50_ms": "corr_build_ms",
              "heavy_p50_ms": "anti_build_ms"},
    "serve": {"ops_per_s": "reads_per_s", "light_p50_ms": "member_p50_ms",
              "heavy_p50_ms": "topk_p50_ms"},
    "live": {"ops_per_s": "reads_per_s", "light_p50_ms": "member_p50_ms",
             "heavy_p50_ms": "delete_p50_ms"},
}

#: The workloads' own metric names and units, as the human table shows them.
UNITS = {
    "setup_s": "s", "rss_mb": "MB", "builds_per_s": "1/s", "reads_per_s": "1/s",
    "corr_build_ms": "ms", "anti_build_ms": "ms", "sky_p50_ms": "ms",
    "member_p50_ms": "ms", "topk_p50_ms": "ms", "read_p99_ms": "ms",
    "insert_p50_ms": "ms", "delete_p50_ms": "ms", "read_samples": "count",
}

_BUILD = ["kernels.splus_ms", "kernels.splus_rows", "kernels.prefilter_dropped",
          "packed.sweep_ms", "packed.leaves_skipped", "hashcube.from_masks_ms",
          "hashcube.bytes", "build.unattributed_ms"]
_BETTER_HIGHER = {"kernels.prefilter_dropped", "packed.leaves_skipped", "serve.batch_size",
                  "serve.coalesced_share", "maintain.delete_useful_share",
                  "maintain.covered_share"}


def _unit(name: str) -> str:
    if name.endswith("_us"):
        return "us"
    if "_ms" in name:
        return "ms"
    if "bytes" in name:
        return "bytes"
    if name.endswith("_share"):
        return "ratio"
    return "count"


#: Every per-layer metric; a layer a workload bypasses reads 0.
PER_LAYER = [f"{name}.{cls}" for cls in ("corr", "anti") for name in _BUILD] + [
    "hashcube.skyline_us", "hashcube.contains_us", "hashcube.with_updates_ms",
    "dynamic.topk_ms",
    "serve.batch_wait_ms.p50", "serve.batch_wait_ms.p99", "serve.batch_size",
    "serve.compute_busy_share", "serve.coalesced_share",
    "serve.compute_ms.skyline", "serve.compute_ms.membership",
    "serve.compute_ms.topk_dynamic", "serve.shed", "serve.deadline_exceeded",
    "wire.response_bytes.skyline", "wire.overhead_ms.skyline",
    "wire.overhead_ms.membership", "wire.overhead_ms.topk_dynamic",
    "wire.overhead_ms.insert", "wire.overhead_ms.delete",
    "maintain.insert_ms", "maintain.delete_ms", "delta.recompute_ms",
    "maintain.delete_victims", "maintain.delete_masks_changed",
    "maintain.delete_useful_share", "maintain.covered_share",
    "maintain.dominance_tests",
    "snapshot.publish_ms", "snapshot.compact_ms", "snapshot.compactions",
    "snapshot.masks_rewritten",
    "trace.overhead_share",
]


def per_layer_spec() -> List[Dict[str, str]]:
    return [{"name": name, "unit": _unit(name),
             "better": "higher" if name.rsplit(".", 1)[0] in _BETTER_HIGHER
             or name in _BETTER_HIGHER else "lower"}
            for name in PER_LAYER]


# -- serve and live ----------------------------------------------------------


def run_server_workload(name: str, seed: int, seconds: float, trace: int) -> Dict[str, Any]:
    import replay
    import wl_server as ws
    from wire import Server

    work = common.workdir(f"{name}-{seed}")
    # The traced run is two half-length phases: untraced, then traced.
    seconds = seconds / 2 if trace else seconds
    if name == "serve":
        data, flags, setups, pool = wl.serve_dataset(seed), [], 3, None
    else:
        data, flags, setups, pool = wl.live_dataset(seed), ["--live"], 4, wl.live_pool(seed)
    np.save(work / "data.npy", data)
    log = work / "server.log"
    problems: List[str] = []
    phases: List[Dict[str, Any]] = []
    summary: Dict[str, float] = {}
    samples: Dict[str, List[float]] = {}
    layers: Dict[str, float] = {}
    breakdown: Dict[str, Any] = {}
    missing: List[str] = []

    def phase(server: Server) -> Dict[str, Any]:
        if name == "serve":
            out = ws.serve_phase(server, seed, seconds, data)
            problems.extend(ws.check_serve(data, out["phase"], seed))
        else:
            out = ws.live_phase(server, seed, seconds, data, pool)
            problems.extend(ws.check_live(server, out["model"], seed, out["phase"]))
        stopped = server.stop()
        if not stopped["drained"]:
            problems.append(f"server did not drain on SIGTERM (exit {stopped['exit']})")
        out["stopped"] = stopped
        phases.append(out)
        return out

    started = ws.spawn_setups((work / "data.npy", log, flags), 1 if trace else setups)
    server = started["server"]
    try:
        first = phase(server)
        if not trace:
            if not all(started["drains"]):
                problems.append("a set-up server did not drain on SIGTERM")
            summary = ws.summarise(first["phase"], first)
            summary["setup_s"] = median(started["setups"])
            # serve: the timed server's peak.  live: its peak grows with
            # the writes it happened to absorb, so the repeatable form
            # is the peak through set-up, over the set-up-only spawns.
            summary["rss_mb"] = (first["stopped"]["rss_mb"] if name == "serve"
                                 else median(started["setup_rss"]))
            summary["timed_server_peak_rss_mb"] = first["stopped"]["rss_mb"]
            samples = {op: t.latencies_ms for op, t in first["phase"].tallies.items()}
            samples["setup_s"] = started["setups"]
        else:
            trace_path = work / "server-trace.jsonl"
            trace_path.unlink(missing_ok=True)
            server = Server(work / "data.npy", log, flags + ["--trace", str(trace_path)])
            server.start()
            second = phase(server)
            seen = replay.server_layers(replay.read_events(trace_path), second["phase"],
                                        seconds, second["server_metrics"] or {})
            if seen["requests"]["client"] != seen["requests"]["server"]:
                problems.append(f"server traced {seen['requests']['server']} requests, "
                                f"client sent {seen['requests']['client']}")
            layers.update(seen["layers"])
            breakdown["requests"] = seen["breakdown"]
            untraced = first["phase"].reads_per_s(first["t0"], first["deadline"])
            traced = second["phase"].reads_per_s(second["t0"], second["deadline"])
            layers["trace.overhead_share"] = (untraced - traced) / untraced
            spans = Spans()
            if name == "serve":
                layers.update(replay.serve_replay(seed, data, spans))
            else:
                layers.update(replay.live_replay(seed, data, pool, spans))
            spans.write(work / "spans.jsonl")
            breakdown["replay"] = spans.breakdown()
            missing = spans.missing
    finally:
        server.kill()
    attempted = sum(p["phase"].attempted for p in phases)
    failed = sum(p["phase"].failed for p in phases)
    per_class: Dict[str, Any] = {}
    for p in phases:
        for op, tally in p["phase"].tallies.items():
            slot = per_class.setdefault(op, {"attempted": 0, "ok": 0, "failed": {}})
            slot["attempted"] += tally.attempted
            slot["ok"] += tally.ok
            for kind, count in tally.errors.items():
                slot["failed"][kind] = slot["failed"].get(kind, 0) + count
    return {"summary": summary, "samples": samples, "layers": layers, "breakdown": breakdown,
            "missing": missing,
            "problems": problems, "attempted": attempted, "failed": failed,
            "per_class": per_class, "server_argv": ["python", "-m", "repro", "serve",
                                                    "<data.npy>", "--port", "0", *flags]}


# -- entry -------------------------------------------------------------------


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SLOTS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A SIGTERM unwinds like Ctrl-C, so every child process is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    try:
        common.import_program()
        shutil.rmtree(common.WORK / f"{args.workload}-{args.seed}", ignore_errors=True)
        common.warm_imports()
        began = time.perf_counter()
        if args.workload == "build":
            import wl_build

            outcome = wl_build.run(args.seed, args.seconds, args.trace)
            outcome["server_argv"] = None
        else:
            outcome = run_server_workload(args.workload, args.seed, args.seconds, args.trace)
    except SetupError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2

    summary = outcome["summary"]
    if args.trace:
        metrics = {name: metric(outcome["layers"].get(name, 0.0), _unit(name))
                   for name in PER_LAYER}
    else:
        own = SLOTS[args.workload]
        metrics = {name: metric(summary.get(own.get(name, name), math.nan), spec[0])
                   for name, spec in END_TO_END.items()}
    for name, entry in metrics.items():
        if not math.isfinite(entry["value"]):
            outcome["problems"].append(f"{name}: no samples")
            entry["value"] = 0.0

    lines = [f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
             f"trace={args.trace} wall={time.perf_counter() - began:.1f}s"]
    for name, value in summary.items():
        if name in UNITS:
            slot = next((s for s, own in SLOTS[args.workload].items() if own == name), "")
            lines.append(f"  {name:<16} {value:>12.4f} {UNITS[name]:<4} {slot}")
    for op, counts in outcome["per_class"].items():
        lines.append(f"  ops {op:<13} attempted={counts['attempted']} ok={counts['ok']} "
                     f"failed={counts['failed'] or 0}")
    if args.trace:
        for name in PER_LAYER:
            lines.append(f"  {name:<34} {metrics[name]['value']:>14.4f} {_unit(name)}")
        for group, table in outcome["breakdown"].items():
            lines.append(f"  self time by op class ({group}): {json.dumps(table)}")
        if outcome["missing"]:
            lines.append(f"  not wrapped (absent in this program): {outcome['missing']}")
    for problem in outcome["problems"]:
        lines.append(f"  WRONG: {problem}")
    print("\n".join(lines))
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": common.env_block(args.seed, outcome["server_argv"]),
        "outcome": {key: value for key, value in outcome.items() if key != "server_argv"},
        "metrics": metrics,
    }
    out = common.WORK / f"{args.workload}-{args.seed}" / f"result-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=str))
    print(json.dumps({
        "correct": not outcome["problems"],
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
