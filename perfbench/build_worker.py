"""The process that runs the program for the ``build`` workload.

Started by ``wl_build.py`` with ``PYTHONPATH`` at the checkout's
``src``.  Set-up (what the parent times up to the ``ready`` line) is the
imports, loading both datasets and one cold build per class.  Then,
on ``go``, it runs interleaved ``repro.fast_skycube(data)`` builds for
the given seconds and prints one JSON result line: per-class build
times, the answers the parent checks, and this process's peak RSS.

With ``--trace 1`` every other build runs inside benchmark-side layer
spans (see ``layers.py``), and the result carries the per-layer
numbers instead.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from pathlib import Path
from typing import Dict, List

import numpy as np

import workloads as wl
from common import Spans, median
from layers import BUILD_LAYERS, Wrapped, build_layer_metrics

CLASSES = ("corr", "anti")


def digest(cube) -> int:
    """Cheap fingerprint: every build of one class must give the same."""
    return hash(tuple(cube.skyline(delta) for delta in (wl.FULL, 1, 0b1011, 0b11110000)))


def count_layers(data: np.ndarray) -> Dict[str, float]:
    """Work the octant prefilter and the leaf filter would save: counts
    from the engine's own counters, outside any timed build."""
    from repro.engine import fast_extended_skyline, label_prefilter
    from repro.engine.packed import filtered_point_masks
    from repro.instrument.counters import Counters

    counters = Counters()
    label_prefilter(data, counters=counters)
    splus = fast_extended_skyline(data)
    filtered_point_masks(data[splus], counters=counters)
    return {
        "prefilter_dropped": counters.extra.get("prefilter_dropped", 0),
        "leaves_skipped": counters.leaves_skipped,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--work", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    from repro import fast_skycube

    work = Path(args.work)
    data = {cls: np.load(work / f"{cls}.npy") for cls in CLASSES}
    for cls in CLASSES:
        fast_skycube(data[cls])
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0

    times: Dict[str, List[float]] = {cls: [] for cls in CLASSES}
    traced: Dict[str, List[float]] = {cls: [] for cls in CLASSES}
    digests: Dict[str, set] = {cls: set() for cls in CLASSES}
    last = {}
    spans = Spans()
    order = wl.build_order(args.seed)
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline:
        cls = next(order)
        gc.collect()
        started = time.perf_counter()
        cube = fast_skycube(data[cls])
        times[cls].append(1e3 * (time.perf_counter() - started))
        digests[cls].add(digest(cube))
        last[cls] = cube
        if args.trace:
            gc.collect()
            with Wrapped(spans, BUILD_LAYERS):
                started = time.perf_counter()
                with spans.span(f"build.{cls}"):
                    cube = fast_skycube(data[cls])
                traced[cls].append(1e3 * (time.perf_counter() - started))
            digests[cls].add(digest(cube))

    result: Dict[str, object] = {
        "build_ms": times,
        "consistent": all(len(found) == 1 for found in digests.values()),
        "answers": {
            cls: {str(delta): list(cube.skyline(delta))
                  for delta in wl.check_subspaces(args.seed, 8, salt=i)}
            for i, (cls, cube) in enumerate(sorted(last.items()))
        },
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "traced_builds": sum(len(found) for found in traced.values()),
    }
    if args.trace:
        spans.write(work / "spans.jsonl")
        layers: Dict[str, float] = {}
        for cls in CLASSES:
            counts = count_layers(data[cls])
            layers.update(build_layer_metrics(spans, cls, last[cls]))
            layers[f"kernels.prefilter_dropped.{cls}"] = float(counts["prefilter_dropped"])
            layers[f"packed.leaves_skipped.{cls}"] = float(counts["leaves_skipped"])
        untraced = sum(median(times[cls]) for cls in CLASSES)
        layers["trace.overhead_share"] = (
            sum(median(traced[cls]) for cls in CLASSES) - untraced) / untraced
        result["layers"] = layers
        result["breakdown"] = spans.breakdown()
        result["missing"] = spans.missing
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
