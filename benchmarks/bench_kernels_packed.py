"""Packed-bitset engine timings.

Times the ``engine="packed"`` fast path of
:func:`repro.engine.fast_skycube` at the paper's stress point
(anticorrelated, n=20 000, d=8 — 255 subspaces, ~15 000 extended
skyline points).

Two record-only rows set the threaded sweep against the alternatives:
``engine=packed`` with its sweep held to one thread (the CPU count
patched to 1), and ``MDMC(executor="process", workers=2)``, which
splits the same sweep over worker processes instead.  Both are checked
bit-identical to ``engine=packed`` before they are timed.

A second section times :meth:`repro.serve.ServingSnapshot.build` at
reduced n — the serving layer's bootstrap is the main in-repo consumer
of the packed path.

A record-only test times the sweep alone (``PackedSweep.range_masks``
over S+, threaded and on one thread) beyond d = 8 — anticorrelated
n = 2 000 at d = 9, 10, 12 and 16 — and on the correlated n = 20 000,
d = 8 shape of perfbench's ``corr`` build, writing
``results/kernels_packed_wide.txt``.
"""

import time

import numpy as np

from repro.core.hashcube import HashCube
from repro.data.generator import generate
from repro.engine import packed
from repro.engine.kernels import fast_extended_skyline, fast_skycube
from repro.experiments.report import Table
from repro.serve import ServingSnapshot
from repro.templates import MDMC


def test_packed_engine_speedup(benchmark, quick, monkeypatch):
    n, d = (2_000, 6) if quick else (20_000, 8)
    data = generate("anticorrelated", n, d, seed=7)
    serve_n = 1_000 if quick else 6_000
    threads = packed._cpu_count()
    process = MDMC(executor="process", workers=2)

    def measure():
        timings = {}
        start = time.perf_counter()
        packed_cube = fast_skycube(data, engine="packed")
        timings["packed"] = time.perf_counter() - start
        with monkeypatch.context() as one_cpu:
            one_cpu.setattr(packed, "_cpu_count", lambda: 1)
            serial_cube = fast_skycube(data, engine="packed")
            assert serial_cube.store == packed_cube.store, (
                "the one-thread sweep diverged from engine='packed'"
            )
            start = time.perf_counter()
            fast_skycube(data, engine="packed")
            timings["serial"] = time.perf_counter() - start
        assert process.materialise(data).skycube.store == packed_cube.store, (
            "MDMC(executor='process') diverged from engine='packed'"
        )
        start = time.perf_counter()
        process.materialise(data)
        timings["process"] = time.perf_counter() - start
        start = time.perf_counter()
        snapshot = ServingSnapshot.build(data[:serve_n], engine="packed")
        timings["serve_packed"] = time.perf_counter() - start
        assert snapshot.cube == fast_skycube(data[:serve_n]).store
        return timings

    timings = benchmark.pedantic(measure, rounds=1, iterations=1)
    table = Table(
        f"Packed skycube engine: anticorrelated n={n} d={d}",
        ["configuration", "seconds", "speedup vs packed"],
        notes=[
            "every row verified bit-identical to engine=packed before timing",
            f"serve bootstrap section uses n={serve_n}",
            f"engine=packed sweeps on {threads} thread(s), one per CPU; "
            "the 1-thread and process rows are record-only",
        ],
    )
    table.add_row("engine=packed", timings["packed"], 1.0)
    table.add_row(
        "engine=packed, 1 thread",
        timings["serial"],
        timings["packed"] / timings["serial"],
    )
    table.add_row(
        'MDMC(executor="process", workers=2)',
        timings["process"],
        timings["packed"] / timings["process"],
    )
    table.add_row("serve bootstrap, packed", timings["serve_packed"], "")
    table.save("kernels_packed.txt")


def test_sweep_beyond_d8(benchmark, quick, monkeypatch):
    small = 200 if quick else 2_000
    inputs = [
        ("anticorrelated", small, d) for d in (9, 10, 12, 16)
    ] + [("correlated", 2_000 if quick else 20_000, 8)]

    def sweep_seconds(rows, cpus):
        with monkeypatch.context() as patch:
            patch.setattr(packed, "_cpu_count", lambda: cpus)
            sweep = packed.PackedSweep(rows)
            start = time.perf_counter()
            masks = sweep.range_masks(0, sweep.n)
            return time.perf_counter() - start, masks, sweep.block

    def measure():
        timings = []
        for dist, n, d in inputs:
            data = generate(dist, n, d, seed=7)
            splus = fast_extended_skyline(data)
            rows = np.ascontiguousarray(data[splus])
            if d <= 12:
                reference = fast_skycube(data).store
            else:
                # HashCube.from_masks over ~2 000 rows of 1 024 words
                # takes minutes: check against one-row blocks that sort.
                with monkeypatch.context() as patch:
                    patch.setattr(packed, "_PRESENCE_LIMIT", 0)
                    reference = packed.packed_point_masks(rows, block=1)
            row = [f"{dist[0].upper()} n={n} d={d}", len(rows)]
            for cpus in (packed._cpu_count(), 1):
                # Bit-identical before timed: a first, untimed run.
                _, masks, block = sweep_seconds(rows, cpus)
                if d <= 12:
                    built = HashCube.from_masks(d, splus, masks)
                    assert built == reference, (dist, d, cpus)
                else:
                    assert np.array_equal(masks, reference), (dist, d, cpus)
                row.append(sweep_seconds(rows, cpus)[0] * 1e3)
            row.append(block)
            timings.append(row)
        return timings

    timings = benchmark.pedantic(measure, rounds=1, iterations=1)
    table = Table(
        "Packed sweep beyond d = 8 (PackedSweep.range_masks over S+)",
        ["input", "|S+|", "threaded ms", "1 thread ms", "default block"],
        notes=[
            "record-only; every row checked bit-identical before timing: "
            "against fast_skycube's cube up to d = 12, against one-row "
            "blocks with sort dedup at d = 16",
            f"threaded = one thread per CPU ({packed._cpu_count()} here)",
        ],
    )
    for row in timings:
        table.add_row(*row)
    table.save("kernels_packed_wide.txt")
