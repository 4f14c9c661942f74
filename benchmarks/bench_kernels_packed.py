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
"""

import time

from repro.data.generator import generate
from repro.engine import packed
from repro.engine.kernels import fast_skycube
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
