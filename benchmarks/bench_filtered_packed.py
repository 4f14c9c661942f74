"""Filtered packed sweep vs the plain packed engine, across A/I/C.

The acceptance bench for ``engine="packed-filtered"``: at n=50 000,
d=8 its end-to-end ``fast_skycube`` time must stay within 10% of the
plain packed engine's on correlated data, where the octant-path label
prefilter engages, and on anticorrelated data, where every gate turns
the filtering off.  The prefilter no longer buys the correlated row a
large win: the shared sorted filter's representative pass already
drops most correlated rows before the exact ``S+`` filter runs, on
both engines.  A fourth, duplicate-heavy workload (3 distinct values,
d=5 — the in-sweep filter's design point, where the node directory
stays coarse over S+) exercises the in-sweep leaf filter, whose
pruning tallies (``pairs_pruned`` / ``leaves_skipped`` /
``label_bytes``) are recorded in the table notes.

Every timed configuration is first verified bit-identical against the
plain packed engine; a filtered sweep that diverged would fail before
any number is reported.
"""

import time

from repro.data.generator import generate
from repro.engine.kernels import fast_skycube
from repro.experiments.report import Table
from repro.instrument.counters import Counters

#: Full-size ceiling: the worst slowdown of the filtered engine
#: against the plain one tolerated on the correlated and
#: anticorrelated rows.
REGRESSION_CEILING = 1.1


def test_filtered_packed_speedup(benchmark, quick):
    n, d = (3_000, 6) if quick else (50_000, 8)
    workloads = [
        ("correlated", generate("correlated", n, d, seed=7)),
        ("independent", generate("independent", n, d, seed=7)),
        ("anticorrelated", generate("anticorrelated", n, d, seed=7)),
        # Quantised values at moderate d: the coarse node directory
        # keeps most of S+ under few nodes, so the in-sweep leaf filter
        # engages and skips the majority of leaves per block.  (At
        # higher d the quantised S+ spreads over too many nodes and the
        # gates correctly fall back to the plain coder.)
        (
            "independent d=5, 3 distinct values",
            generate("independent", n, 5, seed=7, distinct_values=3),
        ),
    ]

    def measure():
        results = {}
        for name, data in workloads:
            start = time.perf_counter()
            packed_cube = fast_skycube(data, engine="packed")
            packed_s = time.perf_counter() - start
            counters = Counters()
            start = time.perf_counter()
            filtered_cube = fast_skycube(
                data, engine="packed-filtered", counters=counters
            )
            filtered_s = time.perf_counter() - start
            assert filtered_cube.store == packed_cube.store, (
                f"filtered engine diverged from packed on {name}"
            )
            results[name] = (packed_s, filtered_s, counters)
        return results

    results = benchmark.pedantic(measure, rounds=1, iterations=1)
    table = Table(
        f"Filtered vs plain packed skycube engine: n={n} d={d}",
        ["workload", "packed s", "filtered s", "speedup"],
        notes=["every row verified bit-identical before timing"],
    )
    for name, (packed_s, filtered_s, counters) in results.items():
        table.add_row(name, packed_s, filtered_s, packed_s / filtered_s)
        pruning = {
            key: value
            for key, value in counters.as_dict().items()
            if value
            and key
            in ("pairs_pruned", "leaves_skipped", "label_bytes",
                "prefilter_dropped")
        }
        table.notes.append(f"{name}: {pruning or 'all filters gated off'}")
    table.save("filtered_packed.txt")

    corr_packed, corr_filtered, corr_counters = results["correlated"]
    anti_packed, anti_filtered, _ = results["anticorrelated"]
    # At quick/CI size per-call overheads dominate both ratios, so the
    # ceiling only binds at full size (bit-identity is always strict,
    # and the prefilter must still have engaged somewhere).
    assert corr_counters.extra.get("prefilter_dropped", 0) > 0, table.format()
    if not quick:
        assert corr_filtered <= REGRESSION_CEILING * corr_packed, table.format()
        assert anti_filtered <= REGRESSION_CEILING * anti_packed, table.format()
