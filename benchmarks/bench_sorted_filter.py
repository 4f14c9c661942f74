"""Bitmap candidate test of the shared sorted filter, against the dense path.

Every exact skyline in the program comes from one sorted filter
(``repro.engine.kernels._sorted_filter``).  Per block it either runs
the dense window test or gathers per-column bin bitsets and verifies
only the candidate pairs they leave, choosing from counts it already
has.  The reference here is the dense path alone: the same filter with
its gate forced shut (``GATHER_COST`` patched to infinity).  That is
the window test the filter ran before the bitmap test existed, except
that a dense block now gathers its window from the kept mask instead of
appending survivors to a buffer (DESIGN.md compares the two).  The
bitmap path alone (every cost patched to zero) is timed as well,
record-only: it is why both paths stay, since it loses to the dense
path where the bins do not separate the rows.

Each input is timed through :func:`repro.engine.fast_extended_skyline`
(S+) and :func:`repro.engine.fast_skyline`.  Every answer of the gated
filter and of the bitmap path alone is asserted equal to the dense
path's before anything is timed.

Gates at full size, on medians of :data:`REPEATS` alternating runs:

* **floors** (S+) — anticorrelated n = 2·10^4, d = 8 at least 5x
  faster, independent n = 2·10^4, d = 8 at least 2x;
* **ceiling** — every other row takes at most :data:`CEILING` times the
  dense path's time.  Rows whose dense time is under
  :data:`RECORD_ONLY_MS` are record-only.

``--quick`` caps n at 2 000 and checks identity only.
"""

import math
import statistics
import time
from unittest import mock

import numpy as np

from repro.data.generator import generate
from repro.engine import fast_extended_skyline, fast_skyline, kernels
from repro.experiments.report import Table

#: (label, distribution, n, d, distinct values per column or None).
CASES = [
    ("A d=8", "anticorrelated", 20_000, 8, None),
    ("A d=8", "anticorrelated", 5_000, 8, None),
    ("I d=8", "independent", 20_000, 8, None),
    ("I d=8", "independent", 100_000, 8, None),
    ("A d=12", "anticorrelated", 3_000, 12, None),
    ("A d=16", "anticorrelated", 1_500, 16, None),
    ("C d=8", "correlated", 20_000, 8, None),
    ("C d=8", "correlated", 100_000, 8, None),
    ("I d=5, 3 values", "independent", 20_000, 5, 3),
    ("A d=4", "anticorrelated", 20_000, 4, None),
    ("A d=2", "anticorrelated", 5_000, 2, None),
]
FILTERS = {"S+": fast_extended_skyline, "skyline": fast_skyline}
#: (label, n) -> least S+ speedup over the dense path.
FLOORS = {("A d=8", 20_000): 5.0, ("I d=8", 20_000): 2.0}
CEILING = 1.1
RECORD_ONLY_MS = 10.0
REPEATS = 5


#: Gate settings for one path alone: the dense window test (the bitmap
#: test never tried) and the bitmap test (tries, gather and pairs free).
DENSE = {"GATHER_COST": math.inf}
BITMAP = {"GATHER_COST": 0, "PAIR_COST": 0, "TRY_COST": 0}


def forced(gate, fn, data):
    """``fn(data)`` with the filter's gate patched to ``gate``."""
    with mock.patch.multiple(kernels, **gate):
        return fn(data)


def paired_ms(data, fn):
    """Median ms of the dense path, the gated filter and the bitmap
    path over :data:`REPEATS` alternating rounds, so a host speed change
    lands on every side alike."""
    runs = (
        lambda: forced(DENSE, fn, data),
        lambda: fn(data),
        lambda: forced(BITMAP, fn, data),
    )
    times = tuple([] for _ in runs)
    for _ in range(REPEATS):
        for side, run in zip(times, runs):
            start = time.perf_counter()
            run()
            side.append(time.perf_counter() - start)
    return [1e3 * statistics.median(side) for side in times]


def test_sorted_filter_bitmap(benchmark, quick):
    inputs = [
        (label, min(n, 2_000) if quick else n,
         generate(dist, min(n, 2_000) if quick else n, d, seed=7,
                  distinct_values=distinct))
        for label, dist, n, d, distinct in CASES
    ]

    def measure():
        for label, n, data in inputs:
            for name, fn in FILTERS.items():
                reference = forced(DENSE, fn, data)
                assert np.array_equal(fn(data), reference), (label, n, name)
                assert np.array_equal(forced(BITMAP, fn, data), reference), (
                    label, n, name, "bitmap path",
                )
        if quick:
            return []
        return [
            (label, n, name, len(fn(data)), *paired_ms(data, fn))
            for label, n, data in inputs
            for name, fn in FILTERS.items()
        ]

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    if quick:
        return
    table = Table(
        f"Sorted filter: bitmap candidate test vs the dense path, median "
        f"of {REPEATS} alternating runs",
        ["input", "n", "filter", "kept", "dense ms", "gated ms", "speedup",
         "bitmap ms"],
        notes=[
            "every answer of the gated filter and of the bitmap path alone "
            "asserted equal to the dense path (gate forced shut) before "
            "timing; times are the public calls, ranking included",
            "speedup: dense ms / gated ms; bitmap ms (every block on the "
            "bitmap test, gate costs zero) is record-only",
            "floors (S+): "
            + ", ".join(f"{label} n={n} >= {floor}x"
                        for (label, n), floor in FLOORS.items())
            + f"; ceiling: every other row <= {CEILING}x the dense path, "
            f"rows under {RECORD_ONLY_MS:g} ms dense record-only",
        ],
    )
    for label, n, name, kept, dense_ms, gated_ms, bitmap_ms in rows:
        table.add_row(label, n, name, kept, dense_ms, gated_ms,
                      dense_ms / gated_ms, bitmap_ms)
    table.save("sorted_filter.txt")
    for label, n, name, kept, dense_ms, gated_ms, _ in rows:
        floor = FLOORS.get((label, n)) if name == "S+" else None
        if floor is not None:
            assert dense_ms / gated_ms >= floor, (
                f"{label} n={n} {name}: {dense_ms / gated_ms:.2f}x "
                f"(floor {floor}x)"
            )
        elif dense_ms >= RECORD_ONLY_MS:
            assert gated_ms <= CEILING * dense_ms, (
                f"{label} n={n} {name}: {gated_ms:.1f} ms against the "
                f"dense path's {dense_ms:.1f} ms (ceiling {CEILING}x)"
            )
