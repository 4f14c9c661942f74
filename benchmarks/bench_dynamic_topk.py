"""Early-stop dynamic top-k against the full-filter reference.

:func:`repro.query.dynamic.dynamic_topk` scans rows in (distance, id)
order and stops once ``k`` dynamic-skyline rows are confirmed; past its
caps it finishes with the full filter.  The reference here is the path
it replaced: a full :func:`repro.engine.fast_skyline` of the transformed
data, then the distance rank.

Data: anticorrelated and correlated, n = 20 000, d = 8.  Queries: 16
data points moved by a N(0, 2·10^-4) jitter (the ``serve`` workload's
"Pareto-closest alternatives to this item"), the centre, the origin and
an exact data point, each with k = 8 and k = n.  Every answer is
asserted equal to the reference before anything is timed.

Gates at full size:

* **floor** — k = 8 on the jittered queries (summed per dataset) runs
  at least :data:`FLOOR` times faster than the reference;
* **ceiling** — every case whose k exceeds the dynamic skyline's size
  (the scan then falls back to the full filter) takes at most
  :data:`CEILING` times the reference.

``--quick`` runs n = 2 000 and checks identity only.
"""

import statistics
import time

import numpy as np

from repro.core.bitmask import full_space
from repro.data.generator import generate
from repro.engine import fast_skyline
from repro.experiments.report import Table
from repro.query.dynamic import dynamic_topk, dynamic_transform

D = 8
JITTERED = 16
K = 8
FLOOR = 2.0
CEILING = 1.25
REPEATS = 3


def reference_topk(data, query, k):
    """The full-filter path: whole dynamic skyline, then the rank."""
    transformed = dynamic_transform(data, query)
    ids = fast_skyline(transformed, full_space(transformed.shape[1]))
    distance = transformed[ids].sum(axis=1)
    ranked = sorted(zip(distance.tolist(), ids.tolist()))
    return [pid for _, pid in ranked[:k]]


def queries(data, seed):
    gen = np.random.default_rng(seed)
    base = data[gen.choice(len(data), size=JITTERED, replace=False)]
    jittered = np.clip(base + gen.normal(0.0, 2e-4, base.shape), 0.0, 1.0)
    named = [(f"jittered {i}", q) for i, q in enumerate(jittered)]
    named += [
        ("centre", np.full(data.shape[1], 0.5)),
        ("origin", np.zeros(data.shape[1])),
        ("data point", data[int(gen.integers(len(data)))].copy()),
    ]
    return named


def paired_ms(*fns):
    """Median ms of each function over :data:`REPEATS` alternating
    rounds, so a host speed change lands on both sides alike."""
    times = [[] for _ in fns]
    for _ in range(REPEATS):
        for fn, samples in zip(fns, times):
            start = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - start)
    return [1e3 * statistics.median(samples) for samples in times]


def test_dynamic_topk_early_stop(benchmark, quick):
    n = 2_000 if quick else 20_000
    datasets = {
        "anticorrelated": generate("anticorrelated", n, D, seed=7),
        "correlated": generate("correlated", n, D, seed=7),
    }

    def measure():
        cases = []
        for dist, data in datasets.items():
            for name, query in queries(data, seed=11):
                skyline = len(reference_topk(data, query, n))
                for k in (K, n):
                    got = dynamic_topk(data, query, k)
                    assert got == reference_topk(data, query, k), (
                        dist, name, k,
                    )
                    cases.append((dist, name, k, skyline, data, query))
        if quick:
            return []
        return [
            (dist, name, k, skyline, *paired_ms(
                lambda: reference_topk(data, query, k),
                lambda: dynamic_topk(data, query, k),
            ))
            for dist, name, k, skyline, data, query in cases
        ]

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    if quick:
        return
    table = Table(
        f"Early-stop dynamic top-k: n={n} d={D}, median of {REPEATS} "
        "alternating runs",
        ["data", "queries", "k", "skyline", "reference ms", "early stop ms",
         "speedup"],
        notes=[
            "every answer asserted equal to the full-filter reference "
            "(fast_skyline of the transformed data, then the rank) "
            "before timing",
            f"floor: k={K} on the {JITTERED} jittered queries (summed) "
            f">= {FLOOR}x; ceiling: every case with k beyond the skyline "
            f"<= {CEILING}x the reference",
            "jittered rows sum their queries; their skyline column is "
            "the largest of the group",
        ],
    )
    for dist in datasets:
        for k in (K, n):
            group = [
                row for row in rows
                if row[0] == dist and row[1].startswith("jittered")
                and row[2] == k
            ]
            reference = sum(row[4] for row in group)
            early = sum(row[5] for row in group)
            table.add_row(
                dist, f"{JITTERED} jittered", k,
                max(row[3] for row in group), reference, early,
                reference / early,
            )
            if k == K:
                assert reference / early >= FLOOR, (
                    f"{dist}: k={K} top-k only {reference / early:.2f}x "
                    f"faster than the full filter (floor {FLOOR}x)"
                )
        for row in rows:
            if row[0] == dist and not row[1].startswith("jittered"):
                table.add_row(dist, row[1], row[2], row[3], row[4], row[5],
                              row[4] / row[5])
    table.save("dynamic_topk.txt")
    for dist, name, k, skyline, reference, early in rows:
        if k > skyline:
            assert early <= CEILING * reference, (
                f"{dist} {name} k={k}: {early:.1f} ms against the "
                f"reference's {reference:.1f} ms (ceiling {CEILING}x)"
            )
