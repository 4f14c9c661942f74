"""Live write path: delta publishes vs full rebuilds, and bounded deletes.

Before this bench's subject existed, every live mutation republished
the entire snapshot: ``snapshot_arrays`` + ``HashCube.from_masks`` over
all ``n`` points — O(n) per insert/delete regardless of how little
moved.  The delta path publishes the same version chain incrementally:
the maintainer reports the exact
:class:`~repro.core.maintain.MaskDelta` of each mutation (affected
points found via the static-tree label prefilter, masks updated by the
closure-table folds and the delete-side open-bit re-verify of
:mod:`repro.engine.delta`) and the next cube is a copy-on-write
:meth:`~repro.core.hashcube.HashCube.with_updates` clone sharing every
untouched word table, so publish cost tracks the *moved* masks, not
``n``.

Bit-identity is asserted *before* any timing: after a warm-up mutation
mix, the delta-published snapshot must answer every one of the
``2^d - 1`` subspace skylines exactly like a from-scratch
``from_maintainer`` rebuild of the same maintainer state — and again
after the timed mutations.

Asserted shape, at n=20k d=8 on anticorrelated, independent and
correlated data (the mix alternates inserts with deletes, every other
delete taking a current full-space skyline point — the deletes whose
re-verify has the most to do):

* the mean delta publish (copy-on-write cube + delta arrays + swap,
  the ``publish`` trace span) beats the mean full-rebuild publish
  >= 10x on anticorrelated data (>= 2x under ``--quick``, where n
  shrinks toward fixed per-publish overheads);
* end to end, a delete's p99 stays within 10x an insert's p99 on every
  distribution (20x under ``--quick``): a delete re-verifies only the
  mask bits the removed point could have owned, so it is O(affected)
  like an insert, not a cube rebuild.
"""

import time

import numpy as np

from repro.core.bitmask import full_space
from repro.data.generator import generate
from repro.experiments.report import Table
from repro.serve.snapshot import LiveUpdater, ServingSnapshot
from repro.trace.tracer import Tracer

MUTATIONS = 100
WARMUP = 20
REBUILD_SAMPLES = 10
DISTRIBUTIONS = ("anticorrelated", "independent", "correlated")


class PublishRecorder(Tracer):
    """Collects the write path's publish/compact spans."""

    enabled = True

    def __init__(self):
        super().__init__()
        self.spans = []

    def emit(self, event):
        if event.stage in ("publish", "compact"):
            self.spans.append(event)


def assert_bit_identical(updater, holder):
    """Every subspace skyline of the delta chain == full rebuild."""
    rebuilt = ServingSnapshot.from_maintainer(
        updater.maintainer, holder.version, updater.word_width
    )
    current = holder.current
    assert sorted(current.ids.tolist()) == sorted(rebuilt.ids.tolist())
    for delta in range(1, full_space(current.d) + 1):
        assert current.skyline(delta) == rebuilt.skyline(delta), delta


def mutation_mix(rng, updater, live_ids, d, count,
                 insert_times=None, delete_times=None):
    """Alternating inserts and deletes; the inserts are drawn from the
    unit cube, every other delete takes a current full-space skyline
    point and the rest a random live point."""
    full = (1 << d) - 1
    for step in range(count):
        if live_ids and step % 2:
            if step % 4 == 1:
                skyline = updater.maintainer.skyline(full)
                victim = int(skyline[int(rng.integers(len(skyline)))])
                live_ids.remove(victim)
            else:
                victim = live_ids.pop(int(rng.integers(len(live_ids))))
            before = time.perf_counter()
            updater.delete(victim)
            if delete_times is not None:
                delete_times.append(time.perf_counter() - before)
        else:
            point = rng.random(d)
            before = time.perf_counter()
            pid, _ = updater.insert(point)
            if insert_times is not None:
                insert_times.append(time.perf_counter() - before)
            live_ids.append(pid)


def _mean(times):
    return sum(times) / len(times)


def _p99(times):
    ordered = sorted(times)
    return ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))]


def measure_distribution(distribution, n, d, rebuilds):
    """Timed mutation mix over one bootstrapped live updater."""
    data = generate(distribution, n, d, seed=0)
    rng = np.random.default_rng(1)
    recorder = PublishRecorder()
    updater, holder = LiveUpdater.bootstrap(
        data, compact_every=10_000, tracer=recorder
    )
    live_ids = list(range(n))
    # Warm the version chain, then gate on bit-identity BEFORE any
    # number is recorded — a fast wrong publish is worthless.
    mutation_mix(rng, updater, live_ids, d, WARMUP)
    assert_bit_identical(updater, holder)

    recorder.spans.clear()
    insert_times, delete_times = [], []
    mutation_mix(
        rng, updater, live_ids, d, MUTATIONS,
        insert_times=insert_times, delete_times=delete_times,
    )
    publish_times = [event.duration_ms / 1e3 for event in recorder.spans]

    # The former write path: one full from_maintainer rebuild per
    # publish, timed on the exact same maintainer state.
    rebuild_times = []
    for _ in range(rebuilds):
        before = time.perf_counter()
        ServingSnapshot.from_maintainer(
            updater.maintainer, holder.version, updater.word_width
        )
        rebuild_times.append(time.perf_counter() - before)

    # Identity still holds after the timed mutations.
    assert_bit_identical(updater, holder)
    return publish_times, rebuild_times, insert_times, delete_times


def test_live_update_publish(benchmark, quick):
    n = 2_000 if quick else 20_000
    d = 8

    def measure():
        return {
            distribution: measure_distribution(
                distribution, n, d,
                REBUILD_SAMPLES if distribution == "anticorrelated" else 0,
            )
            for distribution in DISTRIBUTIONS
        }

    runs = benchmark.pedantic(measure, rounds=1, iterations=1)

    table = Table(
        f"Live write path: delta vs full-rebuild publish, and delete vs "
        f"insert, n={n} d={d} ({full_space(d)} subspaces)",
        ["distribution", "stage", "mean ms", "p99 ms", "ratio"],
        notes=[
            "publish = copy-on-write cube + delta data/id arrays + "
            "swap (the 'publish' trace span); rebuild = the former "
            "full from_maintainer publish on the same state; ratio = "
            "mean rebuild / mean delta publish",
            "insert/delete rows are end-to-end mutations including "
            "the maintainer's delta sweep; delete ratio = delete p99 / "
            "insert p99",
            f"{MUTATIONS // 2} inserts (uniform points) and "
            f"{MUTATIONS // 2} deletes per distribution, every other "
            "delete a current full-space skyline point",
            "bit-identity with a full rebuild asserted before and "
            "after timing, all subspaces",
        ],
    )
    speedup = float("nan")
    gates = {}
    for distribution, (
        publish_times, rebuild_times, insert_times, delete_times,
    ) in runs.items():
        if rebuild_times:
            speedup = _mean(rebuild_times) / _mean(publish_times)
            table.add_row(
                distribution, "full rebuild publish",
                1e3 * _mean(rebuild_times), 1e3 * _p99(rebuild_times), 1.0,
            )
            table.add_row(
                distribution, "delta publish",
                1e3 * _mean(publish_times), 1e3 * _p99(publish_times),
                speedup,
            )
        gates[distribution] = _p99(delete_times) / _p99(insert_times)
        table.add_row(
            distribution, "insert end-to-end",
            1e3 * _mean(insert_times), 1e3 * _p99(insert_times), 1.0,
        )
        table.add_row(
            distribution, "delete end-to-end",
            1e3 * _mean(delete_times), 1e3 * _p99(delete_times),
            gates[distribution],
        )
    table.save("live_update.txt")

    threshold = 2.0 if quick else 10.0
    assert speedup >= threshold, table.format()
    delete_bound = 20.0 if quick else 10.0
    for distribution, ratio in gates.items():
        assert ratio <= delete_bound, (distribution, table.format())


def test_compaction_bounds_version_chain(quick):
    """Compaction resets the generation without changing answers."""
    n = 500 if quick else 2_000
    d = 6
    data = generate("independent", n, d, seed=3)
    updater, holder = LiveUpdater.bootstrap(data, compact_every=8)
    rng = np.random.default_rng(2)
    live_ids = list(range(n))
    mutation_mix(rng, updater, live_ids, d, 20)
    assert holder.current.cube.generation <= 8
    assert_bit_identical(updater, holder)
