"""The thread-parallel packed sweep: bit-identity with threads forced.

``PackedSweep.range_masks`` splits its blocks over one thread per CPU.
These tests force two threads by patching the CPU count, and use small
blocks so that every sweep spans many sub-blocks, even on a one-CPU
runner.  The mask rows must equal the serial sweep's and the per-point
``SubspaceClosures`` fold.  They also pin what stays on one thread: the
label-filtered sweep while its filter runs (its prune-rate gate and
counters depend on block order), and the process-pool tasks.
"""

import sys
import threading

import numpy as np
import pytest

from repro.core.maintain import SkycubeMaintainer
from repro.data.generator import generate
from repro.engine import delta as delta_module
from repro.engine import packed
from repro.engine.kernels import fast_extended_skyline, fast_skycube
from repro.engine.parallel import (
    SharedDataset,
    _FILTERED_SWEEPS,
    _PACKED_SWEEPS,
    filtered_point_block_task,
    packed_point_block_task,
)
from repro.instrument.counters import Counters
from repro.partitioning.static_tree import LeafLabels
from tests.test_packed_engine import (
    assert_matches_fold,
    fold_cube,
    fold_masks,
    seeded_workloads,
    wide_workloads,
)

BLOCKS = (1, 2, 3, 8)


@pytest.fixture
def started(monkeypatch):
    """Every thread started while the test runs (a spy on the factory)."""
    threads = []

    class Spy(threading.Thread):
        def start(self):
            threads.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Spy)
    return threads


@pytest.fixture
def forced(monkeypatch, started):
    """Two threads per sweep, whatever the CPU count."""
    monkeypatch.setattr(packed, "_cpu_count", lambda: 2)
    return started


def splus_rows(data):
    return np.ascontiguousarray(data[fast_extended_skyline(data)])


def serial_masks(rows, block=None):
    sweep = packed.PackedSweep(rows, block=block)
    sweep.threads = 1
    return sweep.range_masks(0, sweep.n)


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize(
    "case", seeded_workloads(), ids=lambda case: case[0]
)
def test_threaded_sweep_matches_serial_and_fold(case, block, forced):
    rows = splus_rows(case[1])
    sweep = packed.PackedSweep(rows, block=block)
    assert sweep.threads == 2
    masks = sweep.range_masks(0, sweep.n)
    assert np.array_equal(masks, serial_masks(rows, block))
    assert packed.rows_to_ints(masks) == fold_masks(rows)
    # Threads start exactly when the block holds a row for each and
    # the range spans several sub-blocks.
    assert bool(forced) == (block > 1 and len(rows) > block // 2)
    assert not any(thread.is_alive() for thread in forced)


@pytest.mark.parametrize("block", BLOCKS)
def test_offset_ranges_and_repeated_runs(block, forced):
    rows = splus_rows(generate("anticorrelated", 140, 4, seed=9))
    whole = serial_masks(rows)
    sweep = packed.PackedSweep(rows, block=block)
    for _ in range(3):
        assert np.array_equal(sweep.range_masks(0, sweep.n), whole)
    for start in (1, 7, len(rows) // 2):
        assert np.array_equal(sweep.range_masks(start, sweep.n), whole[start:])
    stitched = np.vstack(
        [sweep.range_masks(0, 7), sweep.range_masks(7, sweep.n)]
    )
    assert np.array_equal(stitched, whole)
    assert bool(forced) == (block > 1)


def test_more_threads_than_cores_under_fast_switching(started, monkeypatch):
    # One-row sub-blocks handed out by the shared queue to eight threads
    # switching every microsecond: a block taken twice or never would
    # leave a row unwritten or wrong.
    monkeypatch.setattr(packed, "_cpu_count", lambda: 8)
    rows = splus_rows(generate("anticorrelated", 300, 5, seed=4))
    expected = serial_masks(rows)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            sweep = packed.PackedSweep(rows, block=8)
            assert np.array_equal(sweep.range_masks(0, sweep.n), expected)
    finally:
        sys.setswitchinterval(interval)
    assert len(started) == 3 * 7
    assert not any(thread.is_alive() for thread in started)


def test_threads_never_outnumber_block_rows(started, monkeypatch):
    # Eight CPUs against the 4-row default block at d = 16: four threads
    # of one row each, so no more closure rows are in flight than the
    # block allows, whatever the CPU count.
    monkeypatch.setattr(packed, "_cpu_count", lambda: 8)
    rows = splus_rows(dict(wide_workloads())["i-d16"])
    expected = serial_masks(rows)
    lock = threading.Lock()
    in_flight = [0, 0]  # rows now, most rows at once
    real = packed.PackedSweep.masks

    def counted(self, start, end):
        with lock:
            in_flight[0] += end - start
            in_flight[1] = max(in_flight[1], in_flight[0])
        try:
            return real(self, start, end)
        finally:
            with lock:
                in_flight[0] -= end - start

    monkeypatch.setattr(packed.PackedSweep, "masks", counted)
    sweep = packed.PackedSweep(rows)
    assert sweep.block == 4 and sweep.threads == 8
    assert np.array_equal(sweep.range_masks(0, sweep.n), expected)
    assert len(started) == 3  # plus the calling thread
    assert 1 <= in_flight[1] <= sweep.block


@pytest.mark.parametrize("case", wide_workloads(), ids=lambda case: case[0])
def test_wide_skycubes_with_threads(case, forced, monkeypatch):
    data = case[1]
    cube = fast_skycube(data)  # default blocks: 8 rows at d = 15, 4 at 16
    assert forced
    assert_matches_fold(cube, data)
    monkeypatch.setattr(packed, "_cpu_count", lambda: 1)
    serial = fast_skycube(data)
    assert cube.store == serial.store


@pytest.mark.parametrize("max_level", [1, 2, 3])
def test_partial_cubes_with_threads(max_level, forced):
    data = generate("independent", 110, 4, seed=31)
    cube = fast_skycube(data, max_level=max_level, block=3)
    assert forced
    assert cube.store == fold_cube(data, max_level=max_level)


def test_maintainer_bootstrap_with_threads(forced, monkeypatch):
    data = generate("anticorrelated", 150, 5, seed=13)
    data = np.vstack([data, data[:12]])
    monkeypatch.setattr(packed, "DEFAULT_BLOCK", 3)
    ids, _, rows = SkycubeMaintainer(data).snapshot_arrays()
    assert forced
    assert packed.rows_to_ints(rows) == fold_masks(data)
    monkeypatch.setattr(packed, "_cpu_count", lambda: 1)
    serial_ids, _, serial_rows = SkycubeMaintainer(data).snapshot_arrays()
    assert np.array_equal(ids, serial_ids)
    assert np.array_equal(rows, serial_rows)


def test_delete_fallback_sweep_with_threads(forced, monkeypatch):
    # A two-point streamed prefix leaves most open rows to the fallback
    # sweep, and 3-row blocks split it into 1-row sub-blocks.
    monkeypatch.setattr(delta_module, "REVERIFY_PREFIX", 2)
    monkeypatch.setattr(packed, "DEFAULT_BLOCK", 3)
    data = generate("anticorrelated", 200, 5, seed=3)
    maintainer = SkycubeMaintainer(data)
    live = dict(enumerate(data))
    for dim in range(3):
        victim = min(live, key=lambda pid: (live[pid][dim], pid))
        before = len(forced)
        maintainer.delete(victim)
        del live[victim]
        assert len(forced) > before, "the fallback sweep ran serially"
        ids, _, rows = maintainer.snapshot_arrays()
        assert ids.tolist() == sorted(live)
        expected = fold_masks(np.stack([live[pid] for pid in sorted(live)]))
        assert packed.rows_to_ints(rows) == expected, victim


# -- what stays on one thread ------------------------------------------


def test_active_filter_stays_serial(forced, monkeypatch):
    # Duplicate-heavy data keeps the node directory coarse, so the leaf
    # filter engages and its gate and counters see every block.
    data = generate("independent", 300, 4, seed=5, distinct_values=3)
    threaded = Counters()
    cube = fast_skycube(
        data, engine="packed-filtered", block=8, counters=threaded
    )
    assert not forced
    assert threaded.pairs_pruned > 0 and threaded.leaves_skipped > 0
    monkeypatch.setattr(packed, "_cpu_count", lambda: 1)
    serial = Counters()
    reference = fast_skycube(
        data, engine="packed-filtered", block=8, counters=serial
    )
    assert cube.store == reference.store
    for name in ("pairs_pruned", "leaves_skipped", "label_bytes"):
        assert getattr(threaded, name) == getattr(serial, name), name
    assert cube.store == fast_skycube(data, block=8).store


def gated_off(rows, labels):
    """Whether the filtered sweep's static gate turns its filter off."""
    limit = packed.FilteredPackedSweep.MAX_NODE_FRACTION * len(rows)
    return labels.node_count > max(1.0, limit)


def test_gated_off_filter_threads_like_the_plain_sweep(forced, monkeypatch):
    # Anticorrelated rows spread over a near one-node-per-point
    # directory, so the static gate turns the filter off before the
    # first block: no order-dependent state is left to keep serial.
    data = generate("anticorrelated", 300, 5, seed=8)
    ordered, labels = packed.leaf_ordered(splus_rows(data))
    assert gated_off(ordered, labels)
    counters = Counters()
    sweep = packed.FilteredPackedSweep(ordered, labels, block=8, counters=counters)
    assert sweep.threads == 2
    masks = sweep.range_masks(0, sweep.n)
    assert forced
    assert np.array_equal(masks, serial_masks(ordered, 8))
    for name in ("pairs_pruned", "leaves_skipped", "label_bytes"):
        assert getattr(counters, name) == 0, name
    threaded = fast_skycube(data, engine="packed-filtered", block=8)
    monkeypatch.setattr(packed, "_cpu_count", lambda: 1)
    assert threaded.store == fast_skycube(data, block=8).store


def test_process_tasks_start_no_thread(forced, monkeypatch):
    # The filtered task's filter is gated off here, so without the
    # task's own one-thread setting its sweep would thread.
    monkeypatch.setattr(packed, "DEFAULT_BLOCK", 3)
    rows = splus_rows(generate("anticorrelated", 300, 5, seed=8))
    expected = serial_masks(rows)
    labels = LeafLabels.build(rows)
    assert gated_off(rows, labels)
    ordered = np.ascontiguousarray(rows[labels.order])
    columns = np.ascontiguousarray(
        np.column_stack([labels.med, labels.quart, labels.octl])
    )
    try:
        with SharedDataset(rows) as shared:
            masks = packed_point_block_task((shared.descriptor, 0, len(rows)))
        with SharedDataset(ordered) as shared, SharedDataset(columns) as cols:
            leaf_masks, _ = filtered_point_block_task(
                (shared.descriptor, cols.descriptor, 0, len(rows))
            )
    finally:
        _PACKED_SWEEPS.clear()
        _FILTERED_SWEEPS.clear()
    assert not forced
    assert np.array_equal(masks, expected)
    assert np.array_equal(leaf_masks, expected[labels.order])


def test_one_cpu_starts_no_thread(started, monkeypatch):
    monkeypatch.setattr(packed, "_cpu_count", lambda: 1)
    rows = splus_rows(generate("anticorrelated", 140, 4, seed=9))
    sweep = packed.PackedSweep(rows, block=3)
    assert sweep.threads == 1
    masks = sweep.range_masks(0, sweep.n)
    assert not started
    assert packed.rows_to_ints(masks) == fold_masks(rows)


def test_helper_error_reaches_the_caller(forced, monkeypatch):
    rows = splus_rows(generate("anticorrelated", 140, 4, seed=9))
    real = packed.PackedSweep.masks

    def failing(self, start, end):
        if start >= 4:
            raise RuntimeError("block failed")
        return real(self, start, end)

    monkeypatch.setattr(packed.PackedSweep, "masks", failing)
    sweep = packed.PackedSweep(rows, block=2)
    with pytest.raises(RuntimeError, match="block failed"):
        sweep.range_masks(0, sweep.n)
    assert forced
    assert not any(thread.is_alive() for thread in forced)


def test_closure_table_built_once_under_concurrent_calls(monkeypatch):
    cache = {}
    monkeypatch.setattr(packed, "_TABLE_CACHE", cache)
    workers = 8
    barrier = threading.Barrier(workers)
    tables = [None] * workers

    def fetch(slot):
        barrier.wait(timeout=10)
        tables[slot] = packed.closure_table(12)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=fetch, args=(slot,))
            for slot in range(workers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(table is tables[0] for table in tables)
    assert not tables[0].flags.writeable
    assert list(cache) == [12] and cache[12] is tables[0]
