"""Tests for incremental (delta) publishing on the live write path.

The contract under test is *bit-identity*: after any sequence of
inserts and deletes, three independently derived views must agree on
every subspace skyline —

1. the :class:`~repro.core.maintain.SkycubeMaintainer`'s own masks
   (updated in place by the delta sweeps of
   :mod:`repro.engine.delta`),
2. the delta-published :class:`~repro.serve.snapshot.ServingSnapshot`
   chain (copy-on-write ``HashCube.with_updates`` clones + periodic
   compaction rebuilds), and
3. a from-scratch :func:`~repro.engine.kernels.fast_skycube` rebuild
   of the surviving rows.

On top of that, every ``skyline_diff`` answer is oracle-checked
against full rebuilds of both endpoint versions.
"""

import numpy as np
import pytest

from repro.core.analytics import membership_masks
from repro.core.bitmask import full_space
from repro.core.maintain import SkycubeMaintainer
from repro.core.skyline import skyline_indices
from repro.data.generator import generate
from repro.engine.kernels import fast_skycube
from repro.serve.snapshot import ChangeLog, LiveUpdater
from repro.trace.tracer import Tracer


class RecordingTracer(Tracer):
    enabled = True

    def __init__(self):
        super().__init__()
        self.events = []

    def emit(self, event):
        self.events.append(event)

    def by_stage(self, stage):
        return [event for event in self.events if event.stage == stage]


def mutate_randomly(rng, updater, live, d):
    """One random mutation; keeps ``live`` ({pid: row}) in sync.

    Inserts are biased toward interesting cases: one in three is an
    exact duplicate of a live point (ties on every dimension), the rest
    are fresh draws.
    """
    do_delete = live and rng.random() < 0.45
    if do_delete:
        victim = int(rng.choice(sorted(live)))
        _, version = updater.delete(victim)
        del live[victim]
        return version
    if live and rng.random() < 0.34:
        point = live[int(rng.choice(sorted(live)))].copy()
    else:
        point = rng.integers(0, 8, size=d).astype(np.float64)
    point_id, version = updater.insert(point)
    live[point_id] = np.asarray(point, dtype=np.float64)
    return version


def oracle_in_masks(live):
    """``{pid: B_{p∈S}}`` from a from-scratch packed rebuild."""
    pids = sorted(live)
    if not pids:
        return {}
    data = np.stack([live[pid] for pid in pids])
    positional = membership_masks(fast_skycube(data))
    return {pids[pos]: mask for pos, mask in positional.items()}


def snapshot_in_masks(snapshot):
    """``{pid: B_{p∈S}}`` probed out of a published snapshot's cube."""
    masks = {}
    for delta in range(1, full_space(snapshot.d) + 1):
        bit = 1 << (delta - 1)
        for pid in snapshot.skyline(delta):
            masks[pid] = masks.get(pid, 0) | bit
    return masks


def maintainer_in_masks(maintainer, live):
    full = (1 << full_space(maintainer.d)) - 1
    masks = {
        pid: full & ~maintainer.membership_mask(pid) for pid in live
    }
    # membership_masks (the oracle view) omits points in no skyline.
    return {pid: mask for pid, mask in masks.items() if mask}


class TestRandomizedMutationSequences:
    @pytest.mark.parametrize(
        "distribution, d, n0, steps",
        [
            ("independent", 2, 40, 30),
            ("anticorrelated", 4, 60, 30),
            ("correlated", 5, 60, 25),
            ("independent", 8, 50, 15),
        ],
    )
    def test_three_views_bit_identical(self, distribution, d, n0, steps):
        data = generate(distribution, n0, d, seed=d * 7 + n0)
        updater, holder = LiveUpdater.bootstrap(data, compact_every=7)
        live = {pid: data[pid].copy() for pid in range(n0)}
        rng = np.random.default_rng(d * 1000 + steps)
        for step in range(steps):
            version = mutate_randomly(rng, updater, live, d)
            assert version == holder.version == step + 1
            snapshot = holder.current
            assert sorted(int(pid) for pid in snapshot.ids) == sorted(live)
            oracle = oracle_in_masks(live)
            assert maintainer_in_masks(updater.maintainer, live) == oracle
            assert snapshot_in_masks(snapshot) == oracle

    def test_duplicates_and_ties(self):
        # Few distinct values per dim: ties and exact duplicates abound,
        # exercising the eq-mask side of the delta folds.
        data = generate("independent", 50, 3, seed=9, distinct_values=3)
        updater, holder = LiveUpdater.bootstrap(data, compact_every=5)
        live = {pid: data[pid].copy() for pid in range(len(data))}
        rng = np.random.default_rng(42)
        for _ in range(40):
            do_delete = live and rng.random() < 0.45
            if do_delete:
                victim = int(rng.choice(sorted(live)))
                updater.delete(victim)
                del live[victim]
            else:
                point = rng.integers(0, 3, size=3).astype(np.float64)
                pid, _ = updater.insert(point)
                live[pid] = point
            oracle = oracle_in_masks(live)
            assert maintainer_in_masks(updater.maintainer, live) == oracle
            assert snapshot_in_masks(holder.current) == oracle

    def test_drain_to_empty_and_refill(self):
        data = generate("independent", 6, 3, seed=1)
        updater, holder = LiveUpdater.bootstrap(data)
        for pid in range(6):
            updater.delete(pid)
        assert len(holder.current) == 0
        assert holder.current.skyline(7) == ()
        pid, version = updater.insert([1.0, 2.0, 3.0])
        assert holder.current.skyline(7) == (pid,)
        assert version == holder.version == 7


class TestAboveDenseTable:
    def test_d15_stream_deltas_and_rebuilds(self):
        # d = 15 computes closure rows per request (no dense table):
        # every delta must be the exact mask movement, and the masks a
        # from-scratch rebuild's, after every step.
        d = 15
        data = generate("anticorrelated", 24, d, seed=15)
        data = np.vstack([data, data[:3]])  # exact duplicates
        updater, holder = LiveUpdater.bootstrap(data, compact_every=4)
        maintainer = updater.maintainer
        recorded = []
        record = updater.changelog.record

        def spy(version, delta):
            recorded.append(delta)
            record(version, delta)

        updater.changelog.record = spy
        live = {pid: data[pid].copy() for pid in range(len(data))}
        rng = np.random.default_rng(15)
        for step in range(12):
            before = {pid: maintainer.membership_mask(pid) for pid in live}
            if step % 3 == 2:
                victim = int(rng.choice(sorted(live)))
                updater.delete(victim)
                del live[victim]
                removed = (victim,)
            else:
                if step % 3 == 1:  # an exact duplicate of a live point
                    point = live[int(rng.choice(sorted(live)))].copy()
                else:
                    point = rng.random(d)
                pid, _ = updater.insert(point)
                live[pid] = point
                removed = ()
            after = {pid: maintainer.membership_mask(pid) for pid in live}
            delta = recorded[-1]
            assert delta.removed == removed
            assert delta.changed == {
                pid: mask for pid, mask in after.items()
                if before.get(pid) != mask
            }
            assert delta.previous == {
                pid: before[pid]
                for pid in list(delta.changed) + list(removed)
                if pid in before
            }
            pids = sorted(live)
            rebuild = fast_skycube(np.stack([live[pid] for pid in pids]))
            snapshot = holder.current.cube
            for pos, pid in enumerate(pids):
                expected = rebuild.store.membership_mask(pos)
                assert after[pid] == expected, (step, pid)
                assert snapshot.membership_mask(pid) == expected, (step, pid)


class TestSkylineDiffOracle:
    def test_every_version_pair_matches_two_full_rebuilds(self):
        d, n0, steps = 4, 40, 14
        data = generate("anticorrelated", n0, d, seed=31)
        updater, holder = LiveUpdater.bootstrap(data, compact_every=5)
        live = {pid: data[pid].copy() for pid in range(n0)}
        rng = np.random.default_rng(7)

        def skylines_now():
            # Two independent full rebuilds (the packed engine and a
            # naive skyline per subspace) that must agree with each
            # other — the diff oracle is their common answer.
            pids = sorted(live)
            rows = np.stack([live[pid] for pid in pids])
            packed = fast_skycube(rows, engine="packed")
            by_delta = {}
            for delta in range(1, full_space(d) + 1):
                a = frozenset(pids[pos] for pos in packed.skyline(delta))
                b = frozenset(pids[pos] for pos in skyline_indices(rows, delta))
                assert a == b
                by_delta[delta] = a
            return by_delta

        per_version = {0: skylines_now()}
        for _ in range(steps):
            version = mutate_randomly(rng, updater, live, d)
            per_version[version] = skylines_now()

        for v_from in range(steps + 1):
            for v_to in range(v_from + 1, steps + 1):
                for delta in range(1, full_space(d) + 1):
                    was = per_version[v_from][delta]
                    now = per_version[v_to][delta]
                    entered, left = updater.skyline_diff(delta, v_from, v_to)
                    assert entered == sorted(now - was)
                    assert left == sorted(was - now)


class TestCopyOnWriteAndCompaction:
    def test_generation_resets_on_compaction(self):
        data = generate("independent", 30, 3, seed=5)
        tracer = RecordingTracer()
        updater, holder = LiveUpdater.bootstrap(
            data, compact_every=4, tracer=tracer
        )
        rng = np.random.default_rng(3)
        generations = []
        for _ in range(10):
            updater.insert(rng.random(3) * 4)
            generations.append(holder.current.cube.generation)
        # 4 delta generations, then a rebuild resets to 0, repeatedly.
        assert generations == [1, 2, 3, 4, 0, 1, 2, 3, 4, 0]
        publishes = tracer.by_stage("publish")
        compacts = tracer.by_stage("compact")
        assert len(publishes) == 8 and len(compacts) == 2
        assert all(e.extra["mode"] == "delta" for e in publishes)
        assert all(e.extra["mode"] == "rebuild" for e in compacts)
        # One publish per mutation: versions are the consecutive range.
        versions = sorted(
            e.snapshot_version for e in publishes + compacts
        )
        assert versions == list(range(1, 11))

    def test_published_snapshots_are_frozen_in_time(self):
        # Older versions keep answering their own state after further
        # copy-on-write publishes (no shared-table aliasing).
        data = generate("independent", 25, 3, seed=8)
        updater, holder = LiveUpdater.bootstrap(data, compact_every=100)
        before = holder.current
        before_masks = snapshot_in_masks(before)
        rng = np.random.default_rng(12)
        live = {pid: data[pid].copy() for pid in range(len(data))}
        for _ in range(12):
            mutate_randomly(rng, updater, live, 3)
        assert snapshot_in_masks(before) == before_masks
        assert snapshot_in_masks(holder.current) == oracle_in_masks(live)

    def test_cow_cube_refuses_in_place_insert(self):
        data = generate("independent", 20, 3, seed=2)
        updater, holder = LiveUpdater.bootstrap(data, compact_every=100)
        updater.insert([1.0, 1.0, 1.0])
        cube = holder.current.cube
        assert cube.generation == 1
        with pytest.raises(ValueError, match="copy-on-write"):
            cube.insert(999, 0)

    def test_compact_every_validation(self):
        data = generate("independent", 10, 2, seed=1)
        with pytest.raises(ValueError, match="compact_every"):
            LiveUpdater.bootstrap(data, compact_every=0)


class TestChangeLogWindow:
    def test_retention_evicts_oldest_versions(self):
        data = generate("independent", 30, 3, seed=4)
        updater, holder = LiveUpdater.bootstrap(
            data, changelog_retention=4
        )
        rng = np.random.default_rng(6)
        live = {pid: data[pid].copy() for pid in range(len(data))}
        for _ in range(9):
            mutate_randomly(rng, updater, live, 3)
        oldest, latest = updater.changelog.versions()
        assert (oldest, latest) == (5, 9)
        updater.skyline_diff(7, 5, 9)  # in-window: fine
        with pytest.raises(ValueError, match="retention window"):
            updater.skyline_diff(7, 4, 9)

    def test_interval_and_subspace_validation(self):
        data = generate("independent", 10, 3, seed=3)
        updater, _ = LiveUpdater.bootstrap(data)
        updater.insert([1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="from < to"):
            updater.skyline_diff(7, 1, 1)
        with pytest.raises(ValueError, match="unknown snapshot version"):
            updater.skyline_diff(7, 0, 5)
        with pytest.raises(KeyError):
            updater.skyline_diff(0, 0, 1)
        with pytest.raises(KeyError):
            updater.skyline_diff(8, 0, 1)

    def test_record_rejects_non_monotone_versions(self):
        from repro.core.maintain import MaskDelta

        log = ChangeLog(3, base_version=2)
        with pytest.raises(ValueError, match="not newer"):
            log.record(2, MaskDelta())
        log.record(3, MaskDelta(changed={0: 1}, previous={0: 0}))
        with pytest.raises(ValueError, match="not newer"):
            log.record(3, MaskDelta())
