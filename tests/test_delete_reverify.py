"""Large-n delete oracle for the maintainer's open-bit re-verify.

A delete re-tests only the mask bits the removed point could have
owned: survivors stream strongest first through
:func:`repro.engine.delta.recompute_rows`, and the rows a bounded prefix
leaves open finish in one packed sweep.  The randomized mutation suite
in ``test_live_delta.py`` stays below the size at which the
``DeltaIndex`` prefilter switches on; here the live set stays above it
while the deletes target the hard cases — each dimension's minimum,
full-space skyline points, exact duplicates and random points — on
anticorrelated data and on a duplicate-heavy integer grid.

After every delete the maintainer's masks must equal a full
``fast_skycube`` rebuild of the survivors, and the reported
:class:`~repro.core.maintain.MaskDelta` must be exactly the mask diff.
"""

import numpy as np
import pytest

from repro.core.analytics import membership_masks
from repro.core.bitmask import full_space
from repro.core.maintain import SkycubeMaintainer
from repro.data.generator import generate
from repro.engine import delta as delta_module
from repro.engine.delta import INDEX_MIN_ROWS
from repro.engine.kernels import fast_skycube
from repro.engine.packed import rows_to_ints

N = 600
D = 8


def dataset(kind):
    if kind == "anticorrelated":
        return generate("anticorrelated", N, D, seed=11)
    grid = np.random.default_rng(11).integers(0, 6, size=(N, D))
    return grid.astype(np.float64)


def oracle_masks(live):
    """``{pid: B_{p∉S}}`` of a full ``fast_skycube`` rebuild of ``live``."""
    pids = sorted(live)
    rebuilt = membership_masks(fast_skycube(np.stack([live[p] for p in pids])))
    everything = (1 << full_space(D)) - 1
    return {pid: everything & ~rebuilt.get(i, 0) for i, pid in enumerate(pids)}


def maintainer_masks(maintainer):
    ids, _, rows = maintainer.snapshot_arrays()
    return dict(zip(ids.tolist(), rows_to_ints(rows)))


def deletes(maintainer, live, rng):
    """The next id to delete, for each hard case in turn."""
    for dim in range(D):
        yield min(live, key=lambda pid: (live[pid][dim], pid))
    for _ in range(4):
        yield int(rng.choice(maintainer.skyline(full_space(D))))
    for drop_original in (True, False):
        original = int(rng.choice(maintainer.skyline(full_space(D))))
        twin = maintainer.insert(live[original])
        live[twin] = live[original].copy()
        yield original if drop_original else twin
    for _ in range(4):
        yield int(rng.choice(sorted(live)))


@pytest.mark.parametrize("kind", ["anticorrelated", "grid"])
@pytest.mark.parametrize("prefix", [None, 4], ids=["prefix-default", "prefix-4"])
def test_deletes_match_rebuild_and_report_exact_delta(kind, prefix, monkeypatch):
    sweeps = []
    if prefix is not None:
        # A short streamed prefix sends most open rows to the fallback
        # packed sweep, so both halves of the re-verify are checked.
        monkeypatch.setattr(delta_module, "REVERIFY_PREFIX", prefix)
        sweep_class = delta_module.PackedSweep

        class CountingSweep(sweep_class):
            def __init__(self, *args, **kwargs):
                sweeps.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(delta_module, "PackedSweep", CountingSweep)

    data = dataset(kind)
    maintainer = SkycubeMaintainer(data)
    live = {pid: row for pid, row in enumerate(data)}
    rng = np.random.default_rng(5)
    changed_total = 0
    after = oracle_masks(live)
    for pid in deletes(maintainer, live, rng):
        assert len(maintainer) >= INDEX_MIN_ROWS
        # Rebuild only when the schedule inserted a duplicate.
        before = after if len(after) == len(live) else oracle_masks(live)
        assert maintainer_masks(maintainer) == before
        movement = maintainer.delete_with_delta(pid)
        del live[pid]
        after = oracle_masks(live)
        assert maintainer_masks(maintainer) == after, pid

        expected = {q: m for q, m in after.items() if m != before[q]}
        assert movement.changed == expected, pid
        assert movement.removed == (pid,)
        assert movement.previous == {
            **{q: before[q] for q in expected}, pid: before[pid]
        }
        changed_total += len(expected)
    # The schedule must exercise masks that actually move.
    assert changed_total > 0
    if prefix is not None:
        assert sweeps, "the fallback sweep never ran"


def test_wide_deletes_stream_small_chunks(monkeypatch):
    # At d = 16 a pair's fold row is 1024 words, so a budget of 4096
    # words streams at most 4 pairs per chunk, or one survivor.
    d = 16
    monkeypatch.setattr(delta_module, "_CHUNK_BUDGET", 1 << 12)
    chunks = []
    real = delta_module.dominance_pair_codes

    def spy(survivors, rows):
        chunks.append((len(survivors) * len(rows), len(rows)))
        return real(survivors, rows)

    monkeypatch.setattr(delta_module, "dominance_pair_codes", spy)
    data = generate("independent", 60, d, seed=16)
    data = np.vstack([data, data[:3]])  # exact duplicates
    maintainer = SkycubeMaintainer(data)
    live = {pid: row for pid, row in enumerate(data)}
    rng = np.random.default_rng(16)
    victims = [min(live, key=lambda pid: (live[pid][0], pid)), 60, 1]
    after = maintainer_masks(maintainer)
    for step in range(6):
        pid = victims[step] if step < len(victims) else int(
            rng.choice(maintainer.skyline(full_space(d)))
        )
        before = after
        movement = maintainer.delete_with_delta(pid)
        del live[pid]
        pids = sorted(live)
        rebuilt = SkycubeMaintainer(np.stack([live[p] for p in pids]))
        after = dict(zip(pids, maintainer_masks(rebuilt).values()))
        assert maintainer_masks(maintainer) == after, pid
        expected = {q: m for q, m in after.items() if m != before[q]}
        assert movement.changed == expected, pid
    assert chunks and all(size <= max(rows, 4) for size, rows in chunks)
