"""Kernel parity oracle: the numpy packed sweep on tied A/I/C data.

The numpy packed sweep is the only kernel path.  These cases check it
on anticorrelated/independent/correlated data for every d in 2..8,
with duplicate and tied rows present: plain and filtered point masks
against the per-point ``SubspaceClosures`` fold, and both
``fast_skycube`` engines against the brute-force oracle.
"""

import numpy as np
import pytest

from repro.core.verify import brute_force_skycube
from repro.data.generator import generate
from repro.engine import packed
from repro.engine.kernels import SKYCUBE_ENGINES, fast_skycube
from repro.instrument.counters import Counters

from tests.test_packed_engine import fold_masks


def backend_workloads():
    """Seeded A/I/C cases, every d in 2..8, duplicates and ties mixed in.

    Each id ends in the name of the kernel it runs on, ``numpy``.
    """
    cases = []
    for dist in ("anticorrelated", "independent", "correlated"):
        for d in range(2, 9):
            data = generate(dist, 70, d, seed=3 + d)
            data = np.vstack([data, data[:9]])  # exact duplicates
            data[10, 0] = data[11, 0]  # per-dimension tie
            cases.append((f"{dist[:1]}-d{d}-numpy", data))
    return cases


@pytest.fixture(params=backend_workloads(), ids=lambda case: case[0])
def workload(request):
    return request.param[1]


# -- parity oracle: every workload --------------------------------------


def test_backend_masks_match_reference(workload):
    rows = np.ascontiguousarray(workload)
    expected = packed.packed_point_masks(rows)
    assert [packed.row_to_int(row) for row in expected] == fold_masks(rows)
    counters = Counters()
    filtered = packed.filtered_point_masks(rows, counters=counters)
    assert np.array_equal(filtered, expected)


def test_backend_skycube_matches_oracle(workload):
    reference = fast_skycube(workload, engine="packed-filtered")
    for engine in SKYCUBE_ENGINES:
        cube = fast_skycube(workload, engine=engine)
        assert cube.store == reference.store
    assert reference == brute_force_skycube(workload)


def test_preferred_block_positive():
    # The block the sweep takes when none is pinned.
    for d in (2, 5, 8, 14, 15, 16):
        assert packed.default_block(d, 5000) >= 1
    assert packed.default_block(8, 5000) == packed.DEFAULT_BLOCK
    # Above the dense table the block shrinks with the closure rows.
    assert packed.default_block(16, 5000) == 4
