"""The real shared-memory multicore backend (repro.engine.parallel).

Three guarantees are load-bearing: (1) the process backend produces
skycubes equal to the serial reference on every template and workload
shape, (2) a dying worker degrades to a correct result instead of a
crash or a hang, and (3) the shared-memory segment is always unlinked,
even when orchestration raises mid-flight.
"""

import glob
import os
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.data.generator import generate
from repro.engine.parallel import (
    EXECUTORS,
    ParallelExecutor,
    SharedDataset,
)
from repro.templates import MDMC, SDSC, STSC


def _square(task):
    return task * task


def _die_in_worker(task):
    """Kill the hosting pool worker; succeed when run in the parent."""
    import multiprocessing

    if multiprocessing.parent_process() is not None:
        os._exit(1)
    return task * 2


def _raise_value_error(task):
    raise ValueError(f"task {task} is broken")


def _hang_in_worker(task):
    """Stall the pool worker past any timeout; instant in the parent."""
    import multiprocessing
    import time

    if multiprocessing.parent_process() is not None:
        time.sleep(60)
    return task + 10


def _shm_segments():
    return set(glob.glob("/dev/shm/psm_*")) if os.path.isdir("/dev/shm") else set()


class TestSharedDataset:
    def test_roundtrip_view_is_zero_copy_and_readonly(self):
        data = np.arange(12, dtype=np.float64).reshape(4, 3)
        with SharedDataset(data) as shared:
            view = SharedDataset.attach(shared.descriptor)
            np.testing.assert_array_equal(view, data)
            with pytest.raises(ValueError):
                view[0, 0] = 99.0

    def test_descriptor_is_picklable(self):
        import pickle

        data = np.ones((2, 2))
        with SharedDataset(data) as shared:
            name, shape, dtype = pickle.loads(pickle.dumps(shared.descriptor))
            assert shape == (2, 2)

    def test_unlinks_segment_on_error(self):
        data = np.ones((4, 3))
        with pytest.raises(RuntimeError):
            with SharedDataset(data) as shared:
                name = shared.name
                raise RuntimeError("boom")
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_no_leaked_segments_after_template_run(self):
        before = _shm_segments()
        data = generate("independent", 80, 4, seed=5)
        MDMC(executor="process", workers=2).materialise(data)
        assert _shm_segments() == before

    def test_double_close_is_safe(self):
        shared = SharedDataset(np.ones((2, 2)))
        shared.close()
        shared.close()

    def test_rejects_empty_array(self):
        with pytest.raises(ValueError):
            SharedDataset(np.empty((0, 3)))


class TestParallelExecutor:
    def test_serial_when_single_worker(self):
        out = ParallelExecutor(workers=1).run(_square, [1, 2, 3])
        assert out == [1, 4, 9]

    def test_process_pool_preserves_task_order(self):
        tasks = list(range(20))
        costs = [20 - t for t in tasks]  # skewed so LPT actually bins
        out = ParallelExecutor(workers=4).run(_square, tasks, costs)
        assert out == [t * t for t in tasks]

    def test_worker_death_degrades_to_correct_result(self):
        executor = ParallelExecutor(workers=2, max_retries=1)
        out = executor.run(_die_in_worker, [1, 2, 3, 4])
        assert out == [2, 4, 6, 8]

    def test_timeout_kills_pool_and_falls_back(self):
        executor = ParallelExecutor(
            workers=2, task_timeout=0.5, max_retries=0
        )
        assert executor.run(_hang_in_worker, [1, 2]) == [11, 12]

    def test_task_exception_surfaces_from_serial_fallback(self):
        executor = ParallelExecutor(workers=2, max_retries=0)
        with pytest.raises(ValueError, match="is broken"):
            executor.run(_raise_value_error, [1, 2])

    def test_cost_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ParallelExecutor(workers=2).run(_square, [1, 2], costs=[1.0])

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            ParallelExecutor(workers=0)
        with pytest.raises(ValueError):
            ParallelExecutor(task_timeout=0)
        with pytest.raises(ValueError):
            ParallelExecutor(max_retries=-1)

    def test_empty_task_list(self):
        assert ParallelExecutor(workers=4).run(_square, []) == []


class TestBackendEquality:
    """Acceptance: workers=4 equals the serial backend on A/I/C."""

    WORKLOADS = [
        ("independent", 120, 4, 1),
        ("correlated", 120, 4, 2),
        ("anticorrelated", 100, 4, 3),
    ]

    @pytest.mark.parametrize(
        "dist,n,d,seed", WORKLOADS, ids=[w[0] for w in WORKLOADS]
    )
    @pytest.mark.parametrize("template", [STSC, SDSC, MDMC])
    def test_process_equals_serial(self, template, dist, n, d, seed):
        data = generate(dist, n, d, seed=seed)
        serial = template().materialise(data)
        pooled = template(executor="process", workers=4).materialise(data)
        assert pooled.skycube == serial.skycube

    def test_partial_skycube_equality(self):
        data = generate("anticorrelated", 90, 5, seed=4)
        for template in (STSC, SDSC, MDMC):
            serial = template().materialise(data, max_level=2)
            pooled = template(executor="process", workers=3).materialise(
                data, max_level=2
            )
            assert pooled.skycube == serial.skycube

    def test_point_masks_match_fast_skycube(self):
        from repro.core.hashcube import HashCube
        from repro.engine.kernels import fast_extended_skyline, fast_skycube
        from repro.engine.parallel import parallel_packed_masks

        data = generate("independent", 150, 4, seed=9)
        splus = fast_extended_skyline(data)
        rows = np.ascontiguousarray(data[splus])
        masks = parallel_packed_masks(
            rows, ParallelExecutor(workers=3), block=16
        )
        cube = HashCube.from_masks(4, splus, masks)
        assert cube == fast_skycube(data).store

    def test_single_point_dataset(self):
        data = np.array([[0.5, 0.5, 0.5]])
        for template in (STSC, SDSC, MDMC):
            run = template(executor="process", workers=2).materialise(data)
            assert run.skycube.skyline(0b111) == (0,)

    def test_unknown_executor_rejected(self):
        assert EXECUTORS == ("serial", "process")
        for template in (STSC, SDSC, MDMC):
            with pytest.raises(ValueError):
                template(executor="threads")
            with pytest.raises(ValueError):
                template(workers=0)
