"""Real shared-memory multicore execution backend.

Everywhere else in this library "parallelism" means a *simulated*
makespan replayed from an execution trace; this module is the genuine
article: a process pool that runs template work concurrently on real
cores.  Three pieces compose it:

* :class:`SharedDataset` places the point matrix in POSIX shared memory
  (:mod:`multiprocessing.shared_memory`) exactly once; workers rehydrate
  zero-copy numpy views from a small picklable descriptor, so task
  payloads stay a few hundred bytes no matter how large ``n`` is —
  the process analogue of the paper's threads sharing one read-only
  point array.

* :class:`ParallelExecutor` turns a list of picklable tasks into one
  result list: tasks are binned onto workers with the same LPT policy
  the simulated devices use (:func:`repro.hardware.schedule.lpt_assign`),
  each bin is one pool submission, and failures — a worker dying
  mid-task, a bin exceeding its timeout, or a pool that cannot start at
  all (sandboxes, exotic platforms) — degrade through retries to an
  in-process serial fallback that always produces the correct result.

* Module-level task functions (:func:`cuboid_task`,
  :func:`packed_point_block_task`, :func:`filtered_point_block_task`)
  that the templates dispatch: STSC/SDSC send whole cuboids (one level
  per barrier, ``fast_skyline`` as the in-worker hook), MDMC sends
  blocks of extended-skyline points whose packed ``B_{p∉S}`` rows the
  parent merges into the HashCube.

Results are bit-identical to the serial reference implementations:
the in-worker kernels are the :mod:`repro.engine.kernels` functions,
which the test suite holds equal to the instrumented algorithms.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor, as_completed
from concurrent.futures import TimeoutError as FutureTimeoutError
from multiprocessing import shared_memory
from types import TracebackType
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Type,
)

import numpy as np

from repro.engine import packed
from repro.hardware.schedule import lpt_assign

if TYPE_CHECKING:
    from repro.core.lattice import Lattice
    from repro.instrument.counters import Counters
    from repro.skycube.base import PhaseTrace

__all__ = [
    "SharedDataset",
    "ParallelExecutor",
    "EXECUTORS",
    "cuboid_task",
    "packed_point_block_task",
    "filtered_point_block_task",
    "parallel_lattice",
    "parallel_packed_masks",
    "parallel_filtered_packed_masks",
]

#: The executor backends a template constructor accepts.
EXECUTORS = ("serial", "process")

#: ``name -> (SharedMemory, ndarray)`` views attached by this process.
#: The creating process registers its own segment here so the serial
#: fallback path resolves descriptors without re-attaching.
_ATTACHED: Dict[str, Tuple[Optional[shared_memory.SharedMemory], np.ndarray]] = {}


def _unregister_from_tracker(name: str) -> None:
    """Detach a worker-side segment from the resource tracker.

    Attaching registers the segment with :mod:`multiprocessing`'s
    resource tracker, which would then complain about (and unlink!) a
    segment the *parent* owns when the worker exits.  Only the creating
    process may unlink; everyone else must unregister.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(f"/{name.lstrip('/')}", "shared_memory")
    except Exception:
        pass  # tracker absent or already unregistered: nothing leaked


class SharedDataset:
    """A read-only numpy array placed once in shared memory.

    The parent constructs it (copying the matrix into the segment) and
    ships :attr:`descriptor` — a small picklable tuple — to workers,
    which call :meth:`attach` to get a zero-copy view.  A context
    manager guarantees the segment is unlinked even when the
    orchestration raises; double ``close`` is safe.
    """

    def __init__(self, data: np.ndarray) -> None:
        data = np.ascontiguousarray(data)
        if data.nbytes == 0:
            raise ValueError("cannot share an empty array")
        self._shm: Optional[shared_memory.SharedMemory] = (
            shared_memory.SharedMemory(create=True, size=data.nbytes)
        )
        self.name = self._shm.name
        self.shape = data.shape
        self.dtype = np.dtype(data.dtype)
        view = np.ndarray(self.shape, dtype=self.dtype, buffer=self._shm.buf)
        view[...] = data
        view.flags.writeable = False
        self.array: Optional[np.ndarray] = view
        # Let the serial fallback resolve our own descriptor in-process.
        _ATTACHED[self.name] = (None, view)

    @property
    def descriptor(self) -> Tuple[str, Tuple[int, ...], str]:
        """Picklable ``(name, shape, dtype)`` handle for workers."""
        return (self.name, tuple(self.shape), self.dtype.str)

    @staticmethod
    def attach(descriptor: Tuple[str, Tuple[int, ...], str]) -> np.ndarray:
        """Zero-copy read-only view of a shared segment (worker side).

        Attachments are cached per process: repeated tasks touching the
        same dataset map the segment once.  Under a forking start
        method the parent's own mapping is inherited and reused
        directly, so attach costs nothing at all.
        """
        name, shape, dtype = descriptor
        cached = _ATTACHED.get(name)
        if cached is not None:
            return cached[1]
        shm = shared_memory.SharedMemory(name=name)
        _unregister_from_tracker(shm.name)
        view = np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf)
        view.flags.writeable = False
        _ATTACHED[name] = (shm, view)
        return view

    def close(self) -> None:
        """Release the view, close the mapping and unlink the segment."""
        if self._shm is None:
            return
        _ATTACHED.pop(self.name, None)
        self.array = None
        shm, self._shm = self._shm, None
        try:
            shm.close()
        finally:
            try:
                shm.unlink()
            except FileNotFoundError:
                pass  # already unlinked (e.g. by an explicit cleanup)

    def __enter__(self) -> "SharedDataset":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc_value: Optional[BaseException],
        traceback: Optional[TracebackType],
    ) -> None:
        self.close()

    def __del__(self) -> None:  # last-resort cleanup; close() idempotent
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:
        state = "open" if self._shm is not None else "closed"
        return (
            f"SharedDataset(name={self.name!r}, shape={tuple(self.shape)}, "
            f"{state})"
        )


def _run_bin(fn: Callable[[Any], Any], tasks: List[Any]) -> List[Any]:
    """Worker entry point: apply ``fn`` to one LPT bin of tasks."""
    return [fn(task) for task in tasks]


class ParallelExecutor:
    """Run picklable tasks on a process pool, LPT-binned per worker.

    ``run`` never fails on pool trouble: a bin whose worker dies, times
    out, or raises is retried on a fresh pool up to ``max_retries``
    times, and whatever is still unfinished afterwards is computed
    serially in the parent — so results are always complete and correct,
    merely slower in the degraded cases.  ``workers <= 1`` (or a pool
    that cannot start, as in CI sandboxes without process support)
    short-circuits to the same serial path.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        task_timeout: Optional[float] = None,
        max_retries: int = 1,
        start_method: Optional[str] = None,
        on_event: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> None:
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if task_timeout is not None and task_timeout <= 0:
            raise ValueError(f"task_timeout must be positive, got {task_timeout}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        self.workers = workers if workers is not None else (os.cpu_count() or 1)
        self.task_timeout = task_timeout
        self.max_retries = max_retries
        self.start_method = start_method
        #: Observer for executor failure/recovery events (plain dicts
        #: with a ``kind`` key).  When None, events route to the
        #: process-global sink a tracer may have installed via
        #: :func:`repro.trace.install_executor_sink` — so worker deaths
        #: are first-class trace events, never silent retries.
        self.on_event = on_event

    def _emit(self, kind: str, **fields: Any) -> None:
        """Report one executor event; observers must never break runs."""
        sink = self.on_event
        if sink is None:
            from repro.trace import get_executor_sink

            sink = get_executor_sink()
        if sink is None:
            return
        event: Dict[str, Any] = {"kind": kind}
        event.update(fields)
        try:
            sink(event)
        except Exception:
            pass

    @property
    def is_serial(self) -> bool:
        return self.workers <= 1

    def run(
        self,
        fn: Callable[[Any], Any],
        tasks: Sequence[Any],
        costs: Optional[Sequence[float]] = None,
    ) -> List[Any]:
        """``[fn(t) for t in tasks]``, computed in parallel.

        ``costs`` (default: unit) drive the LPT binning so skewed task
        sets still balance across workers.  Results come back in task
        order regardless of which worker ran what.
        """
        tasks = list(tasks)
        if costs is not None and len(costs) != len(tasks):
            raise ValueError(
                f"got {len(costs)} costs for {len(tasks)} tasks"
            )
        results: List[Any] = [None] * len(tasks)
        pending = set(range(len(tasks)))
        degraded = False
        if not self.is_serial and len(tasks) > 1:
            for attempt in range(self.max_retries + 1):
                if not pending:
                    break
                if not self._dispatch(
                    fn, tasks, costs, pending, results, attempt
                ):
                    degraded = True
                    break  # pool cannot start: serial fallback
                if pending:
                    degraded = True  # some bins failed; retry or go serial
                elif degraded:
                    self._emit(
                        "retry_recovered", attempt=attempt, tasks=len(tasks)
                    )
        serial_leftover = len(pending) if degraded else 0
        for index in sorted(pending):
            results[index] = fn(tasks[index])
        if serial_leftover:
            self._emit("serial_recovered", tasks=serial_leftover)
        return results

    # -- internals ----------------------------------------------------

    def _dispatch(
        self,
        fn: Callable[[Any], Any],
        tasks: List[Any],
        costs: Optional[Sequence[float]],
        pending: Set[int],
        results: List[Any],
        attempt: int,
    ) -> bool:
        """One pool round over ``pending``; False if no pool started.

        Successful bins are harvested even when other bins fail; failed
        or unfinished bins stay in ``pending`` for the next round.
        """
        order = sorted(pending)
        bin_costs = [1.0 if costs is None else float(costs[i]) for i in order]
        n_workers = min(self.workers, len(order))
        bins = [b for b in lpt_assign(bin_costs, n_workers) if b]
        try:
            context = (
                multiprocessing.get_context(self.start_method)
                if self.start_method is not None
                else None
            )
            pool = ProcessPoolExecutor(
                max_workers=len(bins), mp_context=context
            )
        except (OSError, ValueError, PermissionError, RuntimeError) as error:
            self._emit(
                "pool_unavailable",
                attempt=attempt,
                tasks=len(order),
                error=type(error).__name__,
            )
            return False
        healthy = True
        try:
            futures = {}
            for bin_indices in bins:
                indices = [order[j] for j in bin_indices]
                future = pool.submit(_run_bin, fn, [tasks[i] for i in indices])
                futures[future] = indices
            timeout = (
                None
                if self.task_timeout is None
                else self.task_timeout * len(order)
            )
            try:
                for future in as_completed(futures, timeout=timeout):
                    indices = futures[future]
                    try:
                        bin_results = future.result()
                    except BrokenExecutor:
                        healthy = False  # retried, then redone serially
                        self._emit(
                            "worker_death",
                            attempt=attempt,
                            tasks=len(indices),
                        )
                        continue
                    except Exception as error:
                        healthy = False
                        self._emit(
                            "task_error",
                            attempt=attempt,
                            tasks=len(indices),
                            error=type(error).__name__,
                        )
                        continue
                    for index, result in zip(indices, bin_results):
                        results[index] = result
                        pending.discard(index)
            except FutureTimeoutError:
                healthy = False
                self._emit(
                    "bin_timeout", attempt=attempt, tasks=len(pending)
                )
        except BrokenExecutor:
            healthy = False
            self._emit(
                "worker_death", attempt=attempt, tasks=len(pending)
            )
        finally:
            if not healthy:
                # A rogue or dead worker may still hold the pipe; kill
                # outright so retry rounds start from a clean slate.
                for process in list(getattr(pool, "_processes", {}).values()):
                    try:
                        process.kill()
                    except Exception:
                        pass
            pool.shutdown(wait=healthy, cancel_futures=True)
        return True


# -- in-worker task functions (module-level: picklable by reference) ---


def cuboid_task(task: Tuple) -> Tuple[List[int], List[int]]:
    """STSC/SDSC work item: one whole cuboid, computed in a worker.

    ``task = (descriptor, input_ids, delta)``.  Returns the sorted
    global ``(skyline, extended_only)`` id lists of subspace ``delta``
    over the rows ``input_ids`` (``None`` means all rows) — exactly the
    pair :meth:`repro.core.lattice.Lattice.set_cuboid` stores.
    """
    from repro.engine.kernels import fast_extended_skyline, fast_skyline

    descriptor, input_ids, delta = task
    data = SharedDataset.attach(descriptor)
    if input_ids is None:
        ids = np.arange(len(data), dtype=np.int64)
        subset = data
    else:
        ids = np.asarray(input_ids, dtype=np.int64)
        subset = data[ids]
    skyline = np.sort(ids[fast_skyline(subset, delta)])
    extended = np.sort(ids[fast_extended_skyline(subset, delta)])
    extended_only = np.setdiff1d(extended, skyline, assume_unique=True)
    return skyline.tolist(), extended_only.tolist()


#: Per-worker packed sweep over the current shared S+ segment.  Keyed
#: by segment name and kept to the most recent entry: a sweep holds the
#: rank/closure structures (derived copies, not views of the segment),
#: so bounding the cache avoids pinning stale state if a
#: kernel-recycled segment name ever reappears with different rows.
_PACKED_SWEEPS: Dict[str, packed.PackedSweep] = {}


def packed_point_block_task(task: Tuple) -> np.ndarray:
    """Packed MDMC work item: uint64 mask rows for one block of S+.

    ``task = (descriptor, start, end)`` over a shared array holding
    the extended-skyline rows.  The worker builds, once per process per
    segment, a :class:`~repro.engine.packed.PackedSweep` — rank-encoded
    comparisons plus the cached closure table, on the worker's one
    thread — returning the packed ``(end - start, words)``
    ``B_{p∉S}`` rows, which the parent merges into the HashCube with a
    single :meth:`repro.core.hashcube.HashCube.from_masks` call.
    """
    descriptor, start, end = task
    key = descriptor[0]
    sweep = _PACKED_SWEEPS.get(key)
    if sweep is None:
        rows = SharedDataset.attach(descriptor)
        sweep = packed.PackedSweep(rows)
        # The pool already runs a process per worker; threads inside
        # each would multiply past the CPU count.
        sweep.threads = 1
        _PACKED_SWEEPS.clear()
        _PACKED_SWEEPS[key] = sweep
    return sweep.range_masks(start, end)


#: Per-worker filtered sweep over the current shared S+ segment, keyed
#: by rows segment name with the same single-entry policy as
#: :data:`_PACKED_SWEEPS`.  The labels segment rides along in the task
#: and is rehydrated once, when the sweep is built.
_FILTERED_SWEEPS: Dict[str, packed.FilteredPackedSweep] = {}


def filtered_point_block_task(
    task: Tuple,
) -> Tuple[np.ndarray, Tuple[int, int, int]]:
    """Filtered packed MDMC work item: mask rows plus pruning tallies.

    ``task = (rows_descriptor, labels_descriptor, start, end)``.  The
    rows segment holds the extended skyline in *leaf order*; the labels
    segment holds the matching ``(n, 3)`` int64 ``med/quart/octl``
    columns, from which
    :meth:`repro.partitioning.static_tree.LeafLabels.from_arrays`
    rebuilds the node directory without touching coordinates.
    Returns ``(mask_block,
    (pairs_pruned, leaves_skipped, label_bytes))`` — the counter deltas
    this block contributed, which the parent sums into its own
    :class:`~repro.instrument.counters.Counters`.
    """
    from repro.partitioning.static_tree import LeafLabels

    rows_descriptor, labels_descriptor, start, end = task
    key = rows_descriptor[0]
    sweep = _FILTERED_SWEEPS.get(key)
    if sweep is None:
        rows = SharedDataset.attach(rows_descriptor)
        cols = SharedDataset.attach(labels_descriptor)
        labels = LeafLabels.from_arrays(
            cols[:, 0], cols[:, 1], cols[:, 2], k=rows.shape[1]
        )
        sweep = packed.FilteredPackedSweep(rows, labels)
        sweep.threads = 1  # one thread per worker process, as above
        _FILTERED_SWEEPS.clear()
        _FILTERED_SWEEPS[key] = sweep
    tallies = sweep.counters
    before = (tallies.pairs_pruned, tallies.leaves_skipped, tallies.label_bytes)
    masks = sweep.range_masks(start, end)
    deltas = (
        tallies.pairs_pruned - before[0],
        tallies.leaves_skipped - before[1],
        tallies.label_bytes - before[2],
    )
    return masks, deltas


# -- template orchestration (parent side) ------------------------------


def parallel_lattice(
    data: np.ndarray,
    executor: ParallelExecutor,
    max_level: Optional[int] = None,
    parent_rule: str = "smallest",
    free_finished_levels: bool = True,
) -> Tuple["Lattice", List["PhaseTrace"]]:
    """Top-down lattice traversal with cuboids dispatched to workers.

    The control flow is :func:`repro.skycube.topdown.top_down_lattice`
    verbatim — full space first, then one barrier per level, each cuboid
    reading its smallest materialised parent — but every level's cuboids
    go through ``executor`` as :func:`cuboid_task` items (LPT-binned by
    parent input size).  Returns ``(lattice, phases)`` like the serial
    traversal; the per-task counters are empty because the in-worker
    kernels are uninstrumented.
    """
    from repro.core.bitmask import format_mask, full_space, subspaces_at_level
    from repro.core.lattice import Lattice
    from repro.instrument.counters import Counters
    from repro.skycube.base import PhaseTrace, TaskTrace
    from repro.skycube.topdown import select_parent

    d = data.shape[1]
    top = d if max_level is None else max_level
    lattice = Lattice(d)
    phases: List[PhaseTrace] = []
    full = full_space(d)

    with SharedDataset(data) as shared:
        descriptor = shared.descriptor
        # Phase 0 — the root input (Algorithms 1/2 line 2): a single
        # task, computed with every worker idle, so run it in-parent.
        root_skyline, root_extended_only = cuboid_task((descriptor, None, full))
        lattice.set_cuboid(full, root_skyline, root_extended_only)
        root_phase = PhaseTrace("root")
        root_phase.tasks.append(
            TaskTrace(label=f"δ={format_mask(full, d)}", counters=Counters())
        )
        phases.append(root_phase)
        start_level = d - 1 if top == d else top

        levels_computed: List[int] = []
        for level in range(start_level, 0, -1):
            deltas = list(subspaces_at_level(d, level))
            tasks = []
            for delta in deltas:
                if top < d and level == top:
                    parent = full
                else:
                    parent = select_parent(lattice, delta, d, parent_rule)
                input_ids = list(lattice.skyline(parent)) + list(
                    lattice.extended_only(parent)
                )
                tasks.append((descriptor, input_ids, delta))
            costs = [float(len(task[1])) for task in tasks]
            outputs = executor.run(cuboid_task, tasks, costs)
            phase = PhaseTrace(f"level-{level}")
            for delta, (skyline, extended_only) in zip(deltas, outputs):
                lattice.set_cuboid(delta, skyline, extended_only)
                phase.tasks.append(
                    TaskTrace(
                        label=f"δ={format_mask(delta, d)}", counters=Counters()
                    )
                )
            phases.append(phase)
            levels_computed.append(level)
            if free_finished_levels and len(levels_computed) >= 2:
                for old in subspaces_at_level(d, levels_computed[-2] + 1):
                    if lattice.has_cuboid(old):
                        lattice.drop_extended(old)

    if top < d:
        # The reduced root input was stashed under the full-space key
        # for parent selection only; a partial lattice must not keep it.
        lattice.remove_cuboid(full)
    return lattice, phases


#: Target number of point blocks per worker — enough for LPT to smooth
#: out skew without drowning the pool in tiny submissions.
BLOCKS_PER_WORKER = 4

#: Floor/ceiling on points per MDMC block.
MIN_BLOCK, MAX_BLOCK = 32, 2048


def parallel_packed_masks(
    rows: np.ndarray,
    executor: ParallelExecutor,
    block: Optional[int] = None,
) -> np.ndarray:
    """Packed ``B_{p∉S}`` rows of ``rows`` (the S+ subset), in order.

    Contiguous blocks become :func:`packed_point_block_task` items and
    the uint64 mask blocks concatenate into one ``(n, words)`` array —
    workers return numpy words, so the parent merges once and never
    widens masks in Python.  Block boundaries affect only the parallel
    grain, never the masks.
    """
    rows = np.ascontiguousarray(rows)
    n = len(rows)
    if n == 0:
        return np.empty(
            (0, packed.words_for(max(1, rows.shape[1]))), dtype=np.uint64
        )
    if block is None:
        per_worker = -(-n // max(1, executor.workers * BLOCKS_PER_WORKER))
        block = max(MIN_BLOCK, min(MAX_BLOCK, per_worker))
    elif block < 1:
        raise ValueError(f"block must be positive, got {block}")
    with SharedDataset(rows) as shared:
        descriptor = shared.descriptor
        tasks = [
            (descriptor, start, min(n, start + block))
            for start in range(0, n, block)
        ]
        costs = [float(end - start) for _, start, end in tasks]
        outputs = executor.run(packed_point_block_task, tasks, costs)
    _PACKED_SWEEPS.clear()  # parent-side fallback state dies with the segment
    return np.concatenate(outputs, axis=0)


def parallel_filtered_packed_masks(
    rows: np.ndarray,
    executor: ParallelExecutor,
    block: Optional[int] = None,
    counters: Optional["Counters"] = None,
) -> np.ndarray:
    """Filtered packed ``B_{p∉S}`` rows of ``rows`` (S+), in row order.

    The multicore counterpart of
    :func:`repro.engine.packed.filtered_point_masks`: the parent builds
    the leaf labels once, ships the leaf-ordered rows *and* the label
    columns as two shared segments, and workers run
    :class:`~repro.engine.packed.FilteredPackedSweep` blocks through
    :func:`filtered_point_block_task`.  Masks come back in leaf order
    and are scattered to the original row order, so the result is
    bit-identical to the serial sweep and to ``parallel_packed_masks``.
    ``counters`` receives the summed pruning tallies from every worker.
    """
    from repro.partitioning.static_tree import LeafLabels

    rows = np.ascontiguousarray(rows)
    n = len(rows)
    if n == 0:
        return np.empty(
            (0, packed.words_for(max(1, rows.shape[1]))), dtype=np.uint64
        )
    labels = LeafLabels.build(rows)
    ordered = np.ascontiguousarray(rows[labels.order])
    columns = np.ascontiguousarray(
        np.column_stack([labels.med, labels.quart, labels.octl])
    )
    if block is None:
        per_worker = -(-n // max(1, executor.workers * BLOCKS_PER_WORKER))
        block = max(MIN_BLOCK, min(MAX_BLOCK, per_worker))
    elif block < 1:
        raise ValueError(f"block must be positive, got {block}")
    with SharedDataset(ordered) as shared, SharedDataset(columns) as shared_labels:
        tasks = [
            (
                shared.descriptor,
                shared_labels.descriptor,
                start,
                min(n, start + block),
            )
            for start in range(0, n, block)
        ]
        costs = [float(end - start) for _, _, start, end in tasks]
        outputs = executor.run(filtered_point_block_task, tasks, costs)
    _FILTERED_SWEEPS.clear()  # parent-side fallback state dies with the segment
    leaf_masks = np.concatenate([masks for masks, _ in outputs], axis=0)
    if counters is not None:
        for _, (pruned, skipped, label_bytes) in outputs:
            counters.pairs_pruned += pruned
            counters.leaves_skipped += skipped
            counters.label_bytes += label_bytes
    out = np.empty_like(leaf_masks)
    out[labels.order] = leaf_masks
    return out
