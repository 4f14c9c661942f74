"""MDMC — multiple-device-multiple-cuboid (Algorithm 3, Section 4.3).

The point-based template: instead of traversing the lattice, spawn one
data-parallel task per point ``p ∈ S+(P)`` that computes the bitmask
``B_{p∉S}`` of *all* subspaces in which ``p`` is dominated, then insert
it into a HashCube.  Tasks never synchronise; the only shared state is
a read-only, three-level static quad tree (Section 4.3's octile
extension of SkyAlign's tree) plus the point data itself.

Each task is a filter-and-refine sweep over the subspace lattice:

* **filter** — set bits using nothing but the tree's path labels
  (transitive strict dominance through virtual pivots);
* **refine** — exact dominance tests against candidate leaves, with
  per-point memoization of already-seen comparison masks and bitset
  down-closures (:mod:`repro.core.closures`) so every distinct mask is
  expanded over the subspace lattice exactly once.

Two engines implement the hooks:

* :class:`CPUPointEngine` (Section 5.2) filters with the L2-resident
  top-two-level node directory and refines node-by-node, skipping
  nodes that are pruned or can contribute no unresolved subspace;
* :class:`GPUPointEngine` (Section 6.2) filters and refines with full
  leaf-order scans in warp-sized chunks — stronger filtering and fully
  coalesced loads at the price of touching every leaf — recording
  branch divergences and warp votes for the GPU cost model.

Implementation note: the CPU refine iterates the tree node-major
(updating all affected subspaces per discovered mask) rather than
subspace-major with per-subspace tree traversals as in the paper's
prose; the two orders produce identical bitmasks, and node-major keeps
the pure-Python inner loop tractable.  DESIGN.md records this.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.bitmask import full_space, popcount
from repro.core.closures import SubspaceClosures
from repro.core.dominance import dominance_masks_vs_all
from repro.core.hashcube import HashCube
from repro.core.skycube import Skycube
from repro.hardware.config import WARP_SIZE
from repro.instrument.counters import Counters
from repro.instrument.profile import MemoryProfile
from repro.partitioning.static_tree import StaticTree
from repro.skycube.base import PhaseTrace, SkycubeRun, TaskTrace
from repro.skyline.base import SkylineAlgorithm
from repro.skyline.registry import default_hook
from repro.templates.base import SkycubeTemplate

__all__ = ["MDMC", "CPUPointEngine", "GPUPointEngine"]


class CPUPointEngine:
    """Section 5.2: L2-resident label filter + node-pruned refine."""

    name = "cpu"

    def process_point(
        self,
        tree: StaticTree,
        pos: int,
        closures: SubspaceClosures,
        counters: Counters,
        relevant: int,
    ) -> int:
        """``B_{p∉S}`` of the point at leaf position ``pos``."""
        k = tree.k
        full_local = (1 << k) - 1
        not_in_s = 0
        not_in_sp = 0

        # -- filter: top-two-level path labels only (Lines 6-7),
        # scanned depth-first with early exit once every relevant
        # subspace is already ruled out (clustered inputs finish after
        # a handful of nodes).
        words = max(1, (1 << k) >> 6)
        # Best-mask-first scan: strong strict evidence (high path
        # labels) completes the filter early on clustered inputs.
        node_masks = tree.node_strict_masks(pos).tolist()[::-1]
        seen_nodes = set()
        scanned = 0
        complete = False
        for t in node_masks:
            scanned += 1
            if not t or t in seen_nodes:
                continue
            seen_nodes.add(t)
            bits = closures.closure(t)
            counters.bitmask_ops += 2 * words
            not_in_s |= bits
            not_in_sp |= bits
            if (not_in_s & relevant) == relevant:
                complete = True
                break
        counters.mask_tests += 2 * scanned
        counters.values_loaded += 2 * scanned
        counters.sequential_bytes += 16 * scanned

        if complete:
            counters.points_processed += 1
            return not_in_s

        # -- refine: exact DTs per surviving node (Lines 8-12) --------
        point = tree.rows[pos]
        le_all, lt_all, eq_all = dominance_masks_vs_all(tree.rows, point)
        prune = tree.node_prune_masks(pos)
        counters.mask_tests += len(tree.nodes)
        seen = set()
        for node_idx in range(len(tree.nodes)):
            potential = full_local & ~int(prune[node_idx])
            if potential == 0:
                continue  # the whole node is provably worse somewhere
            counters.bitmask_ops += 1
            if closures.closure(potential) & relevant & ~not_in_s == 0:
                continue  # nothing unresolved can come from this node
            start = int(tree.node_start[node_idx])
            end = int(tree.node_end[node_idx])
            count = end - start
            counters.dominance_tests += count
            counters.values_loaded += 2 * k * count
            # Leaves are read as leaf-order slices of the reordered
            # point array: spatially local, prefetchable traffic.
            counters.sequential_bytes += 16 * k * count
            for le, eq in set(
                zip(le_all[start:end].tolist(), eq_all[start:end].tolist())
            ):
                if le == 0 or (le, eq) in seen:
                    continue
                seen.add((le, eq))
                if not_in_sp & (1 << (le - 1)):
                    continue  # strict dominance in `le` already asserted
                lt = le & ~eq
                counters.bitmask_ops += 3 * words
                if lt:
                    not_in_sp |= closures.closure(lt)
                not_in_s |= closures.dominated_update(le, eq)
            if (not_in_s & relevant) == relevant:
                break
        counters.points_processed += 1
        return not_in_s


class GPUPointEngine:
    """Section 6.2: strided leaf scans with warp votes and divergence."""

    name = "gpu"

    def process_point(
        self,
        tree: StaticTree,
        pos: int,
        closures: SubspaceClosures,
        counters: Counters,
        relevant: int,
    ) -> int:
        k = tree.k
        n = len(tree)
        not_in_s = 0
        not_in_sp = 0

        # -- filter: full-tree leaf scan of 3-level composite masks ---
        words = max(1, (1 << k) >> 6)
        strict_masks = tree.leaf_strict_masks(pos)
        counters.mask_tests += 3 * n
        counters.values_loaded += 3 * n
        counters.sequential_bytes += 24 * n
        seen_filter = set()
        for t in strict_masks.tolist():
            if t and t not in seen_filter:
                seen_filter.add(t)
                # Divergence only when a lane sees an unseen composite
                # mask — at most 2**d times per point (Section 6.2).
                counters.branch_divergences += 1
                bits = closures.closure(t)
                counters.bitmask_ops += 2 * words
                not_in_sp |= bits
                not_in_s |= bits

        if (not_in_s & relevant) == relevant:
            counters.points_processed += 1
            return not_in_s

        # -- refine: second strided scan with warp-vote DTs -----------
        point = tree.rows[pos]
        le_all, lt_all, eq_all = dominance_masks_vs_all(tree.rows, point)
        prune = tree.leaf_prune_masks(pos)
        full_local = (1 << k) - 1
        counters.mask_tests += n
        counters.sequential_bytes += 8 * n
        seen = set()
        for chunk_start in range(0, n, WARP_SIZE):
            chunk_end = min(n, chunk_start + WARP_SIZE)
            elect = 0
            lanes = chunk_end - chunk_start
            for leaf in range(chunk_start, chunk_end):
                potential = full_local & ~int(prune[leaf])
                if potential == 0:
                    continue
                if not_in_sp & (1 << (potential - 1)):
                    continue  # already strictly dominated there
                elect += 1
            if elect == 0:
                continue
            if elect < lanes:
                counters.branch_divergences += 1
            # Warp vote true: every lane of the warp performs the DT.
            counters.dominance_tests += lanes
            counters.values_loaded += 2 * k * lanes
            counters.sequential_bytes += 8 * k * lanes
            for le, eq in set(
                zip(
                    le_all[chunk_start:chunk_end].tolist(),
                    eq_all[chunk_start:chunk_end].tolist(),
                )
            ):
                if le == 0 or (le, eq) in seen:
                    continue
                seen.add((le, eq))
                if not_in_sp & (1 << (le - 1)):
                    continue
                lt = le & ~eq
                counters.bitmask_ops += 3 * words
                if lt:
                    not_in_sp |= closures.closure(lt)
                not_in_s |= closures.dominated_update(le, eq)
            if (not_in_s & relevant) == relevant:
                break
        counters.points_processed += 1
        return not_in_s


class MDMC(SkycubeTemplate):
    """One data-parallel task per extended-skyline point → HashCube."""

    name = "mdmc"
    supported_architectures = ("cpu", "gpu")

    #: The device-parallel algorithm computing ``S+(P)`` in the setup
    #: phase (Line 2), installed through the validated setter.
    _extended_hook: SkylineAlgorithm

    def __init__(
        self,
        specialisation: str = "cpu",
        word_width: int = HashCube.DEFAULT_WORD_WIDTH,
        bit_order: str = "numeric",
        executor: str = "serial",
        workers: Optional[int] = None,
        engine: Optional[str] = None,
    ) -> None:
        super().__init__(specialisation, executor, workers)
        self.word_width = word_width
        #: "level" activates the Appendix A.2 future-work layout, which
        #: compresses partial skycubes harder (see core.hashcube).
        self.bit_order = bit_order
        #: Explicit sweep-engine override (one of
        #: :data:`repro.engine.kernels.SKYCUBE_ENGINES`).  ``None``
        #: keeps the default behaviour: the instrumented per-point
        #: engines when serial, ``"packed"`` when ``process``.
        if engine is not None:
            from repro.engine.kernels import SKYCUBE_ENGINES

            if engine not in SKYCUBE_ENGINES:
                raise ValueError(
                    f"engine must be one of {SKYCUBE_ENGINES}, got {engine!r}"
                )
        self.sweep_engine = engine
        if self.specialisation == "cpu":
            self.engine: "CPUPointEngine | GPUPointEngine" = CPUPointEngine()
        else:
            self.engine = GPUPointEngine()
        self.set_hook(
            default_hook(self.specialisation, parallel=True),
            attr="_extended_hook",
        )

    def _materialise(
        self,
        data: np.ndarray,
        max_level: Optional[int],
        counters: Counters,
    ) -> SkycubeRun:
        from repro.engine.packed import check_d

        check_d(data.shape[1])
        if self.executor == "process":
            return self._materialise_process(data, max_level, counters)
        if self.sweep_engine is not None:
            return self._materialise_engine(data, max_level, counters)
        d = data.shape[1]
        full = full_space(d)

        # -- Line 2: S+(P) and the shared static tree ------------------
        setup_counters = Counters()
        extended_result = self._extended_hook.compute(
            data, None, full, setup_counters
        )
        splus_ids = extended_result.extended
        tree = StaticTree(data, splus_ids, levels=3, counters=setup_counters)
        counters.merge(setup_counters)
        counters.sync_points += 1
        setup_phase = PhaseTrace("extended+tree")
        setup_phase.tasks.append(
            TaskTrace(
                label="S+(P) + quad tree",
                counters=setup_counters,
                profile=MemoryProfile(
                    data_bytes=8 * data.size,
                    shared_flat_bytes=tree.memory_bytes(),
                ),
                subtask_units=extended_result.task_units,
            )
        )

        closures = SubspaceClosures(d)
        relevant = self._relevant_bits(d, max_level)
        all_bits = (1 << full) - 1

        # -- Lines 3-13: one independent task per point ---------------
        hashcube = HashCube(d, self.word_width, self.bit_order)
        point_phase = PhaseTrace("points")
        state_bytes = 2 * (2**d) // 8  # B∉S + B∉S+ per in-flight point
        shared_profile_bytes = tree.memory_bytes() + 8 * tree.k * len(tree)
        for pos in range(len(tree)):
            pid = int(tree.ids[pos])
            task_counters = Counters()
            not_in_s = self.engine.process_point(
                tree, pos, closures, task_counters, relevant
            )
            if max_level is not None:
                # No correctness guarantee above max_level (App. A.2):
                # mark those subspaces dominated so they compress away.
                not_in_s |= all_bits & ~relevant
            task_counters.extra["state_bytes"] = state_bytes
            counters.merge(task_counters)
            hashcube.insert(pid, not_in_s)
            point_phase.tasks.append(
                TaskTrace(
                    label=f"p={pid}",
                    counters=task_counters,
                    profile=MemoryProfile(
                        flat_bytes=state_bytes,
                        shared_flat_bytes=shared_profile_bytes,
                        output_bytes=state_bytes // 2,
                    ),
                )
            )
        counters.tasks += len(point_phase.tasks)

        skycube = Skycube(hashcube, data=data, max_level=max_level)
        return SkycubeRun(skycube, counters, [setup_phase, point_phase])

    def _materialise_engine(
        self,
        data: np.ndarray,
        max_level: Optional[int],
        counters: Counters,
    ) -> SkycubeRun:
        """Serial fast path for an explicit ``engine=`` override.

        Delegates to :func:`repro.engine.kernels.fast_skycube` — the
        uninstrumented vectorized kernels — so only the task counts and
        the filter-effectiveness tallies land in ``counters``; there are
        no per-operation counts to drive the hardware simulation.  The
        resulting cube is bit-identical to the instrumented sweep.
        """
        from repro.engine.kernels import fast_skycube

        counters.sync_points += 1
        skycube = fast_skycube(
            data,
            max_level=max_level,
            word_width=self.word_width,
            bit_order=self.bit_order,
            engine=self.sweep_engine or "packed",
            counters=counters,
        )
        point_ids = skycube.store.point_ids()
        counters.tasks += len(point_ids)
        counters.points_processed += len(point_ids)
        setup_phase = PhaseTrace("extended+labels")
        setup_phase.tasks.append(
            TaskTrace(label="S+(P) + path labels", counters=Counters())
        )
        point_phase = PhaseTrace("points")
        for pid in point_ids:
            point_phase.tasks.append(
                TaskTrace(label=f"p={int(pid)}", counters=Counters())
            )
        return SkycubeRun(skycube, counters, [setup_phase, point_phase])

    def _materialise_process(
        self,
        data: np.ndarray,
        max_level: Optional[int],
        counters: Counters,
    ) -> SkycubeRun:
        """Process backend: point-block tasks, parent-side batch merge.

        Lines 3–13 of Algorithm 3 parallelise over points; here blocks
        of ``S+(P)`` points are real pool tasks whose ``B_{p∉S}`` masks
        come back to the parent, which batch-merges them into the
        HashCube — the only write ever performed on shared state, so
        workers stay fully independent, exactly as the paper requires.
        An explicit ``engine=`` override picks the in-worker sweep;
        ``"packed-filtered"`` additionally runs the octant-path label
        prefilter before the exact ``S+`` computation and ships the
        leaf-ordered label columns to the workers.
        """
        from repro.engine import packed
        from repro.engine.kernels import splus_ids_for_engine
        from repro.engine.parallel import (
            parallel_filtered_packed_masks,
            parallel_packed_masks,
        )

        d = data.shape[1]
        engine = self.sweep_engine or "packed"
        splus_ids = splus_ids_for_engine(data, engine, counters=counters)
        rows = np.ascontiguousarray(data[splus_ids])

        executor = self._make_executor()
        counters.sync_points += 1
        # Workers return uint64 mask blocks, the parent ORs in the
        # level filter and merges exactly once through the bulk
        # word-splitting constructor.
        if engine == "packed-filtered":
            mask_rows = parallel_filtered_packed_masks(
                rows, executor, counters=counters
            )
        else:
            mask_rows = parallel_packed_masks(rows, executor)
        if max_level is not None and max_level < d:
            mask_rows = mask_rows | packed.unmaterialised_row(d, max_level)
        hashcube = HashCube.from_masks(
            d,
            splus_ids,
            mask_rows,
            word_width=self.word_width,
            bit_order=self.bit_order,
        )
        counters.tasks += len(splus_ids)
        counters.points_processed += len(splus_ids)

        setup_phase = PhaseTrace("extended+shm")
        setup_phase.tasks.append(
            TaskTrace(label="S+(P) + shared segment", counters=Counters())
        )
        point_phase = PhaseTrace("points")
        for pid in splus_ids:
            point_phase.tasks.append(
                TaskTrace(label=f"p={int(pid)}", counters=Counters())
            )
        skycube = Skycube(hashcube, data=data, max_level=max_level)
        return SkycubeRun(skycube, counters, [setup_phase, point_phase])

    @staticmethod
    def _relevant_bits(d: int, max_level: Optional[int]) -> int:
        """Bitset of subspaces the result must be exact for."""
        full = full_space(d)
        if max_level is None or max_level >= d:
            return (1 << full) - 1
        bits = 0
        for delta in range(1, full + 1):
            if popcount(delta) <= max_level:
                bits |= 1 << (delta - 1)
        return bits
