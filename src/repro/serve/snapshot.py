"""Immutable serving snapshots and the atomic snapshot swap.

The serving layer's consistency story is *snapshot isolation by
replacement*: a :class:`ServingSnapshot` bundles a built
:class:`~repro.core.hashcube.HashCube` with the dataset it was built
from and is never mutated after construction.  Readers grab
``holder.current`` once per batch and answer every request in the
batch from that one object; a background writer (wrapping a
:class:`~repro.core.maintain.SkycubeMaintainer`) applies inserts and
deletes off the event loop, builds a *new* snapshot, and publishes it
with a single reference assignment — atomic under the GIL, so readers
never observe a half-updated cube, only the version before or the
version after.

This is the materialise-once side of the paper's HashCube-vs-ad-hoc
trade-off (Section 3): the cube answers materialised subspaces in one
probe, and the snapshot falls back to the vectorised
:mod:`repro.engine` kernels for subspaces a *partial* cube never
stored.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.bitmask import full_space, popcount
from repro.core.hashcube import HashCube
from repro.core.maintain import MaskDelta, SkycubeMaintainer
from repro.engine import fast_skycube, fast_skyline
from repro.query.dynamic import dynamic_topk
from repro.trace import NULL_TRACER, TraceEvent, Tracer

if TYPE_CHECKING:  # type-only: the service layer sits above snapshots
    from repro.serve.service import Request

__all__ = ["ServingSnapshot", "SnapshotHolder", "ChangeLog", "LiveUpdater"]

_UPDATES_DISABLED = "live updates are disabled on this server"


class ServingSnapshot:
    """One immutable, consistent view of the served skycube.

    ``ids[row]`` maps dataset rows to stable point ids (after deletes
    the id space need not be dense).  ``max_level`` marks a partially
    materialised cube; queries above it take the ad-hoc kernel path.
    """

    __slots__ = ("version", "cube", "data", "ids", "max_level", "_known_ids")

    def __init__(
        self,
        cube: HashCube,
        data: np.ndarray,
        ids: Optional[Sequence[int]] = None,
        version: int = 0,
        max_level: Optional[int] = None,
        copy: bool = True,
    ) -> None:
        # ``copy=False`` trusts the caller to hand over a buffer nobody
        # mutates — the shard workers' zero-copy shared-memory views.
        if copy:
            data = np.array(data, dtype=np.float64)  # private copy
        else:
            data = np.asarray(data, dtype=np.float64)
        if data.ndim != 2:
            raise ValueError(f"data must be 2-D, got shape {data.shape}")
        if data.shape[1] != cube.d:
            raise ValueError(
                f"cube is {cube.d}-dimensional but data has "
                f"{data.shape[1]} columns"
            )
        data.setflags(write=False)
        if ids is None:
            id_array = np.arange(len(data), dtype=np.int64)
        else:
            id_array = np.array(ids, dtype=np.int64)
            if id_array.shape != (len(data),):
                raise ValueError(
                    f"expected {len(data)} ids, got shape {id_array.shape}"
                )
        id_array.setflags(write=False)
        self.version = version
        self.cube = cube
        self.data = data
        self.ids = id_array
        self.max_level = max_level
        # tolist() yields python ints at C speed; a genexpr over the
        # array would cost an O(n) python loop on every delta publish.
        self._known_ids = frozenset(id_array.tolist())

    # -- constructors --------------------------------------------------

    @classmethod
    def build(
        cls,
        data: np.ndarray,
        version: int = 0,
        max_level: Optional[int] = None,
        word_width: int = HashCube.DEFAULT_WORD_WIDTH,
        engine: str = "packed",
        copy: bool = True,
    ) -> "ServingSnapshot":
        """Materialise ``data`` with the vectorised engine and wrap it.

        ``engine`` selects the :func:`repro.engine.fast_skycube` sweep
        — any of :data:`repro.engine.SKYCUBE_ENGINES` (``"packed"``,
        the default; ``"packed-filtered"``, faster on duplicate-heavy
        data, where its in-sweep leaf filter engages).  Both produce
        bit-identical snapshots.
        """
        skycube = fast_skycube(
            data,
            max_level=max_level,
            word_width=word_width,
            engine=engine,
        )
        cube = skycube.store
        assert isinstance(cube, HashCube)
        return cls(cube, data, version=version, max_level=max_level, copy=copy)

    @classmethod
    def from_maintainer(
        cls,
        maintainer: SkycubeMaintainer,
        version: int,
        word_width: int = HashCube.DEFAULT_WORD_WIDTH,
    ) -> "ServingSnapshot":
        """Freeze a maintainer's exact current state into a snapshot.

        One aligned ``snapshot_arrays`` copy plus the bulk
        :meth:`~repro.core.hashcube.HashCube.from_masks` constructor —
        distinct masks are split into stored words once, ids appended
        group-wise — instead of a per-point Python insert loop.
        """
        ids, data, mask_rows = maintainer.snapshot_arrays()
        cube = HashCube.from_masks(maintainer.d, ids, mask_rows, word_width)
        return cls(cube, data, ids=ids, version=version, copy=False)

    # -- queries -------------------------------------------------------

    @property
    def d(self) -> int:
        return self.cube.d

    def __len__(self) -> int:
        return len(self.data)

    def materialised(self, delta: int) -> bool:
        """Whether the cube stores subspace ``delta`` (partial cubes)."""
        return self.max_level is None or popcount(delta) <= self.max_level

    def _check_delta(self, delta: int) -> None:
        if not 0 < delta <= full_space(self.d):
            raise KeyError(f"invalid subspace {delta} for d={self.d}")

    def knows(self, point_id: int) -> bool:
        """Whether this snapshot's dataset contains the point id."""
        return point_id in self._known_ids

    def skyline(self, delta: int) -> Tuple[int, ...]:
        """``S_δ`` ids: one cube probe, or the ad-hoc kernel fallback."""
        self._check_delta(delta)
        if self.materialised(delta):
            return self.cube.skyline(delta)
        if len(self.data) == 0:
            return ()
        rows = fast_skyline(self.data, delta)
        return tuple(int(i) for i in self.ids[rows])

    def membership(self, point_id: int, delta: int) -> bool:
        """``p ∈ S_δ`` via the O(1) single-word HashCube probe.

        Raises :exc:`KeyError` for ids the snapshot has never seen —
        the service maps that to a typed ``NotFound`` response, which
        is distinct from "known point, not in this skyline".
        """
        self._check_delta(delta)
        if not self.knows(point_id):
            raise KeyError(f"unknown point id {point_id}")
        if self.materialised(delta):
            return self.cube.contains(point_id, delta)
        return point_id in self.skyline(delta)

    def topk_dynamic(
        self, query: Sequence[float], k: int = 10, delta: Optional[int] = None
    ) -> List[int]:
        """Top-k dynamic skyline relative to ``query`` (always ad-hoc)."""
        if delta is not None:
            self._check_delta(delta)
        if len(self.data) == 0:
            return []
        rows = dynamic_topk(self.data, query, k=k, delta=delta)
        return [int(self.ids[row]) for row in rows]


class SnapshotHolder:
    """The single mutable cell of the serving layer.

    ``current`` is read without any locking — publishing is one
    attribute assignment, so a reader sees either the old or the new
    snapshot object, both internally consistent.  ``subscribe``
    callbacks see every publish (tests retain every published snapshot
    for consistency checks).

    A holder is also the static tier's
    :class:`~repro.serve.service.QueryBackend`; it refuses writes and
    ``skyline_diff`` with ``ValueError`` (``BadRequest``: no ``--live``).
    """

    def __init__(self, initial: ServingSnapshot) -> None:
        self._snapshot = initial
        self._publish_lock = threading.Lock()
        self._subscribers: List[Callable[[ServingSnapshot], None]] = []

    @property
    def current(self) -> ServingSnapshot:
        return self._snapshot

    @property
    def version(self) -> int:
        return self._snapshot.version

    def subscribe(self, callback: Callable[[ServingSnapshot], None]) -> None:
        self._subscribers.append(callback)

    def publish(self, snapshot: ServingSnapshot) -> None:
        """Swap in a newer snapshot; versions must strictly increase."""
        with self._publish_lock:
            if snapshot.version <= self._snapshot.version:
                raise ValueError(
                    f"stale snapshot version {snapshot.version} "
                    f"(current is {self._snapshot.version})"
                )
            self._snapshot = snapshot
        for callback in list(self._subscribers):
            callback(snapshot)

    # -- QueryBackend: the static tier ---------------------------------

    def answer(
        self, snapshot: ServingSnapshot, request: "Request"
    ) -> Tuple[Any, Tuple[int, ...]]:
        """One batched query against ``snapshot``; no shards can fail."""
        op = request.op
        if op == "skyline":
            assert request.delta is not None
            return list(snapshot.skyline(request.delta)), ()
        if op == "membership":
            assert request.point_id is not None
            assert request.delta is not None
            return snapshot.membership(request.point_id, request.delta), ()
        if op == "topk_dynamic":
            assert request.q is not None
            return snapshot.topk_dynamic(
                request.q, k=request.k, delta=request.delta
            ), ()
        if op == "skyline_diff":
            raise ValueError(
                "skyline_diff needs live updates enabled "
                "(no changelog on this server)"
            )
        raise ValueError(f"op {op!r} is not a batched query")

    def describe(self) -> Dict[str, Any]:
        snapshot = self._snapshot
        return {"d": snapshot.d, "n": len(snapshot)}

    def metrics_extra(self) -> Dict[str, Any]:
        return {}

    def start(self) -> None:
        """Nothing to start: the snapshot is already built."""

    async def aclose(self) -> None:
        """Nothing to release."""

    def insert(self, point: Sequence[float]) -> Tuple[int, int]:
        raise ValueError(_UPDATES_DISABLED)

    def delete(self, point_id: int) -> Tuple[Optional[int], int]:
        raise ValueError(_UPDATES_DISABLED)


class ChangeLog:
    """Bounded per-version record of mask movement, for ``skyline_diff``.

    Every published version ``v`` records ``{point id: (mask before,
    mask after)}`` for exactly the masks that moved (``None`` marks
    non-existence: an inserted id has ``before=None``, a removed id
    ``after=None``).  :meth:`diff` composes the records over a version
    interval — earliest ``before`` and latest ``after`` per id — and
    answers the *temporal/emerging skyline* question per subspace:
    which points entered ``S_δ`` between v1 and v2, and which left.

    Retention is bounded (:attr:`retention` versions); asking about a
    version older than the window, newer than the latest publish, or a
    reversed interval raises :class:`ValueError` (the service maps it
    to a typed ``BadRequest``).  Thread-safe: the updater records under
    its mutation lock while query threads read concurrently.
    """

    DEFAULT_RETENTION = 64

    def __init__(
        self,
        d: int,
        base_version: int = 0,
        retention: int = DEFAULT_RETENTION,
    ) -> None:
        if retention < 1:
            raise ValueError(f"retention must be >= 1, got {retention}")
        self.d = d
        self.retention = retention
        self._lock = threading.Lock()
        #: version -> {id: (before mask | None, after mask | None)}
        self._entries: "OrderedDict[int, Dict[int, Tuple[Optional[int], Optional[int]]]]" = (
            OrderedDict()
        )
        #: The oldest version usable as a diff's ``from`` side — the
        #: version published just before the earliest retained entry.
        self._base = base_version

    def record(self, version: int, delta: MaskDelta) -> None:
        """Append one published version's mask movement."""
        changes: Dict[int, Tuple[Optional[int], Optional[int]]] = {}
        for pid, after in delta.changed.items():
            changes[pid] = (delta.previous.get(pid), after)
        for pid in delta.removed:
            changes[pid] = (delta.previous[pid], None)
        with self._lock:
            if self._entries:
                latest = next(reversed(self._entries))
                if version <= latest:
                    raise ValueError(
                        f"changelog version {version} is not newer than "
                        f"{latest}"
                    )
            elif version <= self._base:
                raise ValueError(
                    f"changelog version {version} is not newer than the "
                    f"base {self._base}"
                )
            self._entries[version] = changes
            while len(self._entries) > self.retention:
                evicted, _ = self._entries.popitem(last=False)
                self._base = evicted

    def versions(self) -> Tuple[int, int]:
        """``(oldest usable 'from', latest recorded)`` version bounds."""
        with self._lock:
            if not self._entries:
                return self._base, self._base
            return self._base, next(reversed(self._entries))

    def diff(
        self, delta: int, v_from: int, v_to: int
    ) -> Tuple[List[int], List[int]]:
        """``(entered, left)`` of ``S_δ`` between two published versions.

        A point counts as *entered* when it was absent from ``S_δ`` at
        ``v_from`` (not stored, or mask bit set) and present at
        ``v_to``; *left* is the reverse.  Points that moved out and
        back within the interval cancel out — only the endpoint states
        matter, exactly as if two full snapshots were compared.
        """
        if not 0 < delta <= full_space(self.d):
            raise KeyError(f"invalid subspace {delta} for d={self.d}")
        with self._lock:
            oldest = self._base
            latest = (
                next(reversed(self._entries)) if self._entries else oldest
            )
            if v_from >= v_to:
                raise ValueError(
                    f"diff needs from < to, got {v_from}:{v_to}"
                )
            if v_to > latest:
                raise ValueError(
                    f"unknown snapshot version {v_to} (latest is {latest})"
                )
            if v_from < oldest:
                raise ValueError(
                    f"snapshot version {v_from} is outside the changelog "
                    f"retention window (oldest is {oldest})"
                )
            first_before: Dict[int, Optional[int]] = {}
            last_after: Dict[int, Optional[int]] = {}
            for version, changes in self._entries.items():
                if version <= v_from or version > v_to:
                    continue
                for pid, (before, after) in changes.items():
                    if pid not in first_before:
                        first_before[pid] = before
                    last_after[pid] = after
        bit = 1 << (delta - 1)
        entered: List[int] = []
        left: List[int] = []
        for pid, before in first_before.items():
            after = last_after[pid]
            was = before is not None and not before & bit
            now = after is not None and not after & bit
            if now and not was:
                entered.append(pid)
            elif was and not now:
                left.append(pid)
        return sorted(entered), sorted(left)


class LiveUpdater:
    """Applies live inserts/deletes and publishes *delta* snapshots.

    Owns the :class:`SkycubeMaintainer`; every mutation runs under one
    lock (updates are serialised — the maintainer is not thread-safe)
    and ends by publishing a new :class:`ServingSnapshot`, so queries
    racing an update see exactly the before- or after-state.  The
    service calls :meth:`insert`/:meth:`delete` from a worker thread
    (``asyncio.to_thread``) to keep the event loop free.  As the live
    tier's :class:`~repro.serve.service.QueryBackend` it answers reads
    through its holder and ``skyline_diff`` from its :class:`ChangeLog`.

    Publishing is incremental: the maintainer reports the exact
    :class:`~repro.core.maintain.MaskDelta` of the mutation, the new
    cube is a copy-on-write
    :meth:`~repro.core.hashcube.HashCube.with_updates` clone sharing
    every untouched table with the previous version, and the data/id
    arrays change by one row — O(affected) instead of the former
    O(n)-per-mutation full rebuild.  Every ``compact_every``
    generations the publish is a full ``from_maintainer`` rebuild
    instead (the compaction that bounds copy-on-write fragmentation);
    both paths emit a ``publish``/``compact`` trace span and record the
    delta in the :class:`ChangeLog` that backs ``skyline_diff``.
    """

    DEFAULT_COMPACT_EVERY = 64

    def __init__(
        self,
        maintainer: SkycubeMaintainer,
        holder: SnapshotHolder,
        word_width: int = HashCube.DEFAULT_WORD_WIDTH,
        compact_every: int = DEFAULT_COMPACT_EVERY,
        tracer: Optional[Tracer] = None,
        changelog_retention: int = ChangeLog.DEFAULT_RETENTION,
    ) -> None:
        if compact_every < 1:
            raise ValueError(
                f"compact_every must be >= 1, got {compact_every}"
            )
        self.maintainer = maintainer
        self.holder = holder
        self.word_width = word_width
        self.compact_every = compact_every
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.changelog = ChangeLog(
            maintainer.d, holder.version, changelog_retention
        )
        self._lock = threading.Lock()

    @classmethod
    def bootstrap(
        cls,
        data: np.ndarray,
        word_width: int = HashCube.DEFAULT_WORD_WIDTH,
        compact_every: int = DEFAULT_COMPACT_EVERY,
        tracer: Optional[Tracer] = None,
        changelog_retention: int = ChangeLog.DEFAULT_RETENTION,
    ) -> Tuple["LiveUpdater", SnapshotHolder]:
        """Build the maintainer + initial snapshot + holder in one go."""
        maintainer = SkycubeMaintainer(data)
        holder = SnapshotHolder(
            ServingSnapshot.from_maintainer(maintainer, 0, word_width)
        )
        updater = cls(
            maintainer,
            holder,
            word_width,
            compact_every=compact_every,
            tracer=tracer,
            changelog_retention=changelog_retention,
        )
        return updater, holder

    def _delta_arrays(
        self, current: ServingSnapshot, delta: MaskDelta
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The next version's ``(data, ids)`` from the previous one.

        Removed rows are filtered, inserted rows appended; everything
        else is one aligned copy of the previous arrays, so the cost is
        a memcpy, not a re-stack of per-point arrays.
        """
        data, ids = current.data, current.ids
        if delta.removed:
            keep = ~np.isin(
                ids, np.asarray(delta.removed, dtype=np.int64)
            )
            data = data[keep]
            ids = ids[keep]
        new_ids = [
            pid for pid in delta.changed if not current.knows(pid)
        ]
        if new_ids:
            added = np.stack(
                [self.maintainer.point(pid) for pid in new_ids]
            )
            data = np.concatenate([data, added]) if len(data) else added
            ids = np.concatenate(
                [ids, np.asarray(new_ids, dtype=np.int64)]
            )
        return data, ids

    def _publish(self, delta: MaskDelta) -> ServingSnapshot:
        """Build + swap in the next version; returns the new snapshot."""
        start = time.perf_counter()
        current = self.holder.current
        version = current.version + 1
        compacting = current.cube.generation + 1 > self.compact_every
        if compacting:
            snapshot = ServingSnapshot.from_maintainer(
                self.maintainer, version, self.word_width
            )
        else:
            cube = current.cube.with_updates(delta.changed, delta.removed)
            data, ids = self._delta_arrays(current, delta)
            snapshot = ServingSnapshot(
                cube,
                data,
                ids=ids,
                version=version,
                max_level=current.max_level,
                copy=False,
            )
        self.changelog.record(version, delta)
        self.holder.publish(snapshot)
        if self.tracer.enabled:
            self.tracer.emit(
                TraceEvent(
                    stage="compact" if compacting else "publish",
                    snapshot_version=version,
                    duration_ms=(time.perf_counter() - start) * 1e3,
                    extra={
                        "mode": "rebuild" if compacting else "delta",
                        "changed": len(delta.changed),
                        "removed": len(delta.removed),
                        "generation": snapshot.cube.generation,
                    },
                )
            )
        return snapshot

    def insert(self, point: Sequence[float]) -> Tuple[int, int]:
        """Insert a point and publish; returns ``(point id, version)``."""
        with self._lock:
            point_id, delta = self.maintainer.insert_with_delta(point)
            snapshot = self._publish(delta)
            return point_id, snapshot.version

    def delete(self, point_id: int) -> Tuple[Optional[int], int]:
        """Delete a point and publish; returns ``(None, version)``.

        The ``(point_id_or_None, version)`` shape mirrors
        :meth:`insert` so the service surfaces ``snapshot_version``
        uniformly for both mutations.
        """
        with self._lock:
            delta = self.maintainer.delete_with_delta(point_id)
            snapshot = self._publish(delta)
            return None, snapshot.version

    def skyline_diff(
        self, delta: int, v_from: int, v_to: int
    ) -> Tuple[List[int], List[int]]:
        """``(entered, left)`` of ``S_δ`` between two published versions."""
        return self.changelog.diff(delta, v_from, v_to)

    # -- QueryBackend: the holder's reads plus the changelog -----------

    @property
    def current(self) -> ServingSnapshot:
        return self.holder.current

    def answer(
        self, snapshot: ServingSnapshot, request: "Request"
    ) -> Tuple[Any, Tuple[int, ...]]:
        if request.op != "skyline_diff":
            return self.holder.answer(snapshot, request)
        assert request.delta is not None
        assert request.v_from is not None and request.v_to is not None
        entered, left = self.skyline_diff(
            request.delta, request.v_from, request.v_to
        )
        return {
            "entered": entered, "left": left,
            "from": request.v_from, "to": request.v_to,
        }, ()

    def describe(self) -> Dict[str, Any]:
        return self.holder.describe()

    def metrics_extra(self) -> Dict[str, Any]:
        return {}

    def start(self) -> None:
        """Nothing to start: :meth:`bootstrap` built everything."""

    async def aclose(self) -> None:
        """Nothing to release."""
