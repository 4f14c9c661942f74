"""Dynamic skylines and dynamic skycubes (metric-style queries).

Section 4.2.1 notes that STSC is the only template that still applies
in settings where no parallel skyline algorithm exists, citing dynamic
skyline queries in metric spaces [7].  A *dynamic* skyline is computed
relative to a query point ``q``: point ``p`` dominates ``p'`` iff
``|p_i - q_i| <= |p'_i - q_i|`` on every dimension (strict somewhere) —
"closest to my ideal on every criterion".

Because the transform ``p ↦ |p - q|`` is per-point and per-dimension,
every algorithm in this library applies verbatim to the transformed
space; this module packages that: one-shot dynamic skylines, and a
dynamic *skycube* materialised with a pluggable skycube algorithm
(defaulting to STSC, as the paper suggests for exotic settings).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np

from repro.core.bitmask import dims_of, full_space, parse_subspace
from repro.core.dominance import dominated_mask
from repro.core.skycube import Skycube
from repro.engine import fast_skyline
from repro.engine.kernels import REPRESENTATIVES
from repro.skycube.base import SkycubeAlgorithm
from repro.templates.stsc import STSC

__all__ = [
    "dynamic_transform",
    "dynamic_skyline",
    "dynamic_skycube",
    "dynamic_topk",
]

#: A subspace given either as a mask or in any textual form that
#: :func:`repro.core.bitmask.parse_subspace` accepts ("0b101", "5", "0,2").
SubspaceLike = Union[int, str]

#: :func:`dynamic_topk` visits rows nearest-first in blocks that start
#: at ``SCAN_BLOCK // 16`` rows and double up to this many, each
#: extended to the end of its equal-distance group.  A group that would
#: stretch a block past twice this size hands the query to the full
#: filter (duplicate-heavy data, where rank lanes serve better).
SCAN_BLOCK = 256

#: The scan hands over to the full filter once this many rows are
#: confirmed short of ``k``, so the window every block is checked
#: against stays small ...
SCAN_WINDOW = 256

#: ... or once it has visited ``max(SCAN_DEPTH, n // 4)`` rows (plus
#: the ties of the last), the most it sorts.
SCAN_DEPTH = 1024


def _as_delta(delta: Optional[SubspaceLike], d: int) -> Optional[int]:
    if isinstance(delta, str):
        return parse_subspace(delta, d)
    return delta


def dynamic_transform(data: np.ndarray, query: Sequence[float]) -> np.ndarray:
    """Per-dimension distances to the query point (smaller = better)."""
    data = np.asarray(data, dtype=np.float64)
    query = np.asarray(query, dtype=np.float64)
    if data.ndim != 2:
        raise ValueError(f"data must be 2-D, got shape {data.shape}")
    if query.shape != (data.shape[1],):
        raise ValueError(
            f"query must have {data.shape[1]} dimensions, got {query.shape}"
        )
    if np.isnan(query).any():
        raise ValueError("query contains NaN")
    transformed = data - query
    return np.abs(transformed, out=transformed)


def dynamic_skyline(
    data: np.ndarray,
    query: Sequence[float],
    delta: Optional[SubspaceLike] = None,
) -> List[int]:
    """Ids of the dynamic skyline of ``data`` relative to ``query``."""
    transformed = dynamic_transform(data, query)
    return [
        int(i)
        for i in fast_skyline(
            transformed, _as_delta(delta, transformed.shape[1])
        )
    ]


def dynamic_topk(
    data: np.ndarray,
    query: Sequence[float],
    k: int = 10,
    delta: Optional[SubspaceLike] = None,
) -> List[int]:
    """The ``k`` dynamic-skyline points closest to ``query``.

    The serving layer's ``topk-dynamic`` endpoint: the dynamic skyline
    relative to ``query`` in subspace ``delta``, ranked by L1 distance
    over the active dimensions (ties by id).  Pareto-optimality picks
    the candidates; the distance rank orders them for presentation.

    Rows are visited in (distance, id) order and the scan stops once
    ``k`` skyline rows are confirmed: a dominator is never farther than
    the row it dominates, so every confirmed row is final and in rank
    order.  Past :data:`SCAN_WINDOW` confirmed rows or the depth cap
    the full filter finishes the job over the confirmed and unscanned
    rows (DESIGN.md, "Dynamic top-k").
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    transformed = dynamic_transform(data, query)
    n, d = transformed.shape
    mask = _as_delta(delta, d)
    full = full_space(d)
    mask = full if mask is None else mask
    if n == 0:
        raise ValueError(f"expected a non-empty 2-D dataset, got shape {(n, d)}")
    if not 0 < mask <= full:
        raise ValueError(f"invalid subspace {mask} for d={d}")
    # Sum C-contiguous rows: an F-ordered projection is summed column
    # by column instead of pairwise, and may differ in the last bit.
    if mask == full:
        active = np.ascontiguousarray(transformed)
    else:
        active = np.ascontiguousarray(transformed[:, dims_of(mask)])
    distance = active.sum(axis=1)
    depth = min(n, max(SCAN_DEPTH, n // 4))
    if depth == n:
        order = np.argsort(distance, kind="stable")
    else:
        # The scan visits only the nearest ``depth`` rows and the ties
        # of the last, so only they are sorted.
        cutoff = np.partition(distance, depth - 1)[depth - 1]
        order = np.flatnonzero(distance <= cutoff)
        order = order[np.argsort(distance[order], kind="stable")]
    ranked = distance[order]
    confirmed: List[int] = []
    window = active[:0]
    pos = 0
    size = max(1, SCAN_BLOCK // 16)
    while len(confirmed) < k and pos < n:
        if len(confirmed) >= SCAN_WINDOW or pos >= depth:
            return _filtered_topk(active, distance, order[:pos], window,
                                  confirmed, k)
        # A strict dominator may round to the same distance with a
        # larger id, so a block never splits an equal-distance group.
        end = min(pos + size, depth)
        end = int(np.searchsorted(ranked, ranked[end - 1], side="right"))
        if end - pos > 2 * SCAN_BLOCK:
            return _filtered_topk(active, distance, order[:pos], window,
                                  confirmed, k)
        block = order[pos:end]
        rows = active[block]
        if len(window):
            live = ~_covered(rows, window)
            block, rows = block[live], rows[live]
        if len(rows) > 1:
            alive = ~dominated_mask(rows, rows)
            block, rows = block[alive], rows[alive]
        if len(rows):
            confirmed.extend(block.tolist())
            window = np.concatenate([window, rows])
        pos = end
        size = min(2 * size, SCAN_BLOCK)
    return confirmed[:k]


def _covered(rows: np.ndarray, window: np.ndarray) -> np.ndarray:
    """Which ``rows`` some ``window`` row is at most on every column.

    The scan only asks this of rows strictly farther than every window
    row, and equal rows have equal distances, so here covering is
    dominance (Definition 1) at half the comparisons.  Each pass streams
    one contiguous column of ``rows``; scratch is ``len(window) ×
    len(rows)`` booleans.
    """
    out = np.ones((len(window), len(rows)), dtype=bool)
    scratch = np.empty_like(out)
    for column, bound in zip(np.ascontiguousarray(rows.T), window.T):
        np.less_equal(bound[:, None], column, out=scratch)
        out &= scratch
    return out.any(axis=0)


def _filtered_topk(
    active: np.ndarray,
    distance: np.ndarray,
    scanned: np.ndarray,
    window: np.ndarray,
    confirmed: List[int],
    k: int,
) -> List[int]:
    """:func:`dynamic_topk` finished by the full filter.

    Every scanned row is confirmed or dominated by a confirmed row, and
    every unscanned row is farther than any scanned one, so the skyline
    of the confirmed and unscanned rows is the whole dynamic skyline.
    The :data:`~repro.engine.kernels.REPRESENTATIVES` nearest confirmed
    rows first drop the unscanned rows they cover.
    """
    keep = np.ones(len(active), dtype=bool)
    keep[scanned] = False
    unscanned = np.flatnonzero(keep)
    covered = _covered(active[unscanned], window[:REPRESENTATIVES])
    keep[unscanned[covered]] = False
    keep[confirmed] = True
    candidates = np.flatnonzero(keep)
    ids = candidates[fast_skyline(active[candidates])]
    # ``ids`` ascend, so a stable sort breaks distance ties by id.
    ranked = ids[np.argsort(distance[ids], kind="stable")]
    return ranked[:k].tolist()


def dynamic_skycube(
    data: np.ndarray,
    query: Sequence[float],
    algorithm: Optional[SkycubeAlgorithm] = None,
    max_level: Optional[int] = None,
) -> Skycube:
    """The dynamic skycube relative to ``query``: every subspace's
    dynamic skyline, materialised.

    Defaults to STSC — the template the paper singles out as the one
    that ports to settings like this without a parallel per-setting
    algorithm (its hook just runs on the transformed space).
    """
    algorithm = algorithm if algorithm is not None else STSC()
    transformed = dynamic_transform(data, query)
    run = algorithm.materialise(transformed, max_level=max_level)
    # Attach the *original* rows so point queries return real tuples.
    return Skycube(
        run.skycube.store,
        data=np.asarray(data, dtype=np.float64),
        max_level=max_level,
    )
