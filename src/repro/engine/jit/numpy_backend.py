"""The reference backend: the stdlib+numpy packed sweep, unchanged.

Every other backend is measured against this one — it *is* the
``engine="packed"`` / ``"packed-filtered"`` implementation the rest of
the library already trusts, re-exposed through the
:class:`~repro.engine.jit.base.KernelBackend` protocol so selection,
probing and fallback treat all backends uniformly.  Always available.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.engine import packed
from repro.engine.jit.base import KernelBackend
from repro.instrument.counters import Counters

__all__ = ["NumpyBackend"]


class NumpyBackend(KernelBackend):
    """The zero-dependency default; delegates to :mod:`repro.engine.packed`."""

    name = "numpy"

    def sweep(
        self,
        rows: np.ndarray,
        block: Optional[int] = None,
        table: Optional[np.ndarray] = None,
    ) -> packed.PackedSweep:
        return packed.PackedSweep(rows, block=block, table=table)

    def filtered_sweep(
        self,
        rows: np.ndarray,
        labels: Any,
        block: Optional[int] = None,
        table: Optional[np.ndarray] = None,
        counters: Optional[Counters] = None,
    ) -> packed.FilteredPackedSweep:
        return packed.FilteredPackedSweep(
            rows, labels, block=block, table=table, counters=counters
        )
