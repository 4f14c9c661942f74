"""The kernel-backend capability layer: one protocol, two compilers.

The packed sweep of :mod:`repro.engine.packed` is already data-parallel
in shape — per point, fold ``closure[le] & ~closure[eq]`` over every
distinct comparison pair.  This package specialises that *same*
computation across compilers: the stdlib+numpy reference (always
available, the zero-dependency default) and a Numba
``@njit(parallel=True)`` CPU path.  A :class:`KernelBackend` bundles
everything a caller needs:

* **probing** — :func:`~repro.engine.jit.registry.probe_backends`
  answers "can this backend actually run here?" without importing
  heavyweight modules at package-import time (the compiled module is
  only imported after its probe succeeds — skylint's SKY701 enforces
  that no module outside ``repro.engine.jit`` imports ``numba`` at top
  level);
* **sweeps** — :meth:`~KernelBackend.point_masks` and
  :meth:`~KernelBackend.filtered_point_masks` produce the packed
  ``B_{p∉S}`` mask rows, bit-identical across every backend (the
  comparison codes and closure folds are integer bit operations on the
  same rank encoding, so there is nothing to round).

Selection and fallback semantics live in
:mod:`repro.engine.jit.registry`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from repro.engine import packed
from repro.instrument.counters import Counters

__all__ = [
    "BackendProbe",
    "BackendUnavailableError",
    "KernelBackend",
]


@dataclass(frozen=True)
class BackendProbe:
    """Outcome of one runtime availability check.

    ``detail`` is human-readable either way: the compiler version when
    available, the failure reason plus the install hint when not.
    """

    name: str
    available: bool
    detail: str


class BackendUnavailableError(RuntimeError):
    """A requested kernel backend cannot run in this environment.

    Raised on *strict* resolution (an explicit ``--backend`` on a CI
    gate); the graceful path degrades to numpy instead.  The message
    always names the missing extra so the fix is one pip command away.
    """

    def __init__(self, name: str, reason: str, hint: str) -> None:
        self.backend = name
        self.reason = reason
        self.hint = hint
        message = f"kernel backend {name!r} is unavailable: {reason}"
        if hint and hint not in reason:
            message = f"{message}. {hint}"
        super().__init__(message)


class KernelBackend(ABC):
    """One compiled implementation of the packed-sweep primitives.

    Subclasses bind a compiler (numpy, numba) to the operations the
    engines need; everything else — leaf ordering for the filtered
    sweep, block bookkeeping — is shared here so the backends stay
    small and provably equivalent.
    """

    #: Registry key (``"numpy"`` / ``"numba"``).
    name: str = "abstract"

    # -- tuning --------------------------------------------------------

    def preferred_block(self, d: int) -> int:
        """Rows per sweep block when the caller does not pin one.

        The numpy sweep wants small blocks (its presence table must
        stay cache-resident, and above the dense table's ``d`` its
        gathered closure rows small); compiled backends amortise launch
        and label-batch overheads over larger ones.  The ``block=``
        keyword still overrides this.
        """
        return packed.default_block(d)

    # -- sweep factories ----------------------------------------------

    @abstractmethod
    def sweep(
        self,
        rows: np.ndarray,
        block: Optional[int] = None,
        table: Optional[np.ndarray] = None,
    ) -> Any:
        """A :class:`~repro.engine.packed.PackedSweep`-shaped object.

        The result exposes ``n``, ``d`` and ``range_masks(start, end)``
        returning ``(end - start, words)`` uint64 mask rows bit-identical
        to the numpy sweep's.
        """

    @abstractmethod
    def filtered_sweep(
        self,
        rows: np.ndarray,
        labels: Any,
        block: Optional[int] = None,
        table: Optional[np.ndarray] = None,
        counters: Optional[Counters] = None,
    ) -> Any:
        """The label-filtered counterpart over *leaf-ordered* rows.

        Additionally exposes ``counters`` (pruning tallies) and
        ``filter_active``.
        """

    # -- whole-input conveniences --------------------------------------

    def point_masks(
        self,
        rows: np.ndarray,
        block: Optional[int] = None,
        table: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Packed ``B_{p∉S}`` rows of every row of ``rows`` (S+)."""
        sweep = self.sweep(rows, block=block, table=table)
        return sweep.range_masks(0, sweep.n)

    def filtered_point_masks(
        self,
        rows: np.ndarray,
        block: Optional[int] = None,
        table: Optional[np.ndarray] = None,
        counters: Optional[Counters] = None,
    ) -> np.ndarray:
        """Filtered ``B_{p∉S}`` rows, scattered back to input order.

        The backend-generic form of
        :func:`repro.engine.packed.filtered_point_masks`: build the
        leaf labels, sweep in leaf order (sequential label traffic),
        scatter back.  Bit-identical to :meth:`point_masks`.
        """
        ordered, labels = packed.leaf_ordered(rows)
        sweep = self.filtered_sweep(
            ordered, labels, block=block, table=table, counters=counters
        )
        leaf_masks = sweep.range_masks(0, sweep.n)
        out = np.empty_like(leaf_masks)
        out[labels.order] = leaf_masks
        return out

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
