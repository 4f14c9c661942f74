"""SDSC — single-device-single-cuboid (Algorithm 2, Section 4.2.2).

The same top-down lattice traversal as STSC, but each cuboid is handed
to an *entire device* running a parallel skyline algorithm; with k
devices, k cuboids of the same level run concurrently.  The hook is
the per-architecture parallel skyline algorithm:

* CPU (Section 5.1): Hybrid — tiles are the intra-cuboid parallel
  subtasks, the two-level tree is shared by the device's threads;
* GPU (Section 6.1): SkyAlign — orders of magnitude faster than the
  GNL/GGS alternatives on most workloads.

Its cost profile: resource-friendly (one cuboid at a time per device)
but ``2**d - 2`` synchronisation points, and starved for parallelism in
the small cuboids near the bottom of the lattice.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.skycube import Skycube
from repro.instrument.counters import Counters
from repro.skycube.base import SkycubeRun
from repro.skycube.topdown import top_down_lattice
from repro.skyline.base import SkylineAlgorithm
from repro.skyline.registry import default_hook
from repro.templates.base import SkycubeTemplate

__all__ = ["SDSC"]


class SDSC(SkycubeTemplate):
    """Serial cuboids, each computed device-parallel."""

    name = "sdsc"
    supported_architectures = ("cpu", "gpu")

    #: The per-cuboid parallel skyline algorithm (the hook),
    #: installed through the validated setter.
    hook: SkylineAlgorithm

    def __init__(
        self,
        specialisation: str = "cpu",
        hook: Optional[SkylineAlgorithm] = None,
        executor: str = "serial",
        workers: Optional[int] = None,
    ) -> None:
        super().__init__(specialisation, executor, workers)
        if hook is None:
            hook = default_hook(self.specialisation, parallel=True)
        self.set_hook(hook, require_parallel=True)

    def _materialise(
        self,
        data: np.ndarray,
        max_level: Optional[int],
        counters: Counters,
    ) -> SkycubeRun:
        if self.executor == "process":
            return self._materialise_process(data, max_level, counters)
        lattice, phases = top_down_lattice(data, self.hook, counters, max_level)
        skycube = Skycube(lattice, data=data, max_level=max_level)
        return SkycubeRun(skycube, counters, phases)
