"""STSC — single-thread-single-cuboid (Algorithm 1, Section 4.2.1).

The coarsest template: a top-down lattice traversal in which every
cuboid of a level is an *atomic* parallel task computed by a
single-threaded skyline algorithm, with one barrier per level.  The
hook is that per-cuboid algorithm.

CPU specialisation (Section 5.1): Hybrid, run single-threaded — its
compact, fixed two-level array tree keeps concurrently running cuboid
tasks from thrashing the shared L3, which is where hooking BSkyTree
(the QSkycube engine) loses.

GPU specialisation: none exists — there is no single-threaded GPU
algorithm, which the paper names as this template's clear weakness.
Requesting one raises :class:`TemplateSpecialisationError`.
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

__all__ = ["STSC"]


class STSC(SkycubeTemplate):
    """Concurrent single-threaded cuboids, one barrier per level."""

    name = "stsc"
    supported_architectures = ("cpu",)

    #: The per-cuboid sequential skyline algorithm (the hook),
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
        self.set_hook(
            hook if hook is not None else default_hook(self.specialisation)
        )

    def _materialise(
        self,
        data: np.ndarray,
        max_level: Optional[int],
        counters: Counters,
    ) -> SkycubeRun:
        if self.executor == "process":
            return self._materialise_process(data, max_level, counters)
        lattice, phases = top_down_lattice(data, self.hook, counters, max_level)
        # Cuboid tasks are single-threaded by definition: any intra-task
        # parallelism the hook reported is not exploitable here — except
        # in the root phase, which Algorithm 1 line 2 computes in
        # parallel (there is only one cuboid to occupy all threads).
        for phase in phases:
            if phase.name == "root":
                continue
            for task in phase.tasks:
                task.subtask_units = None
        skycube = Skycube(lattice, data=data, max_level=max_level)
        return SkycubeRun(skycube, counters, phases)
