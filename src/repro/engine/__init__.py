"""Uninstrumented, vectorized fast kernels and the real parallel backend."""

from repro.engine.kernels import (
    ENGINE_HELP,
    SKYCUBE_ENGINES,
    fast_extended_skyline,
    fast_skycube,
    fast_skyline,
    label_prefilter,
)
from repro.engine.parallel import ParallelExecutor, SharedDataset

__all__ = [
    "fast_skyline",
    "fast_extended_skyline",
    "fast_skycube",
    "label_prefilter",
    "SKYCUBE_ENGINES",
    "ENGINE_HELP",
    "ParallelExecutor",
    "SharedDataset",
]
