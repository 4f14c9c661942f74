"""Skyline algorithms: baselines and template hook implementations."""

from repro.skyline.apskyline import APSkyline
from repro.skyline.base import SkylineAlgorithm, SkylineResult
from repro.skyline.bnl import BlockNestedLoops
from repro.skyline.bskytree import BSkyTree
from repro.skyline.gpu_baselines import GGS, GNL
from repro.skyline.hybrid import Hybrid
from repro.skyline.osp import OSP
from repro.skyline.pskyline import PSkyline
from repro.skyline.registry import DEFAULT_HOOKS, default_hook
from repro.skyline.scalagon import Scalagon
from repro.skyline.sfs import SortFilterSkyline
from repro.skyline.skyalign import SkyAlign
from repro.skyline.vmpsp import VMPSP

__all__ = [
    "SkylineAlgorithm",
    "SkylineResult",
    "BlockNestedLoops",
    "SortFilterSkyline",
    "PSkyline",
    "APSkyline",
    "Scalagon",
    "BSkyTree",
    "OSP",
    "VMPSP",
    "Hybrid",
    "SkyAlign",
    "GNL",
    "GGS",
    "ALGORITHMS",
    "DEFAULT_HOOKS",
    "default_hook",
]

#: Registry of all skyline algorithm classes by name.
ALGORITHMS = {
    algorithm.name: algorithm
    for algorithm in (
        BlockNestedLoops,
        SortFilterSkyline,
        PSkyline,
        APSkyline,
        Scalagon,
        BSkyTree,
        OSP,
        VMPSP,
        Hybrid,
        SkyAlign,
        GNL,
        GGS,
    )
}
