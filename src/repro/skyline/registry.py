"""Default hook registry: architecture → skyline algorithm.

The templates are architecture-oblivious by construction (Section 4.1);
the knowledge of *which* concrete algorithm fills a hook on a given
architecture lives here, not in the template modules.  skylint's
SKY002 enforces that split: template code asks this registry for a
default instead of importing GPU-only classes directly.
"""

from __future__ import annotations

from typing import Dict, Tuple, Type

from repro.skyline.base import SkylineAlgorithm
from repro.skyline.hybrid import Hybrid
from repro.skyline.skyalign import SkyAlign

__all__ = ["DEFAULT_HOOKS", "default_hook"]

#: ``(architecture, needs_parallel) -> default algorithm class``.  The
#: paper's choices: Hybrid on CPU either way (run single-threaded it is
#: the STSC hook, Section 5.1; its tiles are SDSC's intra-cuboid
#: subtasks), SkyAlign on GPU (Section 6.1).  There is deliberately no
#: ``("gpu", False)`` entry — no single-threaded GPU algorithm exists,
#: which the paper names as STSC's clear weakness.
DEFAULT_HOOKS: Dict[Tuple[str, bool], Type[SkylineAlgorithm]] = {
    ("cpu", False): Hybrid,
    ("cpu", True): Hybrid,
    ("gpu", True): SkyAlign,
}


def default_hook(architecture: str, parallel: bool = False) -> SkylineAlgorithm:
    """The paper's default hook instance for an architecture.

    ``parallel=True`` requests a device-parallel algorithm (an SDSC or
    MDMC setup hook); ``parallel=False`` accepts the architecture's
    default regardless of threading.  Raises :class:`LookupError` when
    no such algorithm exists (single-threaded GPU).  The GPU hook is the
    instrumented :class:`~repro.skyline.skyalign.SkyAlign`, whose
    operation counts drive the simulated device.
    """
    try:
        algorithm = DEFAULT_HOOKS[(architecture, parallel)]
    except KeyError:
        raise LookupError(
            f"no default {'parallel ' if parallel else ''}skyline "
            f"algorithm for architecture {architecture!r}"
        ) from None
    return algorithm()
