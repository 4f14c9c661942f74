"""Optional compiled kernel backends behind one protocol.

See :mod:`repro.engine.jit.base` for the protocol and
:mod:`repro.engine.jit.registry` for probing/selection.  Importing this
package never imports numba — the compiled module loads lazily, after
its availability probe succeeds.
"""

from repro.engine.jit.base import (
    BackendProbe,
    BackendUnavailableError,
    KernelBackend,
)
from repro.engine.jit.registry import (
    BACKEND_CHOICES,
    BACKEND_HELP,
    KERNEL_BACKENDS,
    clear_backend_cache,
    get_backend,
    probe_backends,
    resolve_backend,
)

__all__ = [
    "BackendProbe",
    "BackendUnavailableError",
    "KernelBackend",
    "KERNEL_BACKENDS",
    "BACKEND_CHOICES",
    "BACKEND_HELP",
    "clear_backend_cache",
    "get_backend",
    "probe_backends",
    "resolve_backend",
]
