"""Backend selection: probing, strict/graceful resolution, ``auto``.

The registry is deliberately two-stage.  *Probes* are cheap import
checks that never load the compiled module's kernels (a failed
``import numba`` must cost microseconds, not a traceback deep in a
sweep); only a successful probe imports the backend module and
instantiates its :class:`~repro.engine.jit.base.KernelBackend`.  That
keeps ``import repro`` numpy-only by construction — skylint's SKY701
pins every top-level ``numba`` import inside this package.

Resolution semantics, in one place for every knob that selects a
backend (``fast_skycube(backend=)``, ``--backend``, ``[engine]
backend``):

* ``None`` → numpy (zero behaviour change for existing callers);
* ``"auto"`` → the fastest available backend (numba > numpy);
* an explicit unavailable name → graceful mode warns once per process
  and degrades to numpy (bit-identical, so degradation is safe);
  strict mode raises :class:`~repro.engine.jit.base.
  BackendUnavailableError` naming the missing extra.
"""

from __future__ import annotations

import importlib
import warnings
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.engine.jit.base import (
    BackendProbe,
    BackendUnavailableError,
    KernelBackend,
)

__all__ = [
    "KERNEL_BACKENDS",
    "BACKEND_CHOICES",
    "BACKEND_HELP",
    "clear_backend_cache",
    "get_backend",
    "probe_backends",
    "resolve_backend",
]

#: The registered backend names, reference first.  The single source of
#: truth for every ``--backend`` CLI knob and profile validator.
KERNEL_BACKENDS: Tuple[str, ...] = ("numpy", "numba")

#: What selection knobs accept: an explicit backend or ``"auto"``.
BACKEND_CHOICES: Tuple[str, ...] = ("auto",) + KERNEL_BACKENDS

#: Shared ``--backend`` help text for the CLI entry points.
BACKEND_HELP = (
    "packed-kernel backend: 'numpy' (stdlib default, always available), "
    "'numba' (@njit parallel CPU kernels, pip install 'repro[accel]'), "
    "or 'auto' (fastest available); both backends produce bit-identical "
    "results, and an unavailable choice degrades gracefully to numpy "
    "with a warning"
)

#: ``auto`` preference order among the probed-available backends.
_AUTO_ORDER: Tuple[str, ...] = ("numba", "numpy")


def _probe_numpy() -> str:
    import numpy

    return f"numpy {numpy.__version__} (built-in default, always available)"


def _probe_numba() -> str:
    import numba

    if not hasattr(numba, "njit"):
        raise RuntimeError("numba is importable but exposes no njit")
    return f"numba {numba.__version__} (@njit parallel CPU kernels)"


@dataclass(frozen=True)
class _BackendSpec:
    """How to probe and (on success) load one backend."""

    name: str
    requires: str
    module: str
    attribute: str
    probe: Callable[[], str]


_SPECS: Dict[str, _BackendSpec] = {
    "numpy": _BackendSpec(
        name="numpy",
        requires="",
        module="repro.engine.jit.numpy_backend",
        attribute="NumpyBackend",
        probe=_probe_numpy,
    ),
    "numba": _BackendSpec(
        name="numba",
        requires="install the accel extra: pip install 'repro[accel]'",
        module="repro.engine.jit.numba_backend",
        attribute="NumbaBackend",
        probe=_probe_numba,
    ),
}

_PROBES: Dict[str, BackendProbe] = {}
_INSTANCES: Dict[str, KernelBackend] = {}
_WARNED: Set[str] = set()


def clear_backend_cache() -> None:
    """Forget probe results and instances (tests monkeypatch imports)."""
    _PROBES.clear()
    _INSTANCES.clear()
    _WARNED.clear()


def _unknown(name: str) -> ValueError:
    import difflib

    matches = difflib.get_close_matches(name, list(BACKEND_CHOICES), n=1)
    hint = f" (did you mean {matches[0]!r}?)" if matches else ""
    return ValueError(
        f"unknown kernel backend {name!r}{hint}; "
        f"choose from {BACKEND_CHOICES}"
    )


def probe_backend(name: str, refresh: bool = False) -> BackendProbe:
    """Availability of one backend, cached per process."""
    spec = _SPECS.get(name)
    if spec is None:
        raise _unknown(name)
    probe = _PROBES.get(name)
    if probe is None or refresh:
        try:
            detail = spec.probe()
        except Exception as exc:
            detail = f"{exc}" + (f" — {spec.requires}" if spec.requires else "")
            probe = BackendProbe(spec.name, False, detail)
        else:
            probe = BackendProbe(spec.name, True, detail)
        _PROBES[name] = probe
    return probe


def probe_backends(refresh: bool = False) -> List[BackendProbe]:
    """Probe every registered backend, in registry order."""
    return [probe_backend(name, refresh=refresh) for name in KERNEL_BACKENDS]


def get_backend(name: str) -> KernelBackend:
    """The backend instance for ``name``; raises when unavailable.

    Importing the backend module happens here, after (and only after)
    its probe succeeds — an unavailable backend never triggers the
    heavyweight import.
    """
    spec = _SPECS.get(name)
    if spec is None:
        raise _unknown(name)
    instance = _INSTANCES.get(name)
    if instance is not None:
        return instance
    probe = probe_backend(name)
    if not probe.available:
        raise BackendUnavailableError(
            spec.name, probe.detail, spec.requires or "no install hint"
        )
    module = importlib.import_module(spec.module)
    instance = getattr(module, spec.attribute)()
    _INSTANCES[name] = instance
    return instance


def resolve_backend(
    name: Optional[str], strict: bool = False
) -> KernelBackend:
    """Resolve a selection knob's value to a live backend.

    ``None`` and ``"numpy"`` short-circuit to the reference backend;
    ``"auto"`` picks the fastest probed-available one.  An explicit,
    unavailable name degrades to numpy with a one-per-process
    :class:`RuntimeWarning` (results are bit-identical across backends,
    so the degradation is behaviour-preserving) — unless ``strict``,
    which raises the typed error naming the missing extra instead.
    """
    if name is None or name == "numpy":
        return get_backend("numpy")
    if name == "auto":
        for candidate in _AUTO_ORDER:
            if probe_backend(candidate).available:
                return get_backend(candidate)
        return get_backend("numpy")
    if name not in _SPECS:
        raise _unknown(name)
    probe = probe_backend(name)
    if probe.available:
        return get_backend(name)
    if strict:
        raise BackendUnavailableError(
            name, probe.detail, _SPECS[name].requires or "no install hint"
        )
    if name not in _WARNED:
        _WARNED.add(name)
        warnings.warn(
            f"kernel backend {name!r} is unavailable ({probe.detail}); "
            "falling back to the numpy backend (results are bit-identical)",
            RuntimeWarning,
            stacklevel=2,
        )
    return get_backend("numpy")
