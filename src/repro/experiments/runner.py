"""Shared materialisation cache for the experiment suite.

Building a skycube run is by far the dominant cost of an experiment
(pure Python at thousands of points); simulating it on a device
configuration is cheap.  Every figure/table module therefore obtains
runs through :func:`build_run`, which memoises per
``(algorithm, distribution, n, d, seed, max_level)`` for the lifetime
of the process — one pytest session reuses runs across all benchmark
files.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, Optional

import numpy as np

if TYPE_CHECKING:
    from repro.config import Profile

from repro.data.generator import generate
from repro.data.realistic import load_real
from repro.skycube import (
    BottomUpSkycube,
    DistributedSkycube,
    PQSkycube,
    QSkycube,
)
from repro.skycube.base import SkycubeRun
from repro.templates import MDMC, SDSC, STSC

__all__ = ["build_run", "build_real_run", "ALGORITHM_KEYS"]

ALGORITHM_KEYS = (
    "qskycube",
    "pqskycube",
    "bottomup",
    "distributed",
    "stsc",
    "sdsc-cpu",
    "sdsc-gpu",
    "mdmc-cpu",
    "mdmc-gpu",
)


def _builder(
    key: str,
    executor: str = "serial",
    workers: Optional[int] = None,
    engine: Optional[str] = None,
):
    if engine is not None and not key.startswith("mdmc"):
        raise ValueError(
            f"engine={engine!r} only applies to the point-bitmask "
            f"template (mdmc), not {key!r}"
        )
    if key == "stsc":
        return STSC(executor=executor, workers=workers)
    if key.startswith("sdsc"):
        return SDSC(key.split("-", 1)[1], executor=executor, workers=workers)
    if key.startswith("mdmc"):
        return MDMC(
            key.split("-", 1)[1],
            executor=executor,
            workers=workers,
            engine=engine,
        )
    if executor != "serial":
        raise ValueError(
            f"executor={executor!r} only applies to the template "
            f"algorithms (stsc/sdsc/mdmc), not {key!r}"
        )
    if key == "qskycube":
        return QSkycube()
    if key == "pqskycube":
        return PQSkycube()
    if key == "bottomup":
        return BottomUpSkycube()
    if key == "distributed":
        return DistributedSkycube()
    raise KeyError(f"unknown algorithm key {key!r}; known: {ALGORITHM_KEYS}")


@lru_cache(maxsize=None)
def build_run(
    algorithm: str,
    distribution: str,
    n: int,
    d: int,
    seed: int = 0,
    max_level: Optional[int] = None,
    executor: Optional[str] = None,
    workers: Optional[int] = None,
    engine: Optional[str] = None,
    profile: Optional["Profile"] = None,
) -> SkycubeRun:
    """Materialise (once) the named algorithm on a synthetic workload.

    ``profile`` (a frozen :class:`repro.config.Profile`, so the memo
    key stays hashable) supplies the ``[engine]`` knobs for
    any of ``executor``/``workers``/``engine`` left as ``None`` —
    explicit arguments always win, mirroring the serve CLI's
    flag-beats-profile precedence.  All three knobs use a ``None``
    sentinel so an *explicit* ``executor="serial"`` beats a profile
    that says ``"process"`` (it used to be indistinguishable from the
    default and silently lose).  Its ``[filter]`` gates are applied
    before materialisation.
    """
    if profile is not None:
        from repro.config import apply_filter_gates

        apply_filter_gates(profile)
        if executor is None:
            executor = profile.engine.executor
        if workers is None:
            workers = profile.engine.workers
        if engine is None:
            engine = profile.engine.engine
    if executor is None:
        executor = "serial"
    data = generate(distribution, n, d, seed=seed)
    return _builder(algorithm, executor, workers, engine).materialise(
        data, max_level=max_level
    )


@lru_cache(maxsize=None)
def build_real_run(
    algorithm: str,
    dataset: str,
    scale: float,
    seed: int = 0,
    max_dims: Optional[int] = None,
) -> SkycubeRun:
    """Materialise (once) the named algorithm on a real-data stand-in.

    ``max_dims`` truncates the widest datasets (WE has d=15; a
    32767-cuboid lattice is out of pure-Python reach — the truncation
    is recorded in EXPERIMENTS.md).
    """
    data = load_real(dataset, scale=scale, seed=seed)
    if max_dims is not None and data.shape[1] > max_dims:
        data = np.ascontiguousarray(data[:, :max_dims])
    return _builder(algorithm).materialise(data)
