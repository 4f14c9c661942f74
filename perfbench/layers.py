"""Benchmark-side spans around the program's layer entry points.

The traced run adds no code to the program.  Instead it swaps a few
public functions for thin wrappers that record a span around each call,
for the duration of a ``with Wrapped(...)`` block, and restores them
afterwards.  A target a later version of the program no longer has is
listed in ``Spans.missing`` and its metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
from typing import Any, Callable, Dict, List, Optional, Tuple

from common import Spans, median

#: span name -> (module, attribute path, counts from (args, result))
Counter = Optional[Callable[[tuple, Any], Dict[str, float]]]


def _rows_out(args: tuple, result: Any) -> Dict[str, float]:
    return {"rows_in": len(args[0]), "rows_out": len(result)}


def _sweep_rows(args: tuple, result: Any) -> Dict[str, float]:
    return {"rows": len(result)}


def _victims(args: tuple, result: Any) -> Dict[str, float]:
    return {"victims": len(args[1]), "survivors": len(args[2])}


def _changed(args: tuple, result: Any) -> Dict[str, float]:
    removed = args[1] if len(args) > 1 else ()
    return {"changed": len(args[0]), "removed": len(tuple(removed))}


#: Every layer boundary the benchmark can wrap.
TARGETS: Dict[str, Tuple[str, str, Counter]] = {
    # The S+ filter: fast_skycube and the maintainer bootstrap both
    # look it up through this module attribute at call time.
    "kernels.splus": ("repro.engine.kernels", "fast_extended_skyline", _rows_out),
    # The packed sweep proper (every PackedSweep, whoever built it).
    "packed.sweep": ("repro.engine.packed", "PackedSweep.range_masks", _sweep_rows),
    "hashcube.from_masks": ("repro.core.hashcube", "HashCube.from_masks", None),
    "delta.recompute": ("repro.engine.delta", "recompute_rows", _victims),
    "hashcube.with_updates": ("repro.core.hashcube", "HashCube.with_updates", _changed),
}


#: The three layers of a ``fast_skycube`` build.
BUILD_LAYERS = ["kernels.splus", "packed.sweep", "hashcube.from_masks"]


class Wrapped:
    """Context manager installing span wrappers on the named targets."""

    def __init__(self, spans: Spans, names: List[str]) -> None:
        self.spans = spans
        self.names = names
        self._undo: List[Tuple[Any, str, Any]] = []

    def __enter__(self) -> "Wrapped":
        for name in self.names:
            module_name, path, counter = TARGETS[name]
            try:
                owner: Any = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                if name not in self.spans.missing:
                    self.spans.missing.append(name)
                continue
            self._undo.append((owner, attr, raw))
            setattr(owner, attr, self._wrap(name, raw, counter))
        return self

    def _wrap(self, name: str, raw: Any, counter: Counter) -> Any:
        spans = self.spans
        is_classmethod = isinstance(raw, classmethod)
        func = raw.__func__ if is_classmethod else raw
        # Counters see the call's arguments without ``self``/``cls``.
        skip = 1 if "." in TARGETS[name][1] else 0

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            with spans.span(name) as record:
                result = func(*args, **kwargs)
                if counter is not None:
                    record["counts"].update(counter(args[skip:], result))
                return result

        return classmethod(wrapper) if is_classmethod else wrapper

    def __exit__(self, *exc_info: object) -> None:
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()


def build_layer_metrics(spans: Spans, suffix: str, cube) -> Dict[str, float]:
    """Layer numbers of the ``build.<suffix>`` root spans: per layer, the
    median over those builds of its summed duration inside one build;
    |S+| from the filter's counts; the built cube's size; and the median
    part of a build no layer span covers."""
    root_name = f"build.{suffix}"
    per_build: Dict[int, Dict[str, float]] = {}
    rows = 0.0
    for index, record in enumerate(spans.records):
        root = index
        while spans.records[root]["parent"] is not None:
            root = spans.records[root]["parent"]  # type: ignore[assignment]
        if root == index or spans.records[root]["name"] != root_name:
            continue
        layers = per_build.setdefault(root, {})
        name = str(record["name"])
        layers[name] = layers.get(name, 0.0) + 1e3 * (record["end"] - record["start"])  # type: ignore[operator]
        if name == "kernels.splus":
            rows = float(record["counts"]["rows_out"])  # type: ignore[index]

    def ms(name: str) -> float:
        values = [layers[name] for layers in per_build.values() if name in layers]
        return median(values) if values else 0.0

    return {
        f"kernels.splus_ms.{suffix}": ms("kernels.splus"),
        f"kernels.splus_rows.{suffix}": rows,
        f"packed.sweep_ms.{suffix}": ms("packed.sweep"),
        f"hashcube.from_masks_ms.{suffix}": ms("hashcube.from_masks"),
        f"hashcube.bytes.{suffix}": float(cube.memory_bytes()),
        f"build.unattributed_ms.{suffix}":
            spans.breakdown().get(root_name, {}).get("unattributed", 0.0),
    }
