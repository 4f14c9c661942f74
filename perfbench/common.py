"""Shared plumbing: where the program lives, statistics, spans, env block."""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"


class SetupError(Exception):
    """The checkout cannot run the benchmark (no program, no port...)."""


def require_program() -> None:
    """Fail unless this checkout holds the program's sources."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SetupError(f"no program sources at {SRC}/repro")


def program_env() -> Dict[str, str]:
    """Environment for every process that runs the program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.setdefault("PYTHONHASHSEED", "0")
    return env


def import_program():
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    require_program()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SetupError(f"imported repro from {repro.__file__}, not {SRC}")
    return repro


def warm_imports() -> None:
    """Throwaway import of everything the program will load.

    Byte-compiling ``src`` and filling the page cache would otherwise
    land in the first run's ``setup_s`` only.
    """
    subprocess.run(
        [sys.executable, "-c",
         "import repro, repro.serve, repro.engine.delta, repro.query.dynamic, "
         "repro.__main__"],
        env=program_env(), cwd=ROOT, check=True, timeout=120,
    )


def workdir(name: str) -> Path:
    path = WORK / name
    path.mkdir(parents=True, exist_ok=True)
    return path


# -- statistics ------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no samples")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def percentile(values: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    pos = fraction * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def beyond(count: int, fraction: float) -> int:
    """Samples that lie beyond the ``fraction`` percentile."""
    return int(count * (1.0 - fraction))


# -- spans -----------------------------------------------------------------


class Spans:
    """In-memory span recorder for the traced run.

    A span has a name, a start, an end, its parent span and optional
    counts.  Spans are appended to a list and written once, at the end
    of the run.  Self time is a span's duration minus its children's;
    children run nested on one thread, so their durations simply add.
    """

    def __init__(self) -> None:
        self.records: List[Dict[str, object]] = []
        self._stack: List[int] = []
        #: Wrapped entry points the program under test does not have.
        self.missing: List[str] = []

    @contextmanager
    def span(self, name: str, **counts: float) -> Iterator[Dict[str, object]]:
        record: Dict[str, object] = {
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "counts": dict(counts),
        }
        index = len(self.records)
        self.records.append(record)
        self._stack.append(index)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def durations(self, name: str) -> List[float]:
        return [
            1e3 * (r["end"] - r["start"])  # type: ignore[operator]
            for r in self.records if r["name"] == name
        ]

    def self_ms(self) -> List[float]:
        """Self time of every record, in record order."""
        own = [1e3 * (r["end"] - r["start"]) for r in self.records]  # type: ignore[operator]
        for r in self.records:
            parent = r["parent"]
            if parent is not None:
                own[parent] -= 1e3 * (r["end"] - r["start"])  # type: ignore[operator]
        return own

    def breakdown(self) -> Dict[str, Dict[str, float]]:
        """Per root-span name: the median, over its instances, of each
        layer's summed self time inside it.  The root's own self time is
        the part no layer span covers (``unattributed``)."""
        own = self.self_ms()
        per_root: Dict[int, Dict[str, float]] = {}
        for index, record in enumerate(self.records):
            root = index
            while self.records[root]["parent"] is not None:
                root = self.records[root]["parent"]  # type: ignore[assignment]
            name = "unattributed" if root == index else str(record["name"])
            layers = per_root.setdefault(root, {})
            layers[name] = layers.get(name, 0.0) + own[index]
        grouped: Dict[str, List[Dict[str, float]]] = {}
        for root, layers in per_root.items():
            grouped.setdefault(str(self.records[root]["name"]), []).append(layers)
        out: Dict[str, Dict[str, float]] = {}
        for name, instances in grouped.items():
            keys = sorted({key for layers in instances for key in layers})
            out[name] = {
                key: median([layers.get(key, 0.0) for layers in instances])
                for key in keys
            }
        return out

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for record in self.records:
                out.write(json.dumps(record) + "\n")


# -- result ----------------------------------------------------------------


def env_block(seed: int, server_argv: Optional[List[str]] = None) -> Dict[str, object]:
    import numpy

    probe = subprocess.run(
        [sys.executable, "-m", "repro", "backends", "--json"],
        env=program_env(), cwd=ROOT, capture_output=True, text=True,
        timeout=60,
    )
    try:
        backends = json.loads(probe.stdout)
    except ValueError:
        backends = {"error": probe.stderr.strip()[-500:]}
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backends": backends,
        "seed": seed,
        "server_argv": server_argv,
    }


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}
