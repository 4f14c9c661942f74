"""The ``build`` workload: interleaved ``fast_skycube`` builds of two classes.

The builds run in a child process (``build_worker.py``) so that the
process whose set-up and memory are measured is the program alone.
Set-up is timed from spawn to the worker's ``ready`` line, over several
spawns; the last spawn then runs the timed phase.  Answers are checked
here, against ``fast_skyline`` in this process.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from typing import Any, Dict, List

import numpy as np

import workloads as wl
from common import HERE, ROOT, SetupError, median, program_env, workdir
from wire import Lines

SETUPS = 3


def _spawn(work, seed: int, seconds: float, trace: int) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(HERE / "build_worker.py"), "--work", str(work),
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, env=program_env(), stdin=subprocess.PIPE,
        stdout=subprocess.PIPE, bufsize=0,
    )


def _tell(proc: subprocess.Popen, word: str) -> None:
    assert proc.stdin is not None
    proc.stdin.write(f"{word}\n".encode())
    proc.stdin.close()


def run(seed: int, seconds: float, trace: int) -> Dict[str, Any]:
    work = workdir(f"build-{seed}")
    data = wl.build_datasets(seed)
    for cls, rows in data.items():
        np.save(work / f"{cls}.npy", rows)

    setups: List[float] = []
    proc = None
    try:
        for i in range(SETUPS):
            started = time.perf_counter()
            proc = _spawn(work, seed, seconds, trace)
            lines = Lines(proc)
            lines.wait_for("ready", 300)
            setups.append(time.perf_counter() - started)
            if i < SETUPS - 1:
                _tell(proc, "quit")
                if proc.wait(60) != 0:
                    raise SetupError(f"build worker exited {proc.returncode}")
        _tell(proc, "go")
        output = lines.rest(timeout=seconds + 150)
        if proc.wait(30) != 0:
            raise SetupError(f"build worker exited {proc.returncode}")
    finally:
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait()
    result = json.loads(output[-1])
    problems = check(data, result)
    builds = result["build_ms"]
    counts = {cls: len(builds[cls]) for cls in builds}
    summary = {
        "setup_s": median(setups),
        "rss_mb": result["rss_mb"],
        "corr_build_ms": median(builds["corr"]),
        "anti_build_ms": median(builds["anti"]),
        "builds_per_s": sum(counts.values()) / (sum(sum(v) for v in builds.values()) / 1e3),
    }
    return {
        "summary": summary,
        "samples": {"setup_s": setups, **{f"{c}_build_ms": builds[c] for c in builds}},
        "attempted": sum(counts.values()) + result["traced_builds"] + len(setups) * len(data),
        "failed": 0,
        "per_class": {cls: {"attempted": n, "ok": n, "failed": {}} for cls, n in counts.items()},
        "problems": problems,
        "layers": result.get("layers", {}),
        "breakdown": result.get("breakdown", {}),
        "missing": result.get("missing", []),
    }


def check(data: Dict[str, np.ndarray], result: Dict[str, Any]) -> List[str]:
    """Each class's cube answers sampled subspaces as ``fast_skyline``."""
    from repro import fast_skyline

    problems = [] if result["consistent"] else ["builds of one class disagree"]
    for cls, answers in result["answers"].items():
        for delta, ids in answers.items():
            want = [int(i) for i in fast_skyline(data[cls], int(delta))]
            if sorted(ids) != want:
                problems.append(f"{cls} cube, subspace {delta}: wrong answer")
    if set(result["answers"]) != set(data):
        problems.append("a class built no cube")
    return problems
