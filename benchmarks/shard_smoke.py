"""End-to-end smoke test for ``python -m repro serve --shards N``.

Not a pytest module: this is the CI ``shard-smoke`` job's driver (and
``make shard-smoke`` locally).  It exercises the real sharded
deployment path — a coordinator *process* with two real shard worker
processes behind it, a real TCP socket, a real SIGTERM:

1. generate a dataset and start ``python -m repro serve --shards 2
   --partitioner grid`` with the jsonl tracer on, parsing the
   readiness banner for the bound port (and requiring the banner to
   name the shard layout);
2. require bit-identity: the served skyline of every probed subspace
   must equal the local single-process reference answer, and
   membership/top-k answers must match too;
3. check ``ping`` reports the shard layout and ``metrics`` embeds the
   per-shard liveness;
4. send SIGTERM and require a clean drain (exit 0, "drained, bye");
5. run ``python -m repro trace analyze`` over the trace and require
   the stitched fan-out: per-shard compute spans, merge barriers with
   straggler attribution, zero InternalError or unclassified failures.

Exit status 0 means the whole sharded path works end to end.
"""

import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
)

import numpy as np  # noqa: E402

from repro.serve import ServeClient, ServingSnapshot  # noqa: E402

SHARDS = 2
QUERIES = 120
READY_PATTERN = re.compile(r"listening on [\d.]+:(\d+)")


def start_server(dataset, trace_path):
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", dataset,
         "--shards", str(SHARDS), "--partitioner", "grid",
         "--port", "0", "--window-ms", "2", "--trace", trace_path],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env={**os.environ, "PYTHONPATH": "src"},
    )
    banner_ok = False
    deadline = time.time() + 60
    while time.time() < deadline:
        line = process.stdout.readline()
        if not line:
            raise AssertionError(f"server exited early: {process.poll()}")
        sys.stdout.write(f"[server] {line}")
        if f"shards={SHARDS}" in line and "partitioner=grid" in line:
            banner_ok = True
        match = READY_PATTERN.search(line)
        if match:
            assert banner_ok, "readiness before the shard banner"
            return process, int(match.group(1))
    raise AssertionError("server never announced readiness")


def drive_queries(port, data, reference):
    n, d = data.shape
    full = (1 << d) - 1
    with ServeClient("127.0.0.1", port, timeout=30.0) as client:
        info = client.ping()
        assert info["shards"] == SHARDS, info
        assert info["alive"] == SHARDS, info
        assert info["partitioner"] == "grid", info
        assert info["n"] == n and info["d"] == d, info
        for i in range(QUERIES):
            kind = i % 10
            if kind < 4:
                delta = (full >> (i % d)) or 1
                assert client.skyline(delta) == list(
                    reference.skyline(delta)
                ), f"skyline mismatch at delta={delta:#b}"
            elif kind < 7:
                pid = (i * 13) % n
                assert client.membership(pid, full) == (
                    reference.membership(pid, full)
                ), f"membership mismatch at pid={pid}"
            else:
                q = [float((i * 7) % 50)] * d
                assert client.topk_dynamic(q, k=5) == (
                    reference.topk_dynamic(q, 5, None)
                ), f"topk mismatch at q={q[0]}"
        metrics = client.metrics()
    return metrics


def analyze_trace(trace_path):
    result = subprocess.run(
        [sys.executable, "-m", "repro", "trace", "analyze", trace_path,
         "--json", "--fail-on", "InternalError,unclassified"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": "src"},
    )
    sys.stdout.write(result.stdout)
    sys.stderr.write(result.stderr)
    assert result.returncode == 0, "trace analyze gated on failures"
    report = json.loads(result.stdout)
    spans = report["shard_compute_ms"]
    assert sorted(spans) == [str(s) for s in range(SHARDS)], (
        f"expected compute spans for every shard, got {sorted(spans)}"
    )
    barriers = report["merge_barriers"]
    assert barriers["merges"] >= 1, barriers
    attributed = sum(barriers["stragglers"].values())
    assert attributed == barriers["merges"], barriers
    assert report["unclassified"] == 0, report
    print(
        f"shard-smoke: {barriers['merges']} merge barriers, "
        f"stragglers {barriers['stragglers']}, "
        f"spans for shards {sorted(spans)}"
    )


def main():
    with tempfile.TemporaryDirectory() as tmp:
        dataset = os.path.join(tmp, "smoke.npy")
        trace_path = os.path.join(tmp, "trace.jsonl")
        subprocess.run(
            [sys.executable, "-m", "repro", "generate", "anticorrelated",
             "1500", "5", "--seed", "11", "--out", dataset],
            check=True,
            env={**os.environ, "PYTHONPATH": "src"},
        )
        data = np.load(dataset)
        reference = ServingSnapshot.build(data, engine="packed-filtered")
        process, port = start_server(dataset, trace_path)
        try:
            metrics = drive_queries(port, data, reference)
            total = sum(metrics["requests"].values())
            assert total >= QUERIES, metrics["requests"]
            assert metrics["shards"]["alive"] == [True] * SHARDS, (
                metrics["shards"]
            )
            print(
                f"shard-smoke: {total} requests, bit-identical answers, "
                f"mean batch {metrics['mean_batch_size']:.2f}"
            )
        finally:
            process.send_signal(signal.SIGTERM)
            try:
                remainder, _ = process.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                process.kill()
                raise AssertionError("server did not drain within 30s")
        sys.stdout.write(
            "".join(f"[server] {l}\n" for l in remainder.splitlines())
        )
        assert process.returncode == 0, f"exited {process.returncode}"
        assert "drained, bye" in remainder, remainder
        print("shard-smoke: clean SIGTERM drain, exit 0")
        analyze_trace(trace_path)


if __name__ == "__main__":
    main()
