"""End-to-end smoke test for the live write path of ``python -m repro serve``.

Not a pytest module: this is the CI ``live-smoke`` job's driver (and
``make live-smoke`` locally).  Where ``serve_smoke.py`` sprinkles a few
mutations into a read-heavy stream, this driver hammers the *delta
publish* machinery specifically — a real server process, a real TCP
socket, concurrent writers and readers:

1. generate an anticorrelated dataset and start ``python -m repro
   serve --live --trace PATH --compact-every 16`` on an ephemeral port
   (a small compaction interval so the smoke run crosses several
   rebuild boundaries);
2. run one mutator thread (insert a touch-up copy of a live point /
   delete one of its own inserts / delete a bootstrap full-space
   skyline point, through its own client connection) concurrently
   with two reader threads (skylines, memberships, ``skyline_diff``
   probes against versions the mutator has already published),
   requiring zero untyped failures.  The skyline deletes are the ones
   no surviving point covers, so they drive the delete's re-verify;
3. after the mutator has deleted every point it inserted, require every
   probed skyline to equal ``fast_skyline`` over the surviving rows,
   and ``skyline_diff`` over the whole mutation interval to equal the
   difference of the bootstrap and final reference skylines — the
   touch-up inserts and deletes must cancel exactly;
4. check the metrics endpoint saw at least one snapshot publish per
   mutation, send SIGTERM, and require a clean drain;
5. leave the jsonl trace on disk for the taxonomy gate
   (``python -m repro trace analyze --fail-on
   InternalError,unclassified`` — run as the job's next step).

Exit status 0 means the whole live path works; any assertion kills the
job.
"""

import argparse
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
)

import numpy as np  # noqa: E402

from repro import fast_skyline  # noqa: E402
from repro.serve import ServeClient, ServeError  # noqa: E402

MUTATIONS = 40
#: Every fourth mutation deletes a bootstrap full-space skyline point.
SKYLINE_DELETES = MUTATIONS // 4
READS_PER_THREAD = 150
READY_PATTERN = re.compile(r"listening on [\d.]+:(\d+)")


def start_server(dataset, trace_path):
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", dataset,
         "--port", "0", "--window-ms", "2", "--live",
         "--compact-every", "16", "--trace", trace_path],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env={**os.environ, "PYTHONPATH": "src"},
    )
    deadline = time.time() + 60
    while time.time() < deadline:
        line = process.stdout.readline()
        if not line:
            raise AssertionError(f"server exited early: {process.poll()}")
        sys.stdout.write(f"[server] {line}")
        match = READY_PATTERN.search(line)
        if match:
            return process, int(match.group(1))
    raise AssertionError("server never announced readiness")


class Mutator(threading.Thread):
    """Insert touch-up copies of live points, delete them again, and
    delete the given bootstrap skyline points for good.

    Records every published version; the versions must be strictly
    increasing (one publish per mutation, in submission order on this
    single connection).
    """

    def __init__(self, port, d, n, doomed):
        super().__init__(name="mutator")
        self.port, self.d, self.n = port, d, n
        self.doomed = doomed
        self.versions = []
        self.errors = []

    def run(self):
        try:
            with ServeClient("127.0.0.1", self.port, timeout=30.0) as client:
                own = []
                doomed = list(self.doomed)
                for i in range(MUTATIONS):
                    if doomed and i % 4 == 3:
                        version = client.delete(doomed.pop())
                    elif own and i % 2:
                        version = client.delete(own.pop())
                    else:
                        response = client.request(
                            "insert", point=[0.25 + 0.5 * (i % 3)] * self.d
                        )
                        own.append(int(response["result"]["point_id"]))
                        version = int(response["snapshot_version"])
                    self.versions.append(version)
                while own:  # leave the dataset exactly as we found it
                    self.versions.append(client.delete(own.pop()))
        except Exception as error:  # noqa: BLE001 - smoke driver
            self.errors.append(repr(error))


class Reader(threading.Thread):
    """Skylines, memberships and diff probes against published versions."""

    def __init__(self, port, d, n, seed, mutator):
        super().__init__(name=f"reader-{seed}")
        self.port, self.d, self.n = port, d, n
        self.seed = seed
        self.mutator = mutator
        self.errors = []
        self.reads = 0

    def run(self):
        full = (1 << self.d) - 1
        try:
            with ServeClient("127.0.0.1", self.port, timeout=30.0) as client:
                for i in range(READS_PER_THREAD):
                    kind = (i + self.seed) % 4
                    try:
                        if kind == 0:
                            client.skyline((full >> (i % self.d)) or 1)
                        elif kind == 1:
                            client.membership(i % self.n, full)
                        elif kind == 2:
                            client.topk_dynamic([0.5] * self.d, k=5)
                        else:
                            versions = self.mutator.versions
                            if len(versions) >= 2:
                                client.skyline_diff(
                                    full, versions[0], versions[-1]
                                )
                        self.reads += 1
                    except ServeError as error:
                        # NotFound: membership of an id a racing delete
                        # removed.  Everything else is a failure.
                        if error.error_type != "NotFound":
                            self.errors.append((i, str(error)))
        except Exception as error:  # noqa: BLE001 - smoke driver
            self.errors.append(("connection", repr(error)))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--trace", metavar="PATH", default="live-smoke.jsonl",
        help="jsonl execution trace path (gated by `trace analyze`)",
    )
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        dataset = os.path.join(tmp, "live-smoke.npy")
        subprocess.run(
            [sys.executable, "-m", "repro", "generate", "anticorrelated",
             "1500", "5", "--seed", "13", "--out", dataset],
            check=True,
            env={**os.environ, "PYTHONPATH": "src"},
        )
        data = np.load(dataset)
        process, port = start_server(dataset, args.trace)
        try:
            with ServeClient("127.0.0.1", port, timeout=30.0) as client:
                info = client.ping()
                d, n = info["d"], info["n"]
                probes = (1, (1 << d) - 1, (1 << d) >> 1)
                initial = {delta: fast_skyline(data, delta).tolist()
                           for delta in probes}
                for delta in probes:
                    assert client.skyline(delta) == initial[delta], delta
            full_skyline = initial[(1 << d) - 1]
            step = max(1, len(full_skyline) // SKYLINE_DELETES)
            doomed = full_skyline[::step][:SKYLINE_DELETES]
            mutator = Mutator(port, d, n, doomed)
            readers = [Reader(port, d, n, seed, mutator) for seed in (1, 2)]
            for thread in (mutator, *readers):
                thread.start()
            for thread in (mutator, *readers):
                thread.join(timeout=120)
                assert not thread.is_alive(), f"{thread.name} hung"

            assert not mutator.errors, mutator.errors
            for reader in readers:
                assert not reader.errors, (
                    f"{len(reader.errors)} failed reads: {reader.errors[:5]}"
                )
            versions = mutator.versions
            assert versions == sorted(set(versions)), (
                "publish versions not strictly increasing"
            )

            # Every insert was deleted again, so the survivors are the
            # bootstrap rows minus the deleted skyline points.
            survivors = np.setdiff1d(np.arange(n), doomed)
            with ServeClient("127.0.0.1", port, timeout=30.0) as client:
                for delta in probes:
                    final = survivors[
                        fast_skyline(data[survivors], delta)
                    ].tolist()
                    assert client.skyline(delta) == final, delta
                    expected = {
                        "entered": sorted(set(final) - set(initial[delta])),
                        "left": sorted(set(initial[delta]) - set(final)),
                    }
                    diff = client.skyline_diff(delta, 0, versions[-1])
                    assert diff == expected, (delta, diff, expected)
                metrics = client.metrics()
            assert metrics["snapshot_publishes"] >= len(versions), metrics
            assert metrics["snapshot_version"] == versions[-1], metrics
            reads = sum(reader.reads for reader in readers)
            print(
                f"live-smoke: {len(versions)} publishes "
                f"(final v{versions[-1]}), {reads} concurrent reads, "
                f"{len(doomed)} skyline deletes, skylines and diffs match "
                f"the reference on every probed subspace"
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
        assert process.returncode == 0, f"server exited {process.returncode}"
        assert "drained, bye" in remainder, remainder
        assert os.path.exists(args.trace), f"{args.trace} was never written"
        with open(args.trace) as handle:
            lines = sum(1 for _ in handle)
        assert lines >= len(versions), (
            f"trace has {lines} events for {len(versions)} publishes"
        )
        print(f"live-smoke: clean SIGTERM drain, {lines} trace events")


if __name__ == "__main__":
    main()
