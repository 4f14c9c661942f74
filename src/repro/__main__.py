"""Command-line interface to the library.

Examples::

    # one skyline query over a dataset file (text or .npy)
    python -m repro skyline flights.txt --subspace 0b011

    # materialise a skycube and save it, or print chosen subspaces
    python -m repro skycube data.npy --algorithm mdmc-cpu --show 0b101 0b110

    # generate a benchmark dataset
    python -m repro generate anticorrelated 10000 8 --out data.npy

    # dataset statistics (Table-2 style)
    python -m repro stats data.npy

    # serve a skycube over TCP, then query it
    python -m repro serve data.npy --port 7171 --window-ms 2
    python -m repro query skyline --subspace 0b011 --port 7171
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np


def _parse_subspace(text: str, d: int) -> int:
    """CLI wrapper over :func:`repro.core.bitmask.parse_subspace`."""
    from repro.core.bitmask import parse_subspace

    try:
        return parse_subspace(text, d)
    except ValueError as error:
        raise SystemExit(str(error))


def _load(path: str) -> np.ndarray:
    from repro.data.io import load_dataset

    try:
        return load_dataset(path)
    except (OSError, ValueError) as error:
        raise SystemExit(f"cannot load {path}: {error}")


def cmd_skyline(args) -> int:
    from repro.engine import fast_extended_skyline, fast_skyline

    data = _load(args.dataset)
    delta = (
        _parse_subspace(args.subspace, data.shape[1])
        if args.subspace
        else None
    )
    ids = (
        fast_extended_skyline(data, delta)
        if args.extended
        else fast_skyline(data, delta)
    )
    kind = "extended skyline" if args.extended else "skyline"
    print(f"{kind}: {len(ids)} of {len(data)} points")
    print(" ".join(str(int(i)) for i in ids))
    return 0


def cmd_skycube(args) -> int:
    from repro.experiments.runner import ALGORITHM_KEYS
    from repro.experiments.runner import _builder  # noqa: SLF001

    data = _load(args.dataset)
    if args.algorithm not in ALGORITHM_KEYS:
        raise SystemExit(
            f"unknown algorithm {args.algorithm!r}; choose from "
            f"{', '.join(ALGORITHM_KEYS)}"
        )
    try:
        builder = _builder(
            args.algorithm, args.executor, args.workers, args.engine
        )
    except ValueError as error:
        raise SystemExit(str(error))
    run = builder.materialise(data, max_level=args.max_level)
    cube = run.skycube
    subspaces = list(cube.subspaces())
    detail = "" if args.executor == "serial" else f", executor={args.executor}"
    if args.engine is not None:
        detail += f", engine={args.engine}"
    print(
        f"materialised {len(subspaces)} subspace skylines with "
        f"{args.algorithm} ({run.counters.dominance_tests} dominance tests"
        f"{detail})"
    )
    for text in args.show:
        delta = _parse_subspace(text, data.shape[1])
        ids = cube.skyline(delta)
        print(f"S_{delta:#b}: {len(ids)} points: "
              + " ".join(str(i) for i in ids))
    return 0


def cmd_generate(args) -> int:
    from repro.data.generator import generate
    from repro.data.io import save_dataset

    data = generate(
        args.distribution, args.n, args.d, seed=args.seed,
        distinct_values=args.distinct_values,
    )
    save_dataset(data, args.out)
    print(f"wrote {args.n} x {args.d} ({args.distribution}) to {args.out}")
    return 0


def cmd_stats(args) -> int:
    from repro.engine import fast_extended_skyline, fast_skyline

    data = _load(args.dataset)
    n, d = data.shape
    skyline = fast_skyline(data)
    extended = fast_extended_skyline(data)
    print(f"n={n} d={d}")
    print(f"|S|  = {len(skyline)} ({100 * len(skyline) / n:.1f} %)")
    print(f"|S+| = {len(extended)} ({100 * len(extended) / n:.1f} %)")
    for j in range(d):
        print(f"dim {j}: {len(np.unique(data[:, j]))} distinct values")
    return 0


def cmd_serve(args) -> int:
    import asyncio

    from repro.config import (
        DEFAULT_PROFILE,
        ProfileError,
        apply_filter_gates,
        load_profile,
    )
    from repro.serve import (
        LiveUpdater,
        QueryBackend,
        ServeMetrics,
        ServingSnapshot,
        SkycubeService,
        SnapshotHolder,
        run_server,
    )
    from repro.shard import ShardCoordinator, ShardPlan
    from repro.trace import (
        NULL_TRACER,
        JsonlTracer,
        install_executor_sink,
        uninstall_executor_sink,
    )

    if args.profile:
        try:
            profile = load_profile(args.profile)
        except ProfileError as error:
            raise SystemExit(str(error))
    else:
        profile = DEFAULT_PROFILE
    apply_filter_gates(profile)

    # Precedence: explicit CLI flag > profile > built-in default.  The
    # argparse defaults are None sentinels so "flag was given" is
    # detectable; the profile section defaults ARE the old CLI
    # defaults, so no profile reproduces the old behaviour exactly.
    def knob(flag, section_value):
        return flag if flag is not None else section_value

    host = knob(args.host, profile.serve.host)
    port = knob(args.port, profile.serve.port)
    window_ms = knob(args.window_ms, profile.serve.window_ms)
    max_batch = knob(args.max_batch, profile.serve.max_batch)
    max_pending = knob(args.max_pending, profile.serve.max_pending)
    max_level = knob(args.max_level, profile.serve.max_level)
    # ``engine_choice`` stays None when neither flag nor profile set
    # it, so each tier can apply its own default bootstrap engine.
    engine_choice = knob(args.engine, profile.engine.engine)
    live = args.live or profile.serve.live
    compact_every = knob(args.compact_every, profile.serve.compact_every)
    trace_path = knob(args.trace, profile.trace.path)
    shards = knob(args.shards, profile.shard.shards)
    partitioner = knob(args.partitioner, profile.shard.partitioner)

    if shards < 0:
        raise SystemExit(f"--shards must be >= 0, got {shards}")
    if shards > 0 and live:
        raise SystemExit(
            "--live is not supported with --shards (the sharded "
            "tier serves a static dataset)"
        )
    if shards > 0 and args.snapshot:
        raise SystemExit(
            "--snapshot is not supported with --shards (shards "
            "materialise their own local snapshots)"
        )
    if live and args.snapshot:
        raise SystemExit("--live rebuilds from the dataset; drop --snapshot")
    if live and max_level is not None:
        raise SystemExit(
            "--live maintains the full cube; drop --max-level "
            "(or [serve] max_level)"
        )
    # Knobs the chosen tier never reads fail here rather than being
    # dropped.  [engine] keys also steer build_run, so only the flag
    # counts against --snapshot and --live.
    if args.snapshot and max_level is not None:
        raise SystemExit(
            "--snapshot serves the saved cube as built; drop --max-level "
            "(or [serve] max_level)"
        )
    if args.snapshot and args.engine is not None:
        raise SystemExit(
            "--snapshot serves the saved cube as built; drop --engine"
        )
    if live and args.engine is not None:
        raise SystemExit(
            "--live bootstraps the maintainer's own packed sweep; drop "
            "--engine"
        )
    if not live and (
        args.compact_every is not None
        or profile.serve.compact_every != DEFAULT_PROFILE.serve.compact_every
    ):
        raise SystemExit(
            "--compact-every only applies with --live; drop "
            "--compact-every (or [serve] compact_every)"
        )
    if shards == 0 and (
        args.partitioner is not None
        or profile.shard.partitioner != DEFAULT_PROFILE.shard.partitioner
    ):
        raise SystemExit(
            "--partitioner only applies with --shards; drop "
            "--partitioner (or [shard] partitioner)"
        )

    data = _load(args.dataset)
    n, d = data.shape
    # The tracer exists before the backend so the write path's
    # publish/compact spans are traced from the very first mutation.
    tracer = (
        JsonlTracer(trace_path, flush_every=profile.trace.flush_every)
        if trace_path
        else NULL_TRACER
    )
    if tracer.enabled:
        install_executor_sink(tracer.executor_sink())
    try:
        backend: QueryBackend
        layout, live_note = "", f"live={'on' if live else 'off'}, "
        if shards > 0:
            try:
                plan = ShardPlan.build(data, shards, partitioner=partitioner)
            except ValueError as error:
                raise SystemExit(str(error))
            backend = ShardCoordinator(
                data, plan,
                engine=engine_choice or "packed-filtered",
                max_level=max_level,
                timeout=profile.shard.worker_timeout_s, tracer=tracer,
            )
            layout = (
                f"shards={plan.shards}, partitioner={plan.partitioner}, "
                f"sizes={plan.sizes}, "
            )
            live_note = ""
        elif live:
            backend, _ = LiveUpdater.bootstrap(
                data, compact_every=compact_every, tracer=tracer
            )
        elif args.snapshot:
            from repro.core.serialize import load_skycube

            try:
                skycube = load_skycube(args.snapshot)
            except (OSError, ValueError) as error:
                raise SystemExit(
                    f"cannot load snapshot {args.snapshot}: {error}"
                )
            if d != skycube.d:
                raise SystemExit(
                    f"snapshot is {skycube.d}-dimensional but dataset has "
                    f"{d} columns"
                )
            backend = SnapshotHolder(ServingSnapshot(
                skycube.as_hashcube(), data, max_level=skycube.max_level
            ))
        else:
            backend = SnapshotHolder(ServingSnapshot.build(
                data, max_level=max_level, engine=engine_choice or "packed",
            ))
        service = SkycubeService(
            backend,
            window=window_ms / 1000.0,
            max_batch=max_batch,
            max_pending=max_pending,
            metrics=ServeMetrics(),
            tracer=tracer,
        )
        if args.profile:
            print(profile.describe())
        print(
            f"serving n={n} d={d} ({layout}window={window_ms}ms, "
            f"max_batch={max_batch}, max_pending={max_pending}, "
            f"{live_note}trace={trace_path or 'off'})"
        )
        asyncio.run(run_server(service, host=host, port=port))
    finally:
        if tracer.enabled:
            uninstall_executor_sink()
            tracer.close()
    return 0


def cmd_trace(args) -> int:
    from repro.trace import FAILURE_CLASSES
    from repro.trace.analyze import analyze_file, format_report

    try:
        report = analyze_file(args.trace_file)
    except OSError as error:
        raise SystemExit(f"cannot read trace {args.trace_file}: {error}")
    fail_on = []
    if args.fail_on:
        known = set(FAILURE_CLASSES) | {"unclassified"}
        for name in args.fail_on.split(","):
            name = name.strip()
            if not name:
                continue
            if name not in known:
                raise SystemExit(
                    f"unknown failure class {name!r}; known: "
                    + ", ".join(sorted(known))
                )
            fail_on.append(name)
    if args.json:
        import json as _json

        print(_json.dumps(report.as_dict(), indent=2))
    else:
        print(format_report(report, top=args.top))
    offending = report.present_classes(fail_on)
    if offending:
        print(
            "trace analyze: failing on "
            + ", ".join(sorted(offending)),
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_query(args) -> int:
    from repro.serve import ServeClient, ServeError

    try:
        client = ServeClient(args.host, args.port, timeout=args.timeout)
    except OSError as error:
        raise SystemExit(f"cannot connect to {args.host}:{args.port}: {error}")
    with client:
        try:
            if args.diff is not None:
                if not args.subspace:
                    raise SystemExit("--diff needs --subspace")
                parts = args.diff.split(":")
                try:
                    v_from, v_to = (int(part.lstrip("v")) for part in parts)
                except ValueError:
                    raise SystemExit(
                        f"--diff wants V1:V2 (e.g. 3:7), got {args.diff!r}"
                    )
                changes = client.skyline_diff(args.subspace, v_from, v_to)
                print(
                    f"S_{args.subspace} v{v_from} -> v{v_to}: "
                    f"+{len(changes['entered'])} -{len(changes['left'])}"
                )
                if changes["entered"]:
                    print("entered: " + " ".join(
                        str(i) for i in changes["entered"]))
                if changes["left"]:
                    print("left:    " + " ".join(
                        str(i) for i in changes["left"]))
            elif args.what == "skyline":
                if not args.subspace:
                    raise SystemExit("skyline needs --subspace")
                ids = client.skyline(args.subspace)
                print(f"S_{args.subspace}: {len(ids)} points")
                print(" ".join(str(i) for i in ids))
            elif args.what == "membership":
                if args.point_id is None or not args.subspace:
                    raise SystemExit("membership needs --point-id and --subspace")
                member = client.membership(args.point_id, args.subspace)
                print(
                    f"point {args.point_id} "
                    f"{'in' if member else 'not in'} S_{args.subspace}"
                )
            elif args.what == "topk":
                if not args.q:
                    raise SystemExit("topk needs --q")
                q = [float(part) for part in args.q.split(",")]
                ids = client.topk_dynamic(q, k=args.k, delta=args.subspace)
                print(f"top-{args.k} dynamic: " + " ".join(str(i) for i in ids))
            elif args.what == "metrics":
                import json as _json

                print(_json.dumps(client.metrics(), indent=2))
            else:  # ping
                info = client.ping()
                print(f"ok: n={info['n']} d={info['d']}")
        except ServeError as error:
            raise SystemExit(f"server error — {error}")
        except (ConnectionError, OSError) as error:
            raise SystemExit(f"connection lost: {error}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    from repro.engine.kernels import ENGINE_HELP, SKYCUBE_ENGINES
    from repro.shard.plan import PARTITIONER_NAMES

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Skyline and skycube computation (SIGMOD'17 reproduction).",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    skyline = commands.add_parser("skyline", help="one subspace skyline query")
    skyline.add_argument("dataset")
    skyline.add_argument("--subspace", help="e.g. 0b101, 5, or dims '0,2'")
    skyline.add_argument("--extended", action="store_true")
    skyline.set_defaults(handler=cmd_skyline)

    skycube = commands.add_parser("skycube", help="materialise a skycube")
    skycube.add_argument("dataset")
    skycube.add_argument("--algorithm", default="mdmc-cpu")
    skycube.add_argument("--max-level", type=int, default=None)
    skycube.add_argument("--executor", choices=["serial", "process"],
                         default="serial",
                         help="serial reference or real multicore pool")
    skycube.add_argument("--workers", type=int, default=None,
                         help="process-pool size (default: all cores)")
    skycube.add_argument("--engine", choices=SKYCUBE_ENGINES, default=None,
                         help="mdmc only — " + ENGINE_HELP
                              + " (default: instrumented per-point sweep)")
    skycube.add_argument("--show", nargs="*", default=[],
                         help="subspaces to print")
    skycube.set_defaults(handler=cmd_skycube)

    generate = commands.add_parser("generate", help="synthetic datasets")
    generate.add_argument("distribution",
                          choices=["independent", "correlated",
                                   "anticorrelated"])
    generate.add_argument("n", type=int)
    generate.add_argument("d", type=int)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--distinct-values", type=int, default=None)
    generate.add_argument("--out", required=True)
    generate.set_defaults(handler=cmd_generate)

    stats = commands.add_parser("stats", help="dataset statistics")
    stats.add_argument("dataset")
    stats.set_defaults(handler=cmd_stats)

    serve = commands.add_parser(
        "serve", help="serve skycube queries over TCP (NDJSON protocol)"
    )
    # Serve knob defaults are None sentinels: the real defaults live in
    # repro.config's profile sections, so that an explicit flag beats
    # the profile, which beats the shipped default.
    serve.add_argument("dataset")
    serve.add_argument("--profile", default=None,
                       help="TOML/YAML deployment profile "
                            "(see docs/OPERATIONS.md); explicit flags "
                            "still win")
    serve.add_argument("--host", default=None,
                       help="default 127.0.0.1")
    serve.add_argument("--port", type=int, default=None,
                       help="default 7171; 0 picks an ephemeral port")
    serve.add_argument("--window-ms", type=float, default=None,
                       help="micro-batching window, default 2.0 "
                            "(0 disables coalescing)")
    serve.add_argument("--max-batch", type=int, default=None,
                       help="default 64")
    serve.add_argument("--max-pending", type=int, default=None,
                       help="admission bound, default 1024; beyond it "
                            "requests are shed")
    serve.add_argument("--engine", choices=SKYCUBE_ENGINES,
                       default=None,
                       help="snapshot bootstrap, default packed — "
                            + ENGINE_HELP)
    serve.add_argument("--max-level", type=int, default=None,
                       help="materialise a partial cube; higher levels "
                            "fall back to ad-hoc kernels")
    serve.add_argument("--live", action="store_true",
                       help="enable insert/delete ops via a background "
                            "SkycubeMaintainer; every mutation publishes "
                            "a copy-on-write delta snapshot and feeds "
                            "the skyline_diff changelog")
    serve.add_argument("--compact-every", type=int, default=None,
                       help="with --live: full snapshot rebuild after "
                            "this many delta generations (default 64)")
    serve.add_argument("--snapshot", default=None,
                       help="serve a pre-materialised .npz skycube "
                            "(save_skycube) instead of building one")
    serve.add_argument("--trace", default=None, metavar="PATH",
                       help="append jsonl lifecycle trace events to "
                            "PATH (see docs/OPERATIONS.md)")
    serve.add_argument("--shards", type=int, default=None,
                       help="serve through N shard worker processes "
                            "(scatter-gather; default 0 = single "
                            "process, see docs/SHARDING.md)")
    serve.add_argument("--partitioner", choices=PARTITIONER_NAMES,
                       default=None,
                       help="point-to-shard strategy for --shards, "
                            "default grid")
    serve.set_defaults(handler=cmd_serve)

    trace = commands.add_parser(
        "trace", help="inspect jsonl execution traces"
    )
    trace_commands = trace.add_subparsers(dest="trace_command", required=True)
    analyze = trace_commands.add_parser(
        "analyze", help="summarise a trace: taxonomy counts, stage "
                        "latencies, top offenders"
    )
    analyze.add_argument("trace_file")
    analyze.add_argument("--fail-on", default=None,
                         help="comma-separated failure classes (or "
                              "'unclassified') that flip the exit code "
                              "to 1 when present")
    analyze.add_argument("--top", type=int, default=5,
                         help="how many offending subspaces to list")
    analyze.add_argument("--json", action="store_true",
                         help="machine-readable report instead of text")
    analyze.set_defaults(handler=cmd_trace)

    query = commands.add_parser(
        "query", help="query a running serve instance"
    )
    query.add_argument("what", nargs="?", default="ping",
                       choices=["skyline", "membership", "topk",
                                "metrics", "ping"])
    query.add_argument("--host", default="127.0.0.1")
    query.add_argument("--port", type=int, default=7171)
    query.add_argument("--timeout", type=float, default=10.0)
    query.add_argument("--subspace", help="e.g. 0b101, 5, or dims '0,2'")
    query.add_argument("--point-id", type=int, default=None)
    query.add_argument("--q", help="comma-separated query point coordinates")
    query.add_argument("--k", type=int, default=10)
    query.add_argument("--diff", default=None, metavar="V1:V2",
                       help="temporal skyline diff of --subspace between "
                            "two published snapshot versions (serve "
                            "--live only)")
    query.set_defaults(handler=cmd_query)

    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
