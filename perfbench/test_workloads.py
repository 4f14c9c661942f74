"""Benchmark-side tests: seeded inputs and the metric catalogue.

Run with ``python3 -m pytest perfbench -q`` (no program process is
started; the tests only touch the benchmark's own modules).
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import numpy as np
import pytest

import workloads as wl

ROOT = Path(__file__).resolve().parent.parent


def _sequences(seed: int):
    data = wl.serve_dataset(seed)
    plan = wl.serve_plan(seed, data)
    live = wl.live_dataset(seed)
    pool = wl.live_pool(seed)
    return {
        "build_data": {k: v.tobytes() for k, v in wl.build_datasets(seed).items()},
        "build_order": list(itertools.islice(wl.build_order(seed), 64)),
        "serve_data": data.tobytes(),
        "serve_ops": [list(itertools.islice(wl.serve_ops(seed, caller, plan), 300))
                      for caller in (0, 1, wl.SERVE_READERS - 1)],
        "live_data": live.tobytes(),
        "live_pool": pool.tolist(),
        "live_reads": [list(itertools.islice(wl.live_reader_ops(seed, caller, pool), 300))
                       for caller in (0, wl.LIVE_READERS - 1)],
        "live_writes": wl.LiveModel(seed, live, pool).writes(24),
        "checks": wl.check_subspaces(seed, 8),
    }


@pytest.fixture(scope="module")
def seed_one():
    return _sequences(1)


@pytest.fixture(scope="module")
def seed_two():
    return _sequences(2)


def test_same_seed_same_inputs(seed_one):
    assert _sequences(1) == seed_one


@pytest.mark.parametrize("key", ["build_data", "build_order", "serve_data", "serve_ops",
                                 "live_data", "live_pool", "live_reads", "live_writes",
                                 "checks"])
def test_other_seed_other_inputs(seed_one, seed_two, key):
    assert seed_two[key] != seed_one[key]


def test_hot_subspace_levels_do_not_depend_on_seed():
    def levels(seed):
        return [bin(delta).count("1")
                for delta in wl.serve_plan(seed, wl.serve_dataset(seed))[0]]

    assert levels(1) == levels(2)


def test_callers_get_distinct_streams(seed_one):
    first, second, _ = seed_one["serve_ops"]
    assert first != second


def test_serve_mix_shares():
    data = wl.serve_dataset(3)
    ops = list(itertools.islice(wl.serve_ops(3, 0, wl.serve_plan(3, data)), 4000))
    share = {op: sum(o["op"] == op for o in ops) / len(ops)
             for op in ("skyline", "membership", "topk_dynamic")}
    assert abs(share["skyline"] - 0.45) < 0.03
    assert abs(share["membership"] - 0.45) < 0.03
    assert abs(share["topk_dynamic"] - 0.10) < 0.02


def test_build_classes_interleave_balanced():
    order = list(itertools.islice(wl.build_order(5), 101))
    assert abs(order.count("corr") - order.count("anti")) <= 1


def test_live_writer_never_deletes_reader_ids():
    data, pool = wl.live_dataset(4), wl.live_pool(4)
    model = wl.LiveModel(4, data, pool)
    for _ in range(40):
        kind, row = model.next_op()
        assert kind == "insert" or row not in set(pool.tolist())
        assert kind == "insert" or model.sky[row]
        model.apply(kind, row)
    assert model.alive[pool].all()


def test_live_model_tracks_full_space_skyline():
    data, pool = wl.live_dataset(6), wl.live_pool(6)
    model = wl.LiveModel(6, data, pool)
    model.writes(40)
    live = model.live_rows()
    rows = model.rows[live]
    beaten = [
        bool(((rows <= row).all(axis=1) & (rows < row).any(axis=1)).any())
        for row in rows
    ]
    want = set(live[~np.asarray(beaten)].tolist())
    assert want == set(np.flatnonzero(model.sky[: model.count]).tolist())


def test_benchmark_json_matches_catalogue():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert spec["per_layer"] == run.per_layer_spec()
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.SLOTS)
