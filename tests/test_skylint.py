"""Tests for the skylint static-analysis pass (repro.analysis).

The fixtures under ``tests/fixtures/skylint/repro/`` are deliberately
broken modules, one per rule family; the ``repro/`` directory makes the
module-name inference scope them like package modules.  The suite also
runs the real tree through the CLI — the repo must lint clean.
"""

import json
from pathlib import Path

import pytest

from repro.analysis import (
    Allowlist,
    all_rules,
    analyse_paths,
    module_name,
)
from repro.analysis.cli import main

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "skylint"
REPRO_SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def codes_in(path, **kwargs):
    report = analyse_paths([path], **kwargs)
    assert not report.parse_errors, report.parse_errors
    return [v.code for v in report.violations]


def fixture(name):
    path = FIXTURES / "repro" / name
    assert path.is_file(), path
    return path


# -- rule-by-rule on fixtures -----------------------------------------


def test_sky001_architecture_declared():
    codes = codes_in(fixture("skyline/bad_algo.py"))
    assert codes == ["SKY001", "SKY001"]


def test_sky002_sky003_hook_imports_and_setter():
    codes = codes_in(fixture("templates/bad_imports.py"))
    assert codes.count("SKY002") == 3
    assert codes.count("SKY003") == 2
    assert set(codes) == {"SKY002", "SKY003"}


def test_sky10x_shared_memory_hygiene():
    codes = codes_in(fixture("engine/bad_shm.py"))
    assert codes.count("SKY101") == 1  # safe_segment's finally is clean
    assert codes.count("SKY102") == 1  # with-block pool is clean
    assert codes.count("SKY103") == 2  # lambda + nested def
    assert set(codes) == {"SKY101", "SKY102", "SKY103"}


def test_sky201_determinism():
    codes = codes_in(fixture("engine/bad_rng.py"))
    assert codes == ["SKY201"] * 5  # seeded calls in quiet() are clean


def test_sky301_dominance_semantics():
    codes = codes_in(fixture("templates/bad_dominance.py"))
    assert codes == ["SKY301"] * 3


def test_sky501_index_loops():
    codes = codes_in(fixture("engine/bad_pointloop.py"))
    assert codes == ["SKY501"] * 2


def test_sky501_scoped_to_engine_only():
    from repro.analysis.loops import IndexLoopRule

    rule = IndexLoopRule()
    assert rule.applies_to("repro.engine")


def test_sky401_blocking_in_async():
    codes = codes_in(fixture("serve/bad_async.py"))
    assert codes == ["SKY401"] * 6


def test_sky401_flags_exact_lines():
    report = analyse_paths([fixture("serve/bad_async.py")])
    # sleep, open, create_connection, recv, pool construction, pool.run —
    # and nothing from good_counterparts or the sync helper.
    assert [v.line for v in report.violations] == [16, 17, 22, 23, 28, 29]


def test_sky401_scoped_to_serve_only():
    from repro.analysis.blocking import BlockingCallRule

    rule = BlockingCallRule()
    assert rule.applies_to("repro.serve")
    assert rule.applies_to("repro.serve.server")
    assert not rule.applies_to("repro.engine.parallel")
    assert not rule.applies_to("repro.served")  # prefix, not substring


def test_violation_locations_and_format():
    report = analyse_paths([fixture("skyline/bad_algo.py")])
    first = report.violations[0]
    assert first.line == 6  # class NoArchitecture
    assert first.code in first.format()
    assert str(first.path) in first.format()
    payload = first.to_json()
    assert payload["code"] == "SKY001"
    assert payload["severity"] == "error"


# -- suppression and allowlist ----------------------------------------


def test_inline_suppression_silences_rules():
    assert codes_in(fixture("engine/suppressed.py")) == []


def test_allowlist_moves_violations_aside():
    allowlist = Allowlist.load(FIXTURES / "allow.txt")
    report = analyse_paths(
        [fixture("engine/bad_rng.py"), fixture("templates/bad_dominance.py")],
        allowlist=allowlist,
    )
    assert report.violations == []
    assert len(report.allowlisted) == 8  # 5×SKY201 + 3×SKY301
    assert report.exit_code == 0


def test_allowlist_only_matches_named_code():
    allowlist = Allowlist.load(FIXTURES / "allow.txt")
    report = analyse_paths(
        [fixture("templates/bad_imports.py")], allowlist=allowlist
    )
    assert report.violations  # SKY002/SKY003 are not grandfathered


def test_malformed_allowlist_rejected(tmp_path):
    bad = tmp_path / "allow.txt"
    bad.write_text("no-colon-here\n")
    with pytest.raises(ValueError, match="malformed allowlist"):
        Allowlist.load(bad)


# -- module scoping ----------------------------------------------------


def test_module_name_anchors_at_repro():
    assert (
        module_name(Path("tests/fixtures/skylint/repro/engine/bad_rng.py"))
        == "repro.engine.bad_rng"
    )
    assert module_name(Path("src/repro/core/__init__.py")) == "repro.core"
    assert module_name(Path("scratch/tool.py")) == "tool"


def test_scoped_rules_skip_foreign_modules(tmp_path):
    # The same bad template code outside repro.templates is not flagged
    # by the hook rules (but generic hygiene rules still apply).
    copy = tmp_path / "elsewhere.py"
    copy.write_text(fixture("templates/bad_imports.py").read_text())
    codes = codes_in(copy)
    assert "SKY002" not in codes
    assert "SKY003" not in codes


# -- selection filters -------------------------------------------------


def test_select_and_ignore_filters():
    path = fixture("engine/bad_shm.py")
    assert set(codes_in(path, select=["SKY103"])) == {"SKY103"}
    assert "SKY103" not in codes_in(path, ignore=["SKY103"])


def test_rule_registry_complete_and_unique():
    rules = all_rules()
    codes = [rule.code for rule in rules]
    assert codes == sorted(codes)
    assert len(codes) == len(set(codes))
    assert {
        "SKY001", "SKY002", "SKY003",
        "SKY101", "SKY102", "SKY103", "SKY104", "SKY105",
        "SKY201", "SKY301", "SKY401", "SKY402", "SKY501",
        "SKY601", "SKY602",
    } <= set(codes)


def test_project_rules_marked_as_such():
    from repro.analysis import RULE_REGISTRY

    project_codes = {
        code
        for code, rule_class in RULE_REGISTRY.items()
        if rule_class.requires_project
    }
    assert {"SKY104", "SKY105", "SKY402", "SKY601", "SKY602"} <= project_codes
    assert "SKY101" not in project_codes


# -- CLI ---------------------------------------------------------------


def test_cli_nonzero_on_fixtures(capsys):
    exit_code = main([str(FIXTURES / "repro"), "--no-allowlist"])
    out = capsys.readouterr().out
    assert exit_code == 1
    assert "SKY001" in out
    assert "violation(s)" in out


def test_cli_json_output(capsys):
    exit_code = main(
        [str(fixture("engine/bad_rng.py")), "--no-allowlist", "--json"]
    )
    assert exit_code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["files_checked"] == 1
    assert {v["code"] for v in payload["violations"]} == {"SKY201"}


def test_cli_allowlist_flag(capsys):
    exit_code = main(
        [
            str(fixture("engine/bad_rng.py")),
            "--allowlist",
            str(FIXTURES / "allow.txt"),
        ]
    )
    assert exit_code == 0
    assert "allowlisted" in capsys.readouterr().out


def test_cli_parse_error_is_reported(tmp_path, capsys):
    broken = tmp_path / "broken.py"
    broken.write_text("def unclosed(:\n")
    exit_code = main([str(broken), "--no-allowlist"])
    assert exit_code == 1
    assert "SKY000" in capsys.readouterr().out


def test_cli_missing_path_exits_2(tmp_path, capsys):
    exit_code = main([str(tmp_path / "nope.txt"), "--no-allowlist"])
    assert exit_code == 2


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "SKY101" in out and "SKY301" in out


# -- the real tree must lint clean ------------------------------------


def test_repo_lints_clean_without_allowlist(capsys):
    exit_code = main([str(REPRO_SRC), "--no-allowlist"])
    out = capsys.readouterr().out
    assert exit_code == 0, out
    assert "0 violation(s)" in out


# -- flow-aware rules (v2) ---------------------------------------------


def test_sky402_transitive_blocking():
    report = analyse_paths([fixture("serve/bad_transitive.py")])
    assert [v.code for v in report.violations] == ["SKY402", "SKY402"]
    # handle (line 26, two frames away) and read_settings (line 31).
    assert [v.line for v in report.violations] == [26, 31]
    two_frames = report.violations[0].message
    assert "handle -> _retry -> _backoff" in two_frames
    assert "time.sleep(...)" in two_frames
    assert "2 frame(s)" in two_frames
    assert "path.read_text(...)" in report.violations[1].message


def test_sky402_quiet_on_to_thread_dispatch():
    # The `quiet` coroutine dispatches the same helper via to_thread
    # and never appears in the findings.
    report = analyse_paths([fixture("serve/bad_transitive.py")])
    assert all("quiet" not in v.message for v in report.violations)


def test_sky104_leak_paths():
    path = fixture("engine/bad_shm_flow.py")
    report = analyse_paths([path], select=["SKY104"])
    # early_return_leak (line 25) and helper_forgets_unlink (line 35);
    # the clean finally / helper-release functions stay quiet.
    assert [v.code for v in report.violations] == ["SKY104", "SKY104"]
    assert [v.line for v in report.violations] == [25, 35]


def test_sky105_double_release_paths():
    path = fixture("engine/bad_shm_flow.py")
    report = analyse_paths([path], select=["SKY105"])
    # double_unlink (line 44) and helper_then_unlink (line 50) — and
    # crucially NOT the finally-block releases of the clean functions.
    assert [v.code for v in report.violations] == ["SKY105", "SKY105"]
    assert [v.line for v in report.violations] == [44, 50]


def test_shm_flow_fixture_full_code_set():
    # SKY101 is inline-suppressed except in clean_finally (where it is
    # satisfied), so the whole fixture reports exactly the flow rules.
    assert codes_in(fixture("engine/bad_shm_flow.py")) == [
        "SKY104", "SKY104", "SKY105", "SKY105",
    ]


def test_sky601_snapshot_mutation():
    report = analyse_paths([fixture("serve/bad_mutation.py")])
    assert [v.code for v in report.violations] == ["SKY601"] * 7
    assert [v.line for v in report.violations] == [17, 18, 22, 27, 31, 35, 39]
    by_line = {v.line: v.message for v in report.violations}
    assert "subscript store" in by_line[17]
    assert "attribute store" in by_line[18]
    assert "in-place operation" in by_line[22]
    assert ".sort(...)" in by_line[27]
    assert ".setflags(...)" in by_line[31]
    assert "_fill_zero() mutates its argument" in by_line[35]
    assert "frozen Profile" in by_line[39]


def test_sky602_domain_bounds():
    report = analyse_paths([fixture("engine/bad_domains.py")])
    assert [v.code for v in report.violations] == ["SKY602"] * 4
    assert [v.line for v in report.violations] == [15, 19, 23, 27]
    shifts = [v for v in report.violations if "shift count" in v.message]
    tables = [v for v in report.violations if "exponential table" in v.message]
    assert len(shifts) == 2 and len(tables) == 2


def test_flow_cfg_finally_runs_once_per_path():
    # Regression: an exception raised inside a finally body must not
    # re-enter the same try (which re-ran the cleanup and produced
    # phantom double-release states).
    import ast as ast_module

    from repro.analysis.flow import ResourceSpec, track_resource

    source = (
        "def f(n):\n"
        "    shm = SharedMemory(create=True, size=n)\n"
        "    try:\n"
        "        return n\n"
        "    finally:\n"
        "        shm.close()\n"
        "        shm.unlink()\n"
    )
    function = ast_module.parse(source).body[0]
    creation = function.body[0]
    spec = ResourceSpec(
        kind="SharedMemory",
        finalizers={"close": "closed", "unlink": "unlinked"},
        required=frozenset({"unlinked"}),
        once=frozenset({"unlink"}),
    )
    assert track_resource(function, creation, "shm", spec) == []


# -- selection validation ----------------------------------------------


def test_unknown_select_code_raises_with_suggestion():
    with pytest.raises(ValueError, match="SKY999"):
        analyse_paths([fixture("engine/bad_rng.py")], select=["SKY999"])
    with pytest.raises(ValueError, match="did you mean 'SKY201'"):
        analyse_paths([fixture("engine/bad_rng.py")], ignore=["SKY200"])


def test_cli_unknown_code_exits_2(capsys):
    exit_code = main(
        [str(fixture("engine/bad_rng.py")), "--select", "SKY999"]
    )
    assert exit_code == 2
    err = capsys.readouterr().err
    assert "SKY999" in err and "--list-rules" in err


# -- incremental cache -------------------------------------------------


def test_cache_module_rules_warm_run(tmp_path):
    cache = tmp_path / "cache"
    path = fixture("engine/bad_rng.py")
    cold = analyse_paths([path], cache_dir=cache)
    assert cold.cache_stats == {
        "files": 1, "module_hits": 0, "project_hits": 0, "warm": False,
    }
    warm = analyse_paths([path], cache_dir=cache)
    assert warm.cache_stats["module_hits"] == 1
    assert warm.cache_stats["warm"] is True
    assert [v.to_json() for v in warm.violations] == [
        v.to_json() for v in cold.violations
    ]


def test_cache_invalidates_on_content_change(tmp_path):
    cache = tmp_path / "cache"
    target = tmp_path / "repro" / "engine" / "scratch.py"
    target.parent.mkdir(parents=True)
    target.write_text("import numpy as np\n\nx = np.random.rand(3)\n")
    first = analyse_paths([target], cache_dir=cache)
    assert [v.code for v in first.violations] == ["SKY201"]
    target.write_text("import numpy as np\n\nrng = np.random.default_rng(7)\n")
    second = analyse_paths([target], cache_dir=cache)
    assert second.cache_stats["module_hits"] == 0
    assert second.violations == []


def _write_serve_project(root, blocking=True):
    pkg = root / "repro" / "serve"
    pkg.mkdir(parents=True, exist_ok=True)
    if blocking:
        (pkg / "util.py").write_text(
            "import time\n\n\ndef backoff(seconds):\n"
            "    time.sleep(seconds)\n"
        )
    else:
        (pkg / "util.py").write_text(
            "def backoff(seconds):\n    return seconds\n"
        )
    (pkg / "api.py").write_text(
        "from repro.serve.util import backoff\n\n\n"
        "async def handle(request):\n"
        "    backoff(1)\n"
        "    return request\n"
    )
    return pkg


def test_cache_project_rules_warm_and_dependency_invalidation(tmp_path):
    cache = tmp_path / "cache"
    pkg = _write_serve_project(tmp_path, blocking=True)

    cold = analyse_paths([pkg], cache_dir=cache)
    assert [v.code for v in cold.violations] == ["SKY402"]
    assert cold.cache_stats["project_hits"] == 0

    warm = analyse_paths([pkg], cache_dir=cache)
    assert warm.cache_stats == {
        "files": 2, "module_hits": 2, "project_hits": 2, "warm": True,
    }
    assert [v.code for v in warm.violations] == ["SKY402"]

    # Editing only the *dependency* must invalidate api.py's cached
    # project findings even though api.py's own hash is unchanged.
    _write_serve_project(tmp_path, blocking=False)
    third = analyse_paths([pkg], cache_dir=cache)
    assert third.cache_stats["module_hits"] == 1  # api.py byte-identical
    assert third.cache_stats["project_hits"] < 2
    assert third.violations == []

    # And the fixed state becomes warm again.
    fourth = analyse_paths([pkg], cache_dir=cache)
    assert fourth.cache_stats["warm"] is True
    assert fourth.violations == []


def test_cache_survives_allowlist_changes(tmp_path):
    # Findings are cached raw: adding an allowlist later still
    # partitions them out of a fully warm run.
    cache = tmp_path / "cache"
    path = fixture("engine/bad_rng.py")
    analyse_paths([path], cache_dir=cache)
    allowlist = Allowlist.load(FIXTURES / "allow.txt")
    warm = analyse_paths([path], cache_dir=cache, allowlist=allowlist)
    assert warm.cache_stats["module_hits"] == 1
    assert warm.violations == []
    assert len(warm.allowlisted) == 5


def test_cli_cache_and_jobs_flags(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    argv = [
        str(fixture("engine/bad_rng.py")),
        "--no-allowlist",
        "--cache-dir", str(cache_dir),
        "--jobs", "2",
    ]
    assert main(argv) == 1
    assert "[cache: 0/1 warm]" in capsys.readouterr().out
    assert main(argv) == 1
    assert "[cache: 1/1 warm]" in capsys.readouterr().out


# -- SARIF output ------------------------------------------------------


def test_cli_sarif_output(capsys):
    exit_code = main(
        [
            str(fixture("engine/bad_rng.py")),
            "--no-allowlist",
            "--format", "sarif",
        ]
    )
    assert exit_code == 1
    document = json.loads(capsys.readouterr().out)
    assert document["version"] == "2.1.0"
    run = document["runs"][0]
    driver = run["tool"]["driver"]
    assert driver["name"] == "skylint"
    rule_ids = {rule["id"] for rule in driver["rules"]}
    assert {"SKY201", "SKY402", "SKY602"} <= rule_ids
    results = run["results"]
    assert {r["ruleId"] for r in results} == {"SKY201"}
    for result in results:
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uriBaseId"] == "SRCROOT"
        assert location["region"]["startLine"] > 0
        assert "primaryLocationLineHash" not in result.get(
            "partialFingerprints", {}
        )
        assert result["partialFingerprints"]["skylint/v1"]


def test_sarif_document_structure():
    from repro.analysis import sarif_document

    report = analyse_paths([fixture("serve/bad_transitive.py")])
    document = sarif_document(
        report.violations, all_rules(), base_dir=Path.cwd()
    )
    run = document["runs"][0]
    assert run["originalUriBaseIds"]["SRCROOT"]["uri"].startswith("file://")
    result = run["results"][0]
    assert result["ruleId"] == "SKY402"
    assert result["level"] == "error"


# -- baseline management -----------------------------------------------


def test_baseline_roundtrip(tmp_path):
    from repro.analysis import Baseline

    path = fixture("engine/bad_rng.py")
    report = analyse_paths([path])
    recorded = Baseline.from_violations(report.violations)
    baseline_path = tmp_path / "baseline.json"
    recorded.write(baseline_path)

    suppressed = analyse_paths([path], baseline=Baseline.load(baseline_path))
    assert suppressed.violations == []
    assert len(suppressed.baselined) == 5
    assert suppressed.stale_baseline == []
    assert suppressed.exit_code == 0


def test_baseline_budget_is_count_aware(tmp_path):
    from repro.analysis import Baseline

    path = fixture("engine/bad_rng.py")
    report = analyse_paths([path])
    recorded = Baseline.from_violations(report.violations[:-1])  # 4 of 5
    partial = analyse_paths([path], baseline=recorded)
    # All five findings share one fingerprint (same code+message), so
    # a budget of four leaves exactly one reported.
    assert len(partial.baselined) == 4
    assert len(partial.violations) == 1


def test_baseline_stale_entries_reported(tmp_path):
    from repro.analysis import Baseline

    rng = fixture("engine/bad_rng.py")
    recorded = Baseline.from_violations(analyse_paths([rng]).violations)
    other = analyse_paths(
        [fixture("templates/bad_dominance.py")], baseline=recorded
    )
    assert other.stale_baseline  # nothing in bad_dominance matches
    assert other.stale_entries == other.stale_baseline


def test_cli_write_baseline_then_clean(tmp_path, capsys):
    baseline_path = tmp_path / "skylint-baseline.json"
    target = str(fixture("engine/bad_rng.py"))
    assert main(
        [target, "--no-allowlist", "--write-baseline", str(baseline_path)]
    ) == 0
    out = capsys.readouterr().out
    assert "wrote baseline with 5 finding(s)" in out
    assert baseline_path.is_file()

    assert main(
        [target, "--no-allowlist", "--baseline", str(baseline_path)]
    ) == 0
    assert "5 baselined" in capsys.readouterr().out


def test_cli_malformed_baseline_exits_2(tmp_path, capsys):
    bad = tmp_path / "baseline.json"
    bad.write_text("[not a mapping]")
    exit_code = main(
        [
            str(fixture("engine/bad_rng.py")),
            "--no-allowlist",
            "--baseline", str(bad),
        ]
    )
    assert exit_code == 2


# -- stale allowlist ---------------------------------------------------


def test_stale_allowlist_entries_warn(tmp_path, capsys):
    allow = tmp_path / "allow.txt"
    allow.write_text(
        "repro.engine.bad_rng: SKY201\n"
        "repro.engine.never_exists: SKY101\n"
    )
    argv = [
        str(fixture("engine/bad_rng.py")),
        "--allowlist", str(allow),
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "stale allowlist entry" in out
    assert "never_exists" in out

    assert main(argv + ["--fail-on-stale-allowlist"]) == 1


def test_fresh_allowlist_passes_stale_gate(capsys):
    argv = [
        str(fixture("engine/bad_rng.py")),
        str(fixture("templates/bad_dominance.py")),
        "--allowlist", str(FIXTURES / "allow.txt"),
        "--fail-on-stale-allowlist",
    ]
    assert main(argv) == 0


# -- JSON report shape -------------------------------------------------


def test_json_report_includes_cache_and_stale_keys(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    argv = [
        str(fixture("engine/bad_rng.py")),
        "--no-allowlist",
        "--cache-dir", str(cache_dir),
        "--json",
    ]
    main(argv)
    payload = json.loads(capsys.readouterr().out)
    assert payload["cache"]["files"] == 1
    assert payload["stale_allowlist"] == []
    assert payload["stale_baseline"] == []
    assert payload["baselined"] == []
