"""Tests for repro.config: the validated deployment-profile layer.

The two ISSUE 6 acceptance properties live here: an empty profile
reproduces the shipped defaults bit-for-bit (checked against the
actual constructor/CLI defaults, not copies of them), and any invalid
knob fails with an error naming the offending key.
"""

import inspect

import pytest

from repro.config import (
    DEFAULT_PROFILE,
    EngineSection,
    FilterSection,
    Profile,
    ProfileError,
    ServeSection,
    ShardSection,
    TraceSection,
    apply_filter_gates,
    load_profile,
    profile_from_dict,
)
from repro.config._toml import parse_toml_subset

GOOD_TOML = """
# a full profile touching every section
[serve]
host = "0.0.0.0"
port = 9000
window_ms = 1.5
max_batch = 128
max_pending = 2048
max_level = 3
live = true

[engine]
engine = "packed-filtered"
executor = "process"
workers = 4

[filter]
prefilter_min_rows = 256
prefilter_max_paths = 0.5

[trace]
path = "traces/prod.jsonl"
flush_every = 1

[shard]
shards = 4
partitioner = "angular"
worker_timeout_s = 5.0
"""


@pytest.fixture
def good_profile(tmp_path):
    path = tmp_path / "prod.toml"
    path.write_text(GOOD_TOML)
    return load_profile(str(path))


# -- the bit-for-bit default invariant ---------------------------------


class TestDefaults:
    def test_empty_file_equals_default_profile(self, tmp_path):
        path = tmp_path / "empty.toml"
        path.write_text("")
        profile = load_profile(str(path))
        assert profile == Profile(source=str(path))
        # Same knobs as no profile at all (source aside).
        for section in ("serve", "engine", "filter", "trace", "shard"):
            assert getattr(profile, section) == getattr(
                DEFAULT_PROFILE, section
            )

    def test_empty_sections_equal_defaults(self):
        profile = profile_from_dict(
            {"serve": {}, "engine": {}, "filter": {}, "trace": {},
             "shard": {}}
        )
        assert profile.serve == ServeSection()
        assert profile.engine == EngineSection()
        assert profile.filter == FilterSection()
        assert profile.trace == TraceSection()
        assert profile.shard == ShardSection()

    def test_serve_defaults_match_service_constructor(self):
        """The profile defaults ARE the constructor defaults — compare
        against the live signature so drift cannot go unnoticed."""
        from repro.serve import SkycubeService

        parameters = inspect.signature(SkycubeService.__init__).parameters
        section = ServeSection()
        assert parameters["window"].default == section.window_ms / 1000.0
        assert parameters["max_batch"].default == section.max_batch
        assert parameters["max_pending"].default == section.max_pending

    def test_filter_defaults_leave_kernel_gates_alone(self):
        from repro.engine import kernels

        before = (kernels.PREFILTER_MIN_ROWS, kernels.PREFILTER_MAX_PATHS)
        apply_filter_gates(DEFAULT_PROFILE)
        assert (
            kernels.PREFILTER_MIN_ROWS, kernels.PREFILTER_MAX_PATHS
        ) == before

    def test_engine_defaults_match_build_run(self):
        """All three engine knobs use a ``None`` sentinel in
        :func:`build_run` so explicit arguments (even ones equal to the
        shipped default, like ``executor="serial"``) are
        distinguishable from "not passed" and always beat the
        profile."""
        from repro.experiments.runner import build_run

        parameters = inspect.signature(build_run.__wrapped__).parameters
        section = EngineSection()
        assert parameters["executor"].default is None
        assert parameters["workers"].default == section.workers
        assert parameters["engine"].default == section.engine
        # ...and the resolved fallback is still the section default.
        assert section.executor == "serial"

    def test_describe_is_quiet_on_defaults(self):
        assert DEFAULT_PROFILE.describe().endswith("defaults")


# -- loading and validation -------------------------------------------


class TestLoading:
    def test_full_profile_round_trips(self, good_profile):
        assert good_profile.serve.host == "0.0.0.0"
        assert good_profile.serve.port == 9000
        assert good_profile.serve.window_ms == 1.5
        assert good_profile.serve.max_batch == 128
        assert good_profile.serve.max_pending == 2048
        assert good_profile.serve.max_level == 3
        assert good_profile.serve.live is True
        assert good_profile.engine.engine == "packed-filtered"
        assert good_profile.engine.executor == "process"
        assert good_profile.engine.workers == 4
        assert good_profile.filter.prefilter_min_rows == 256
        assert good_profile.filter.prefilter_max_paths == 0.5
        assert good_profile.trace.path == "traces/prod.jsonl"
        assert good_profile.trace.flush_every == 1
        assert good_profile.shard.shards == 4
        assert good_profile.shard.partitioner == "angular"
        assert good_profile.shard.worker_timeout_s == 5.0

    def test_profile_is_hashable_and_frozen(self, good_profile):
        assert isinstance(hash(good_profile), int)
        with pytest.raises(AttributeError):
            good_profile.serve = ServeSection()

    def test_missing_file_raises_profile_error(self):
        with pytest.raises(ProfileError, match="cannot read"):
            load_profile("/nonexistent/prod.toml")

    def test_yaml_profile_loads_when_pyyaml_present(self, tmp_path):
        pytest.importorskip("yaml")
        path = tmp_path / "prod.yaml"
        path.write_text("serve:\n  window_ms: 3.0\n")
        assert load_profile(str(path)).serve.window_ms == 3.0

    def test_fallback_parser_agrees_with_tomllib(self):
        tomllib = pytest.importorskip("tomllib")
        assert parse_toml_subset(GOOD_TOML) == tomllib.loads(GOOD_TOML)

    def test_fallback_parser_rejects_what_it_cannot_parse(self):
        for text in (
            "[serve\nwindow_ms = 1\n",
            "serve]\n",
            "window_ms\n",
            "key = \n",
            "[a.b]\nx = 1\n",
            "[[servers]]\nx = 1\n",
            "x = [1, 2]\n",
        ):
            with pytest.raises(ValueError, match="line"):
                parse_toml_subset(text)

    def test_fallback_parser_scalars_and_comments(self):
        parsed = parse_toml_subset(
            "# header\ntop = 1\n[s]\na = 'x'  # trailing\nb = true\n"
            "c = 1_000\nd = -2.5\n"
        )
        assert parsed == {
            "top": 1,
            "s": {"a": "x", "b": True, "c": 1000, "d": -2.5},
        }


class TestValidation:
    @pytest.mark.parametrize("data, named_key", [
        ({"serve": {"windw_ms": 1.0}}, "serve.windw_ms"),
        ({"serv": {"window_ms": 1.0}}, "[serv]"),
        ({"serve": {"window_ms": -1.0}}, "serve.window_ms"),
        ({"serve": {"max_batch": 0}}, "serve.max_batch"),
        ({"serve": {"max_pending": 0}}, "serve.max_pending"),
        ({"serve": {"port": 70_000}}, "serve.port"),
        ({"serve": {"max_level": -1}}, "serve.max_level"),
        ({"serve": {"live": 1}}, "serve.live"),
        ({"serve": {"window_ms": "fast"}}, "serve.window_ms"),
        ({"serve": {"max_batch": True}}, "serve.max_batch"),
        ({"engine": {"executor": "gpu"}}, "engine.executor"),
        ({"engine": {"engine": "warp"}}, "engine.engine"),
        ({"engine": {"workers": 0}}, "engine.workers"),
        ({"filter": {"prefilter_max_paths": 1.5}},
         "filter.prefilter_max_paths"),
        ({"filter": {"prefilter_min_rows": -1}},
         "filter.prefilter_min_rows"),
        ({"trace": {"flush_every": 0}}, "trace.flush_every"),
        ({"trace": {"path": 7}}, "trace.path"),
        ({"shard": {"shards": -1}}, "shard.shards"),
        ({"shard": {"partitioner": "hash"}}, "shard.partitioner"),
        ({"shard": {"worker_timeout_s": 0}}, "shard.worker_timeout_s"),
        ({"shard": {"worker_timeout_s": "slow"}}, "shard.worker_timeout_s"),
        # The kernel-backend key is gone: a profile that still sets it
        # fails as an unknown key rather than being ignored.
        ({"engine": {"backend": "numpy"}}, "engine.backend"),
    ])
    def test_invalid_knob_names_the_key(self, data, named_key):
        with pytest.raises(ProfileError) as excinfo:
            profile_from_dict(data)
        assert named_key in str(excinfo.value)

    def test_typo_gets_a_suggestion(self):
        with pytest.raises(ProfileError, match="did you mean 'window_ms'"):
            profile_from_dict({"serve": {"window_m": 1.0}})

    def test_retired_engine_values_get_a_suggestion(self):
        # 'loop' is no longer an engine: the profile fails naming the
        # key and the choice that replaced it.
        with pytest.raises(
            ProfileError, match=r"engine\.engine.*did you mean 'packed'"
        ):
            profile_from_dict({"engine": {"engine": "loop"}})
        with pytest.raises(ProfileError, match="did you mean 'packed-filtered'"):
            profile_from_dict({"engine": {"engine": "packed-filterd"}})

    def test_bad_partitioner_lists_the_known_names(self):
        from repro.shard.plan import PARTITIONER_NAMES

        with pytest.raises(ProfileError) as excinfo:
            profile_from_dict({"shard": {"partitioner": "hash"}})
        for name in PARTITIONER_NAMES:
            assert name in str(excinfo.value)

    def test_section_must_be_a_table(self):
        with pytest.raises(ProfileError, match=r"\[serve\] must be a table"):
            profile_from_dict({"serve": 3})

    def test_profile_must_be_a_mapping(self):
        with pytest.raises(ProfileError, match="table of sections"):
            profile_from_dict([1, 2])  # type: ignore[arg-type]


# -- consumers ---------------------------------------------------------


class TestConsumers:
    def test_apply_filter_gates_sets_kernel_constants(self, monkeypatch):
        from repro.engine import kernels

        # monkeypatch restores the real gates after the test.
        monkeypatch.setattr(
            kernels, "PREFILTER_MIN_ROWS", kernels.PREFILTER_MIN_ROWS
        )
        monkeypatch.setattr(
            kernels, "PREFILTER_MAX_PATHS", kernels.PREFILTER_MAX_PATHS
        )
        profile = profile_from_dict({
            "filter": {
                "prefilter_min_rows": 99, "prefilter_max_paths": 0.125,
            },
        })
        apply_filter_gates(profile)
        assert kernels.PREFILTER_MIN_ROWS == 99
        assert kernels.PREFILTER_MAX_PATHS == 0.125

    def test_build_run_profile_fills_engine_defaults(self, monkeypatch):
        import repro.experiments.runner as runner

        calls = []
        real_builder = runner._builder

        def spy(key, executor="serial", workers=None, engine=None):
            calls.append((key, executor, workers, engine))
            return real_builder(key, executor, workers, engine)

        monkeypatch.setattr(runner, "_builder", spy)
        profile = profile_from_dict({
            "engine": {"engine": "packed-filtered", "workers": 2},
        })
        run = runner.build_run(
            "mdmc-cpu", "independent", 30, 3, profile=profile
        )
        assert calls == [("mdmc-cpu", "serial", 2, "packed-filtered")]
        assert len(list(run.skycube.subspaces())) == 7

    def test_build_run_explicit_argument_beats_profile(self, monkeypatch):
        import repro.experiments.runner as runner

        calls = []
        real_builder = runner._builder

        def spy(key, executor="serial", workers=None, engine=None):
            calls.append((key, executor, workers, engine))
            return real_builder(key, executor, workers, engine)

        monkeypatch.setattr(runner, "_builder", spy)
        profile = profile_from_dict({"engine": {"engine": "packed-filtered"}})
        runner.build_run(
            "mdmc-cpu", "independent", 30, 3, engine="packed",
            profile=profile,
        )
        assert calls == [("mdmc-cpu", "serial", None, "packed")]

    def test_build_run_explicit_serial_beats_process_profile(
        self, monkeypatch
    ):
        """Regression: ``executor="serial"`` used to be indistinguishable
        from the default, so a ``process`` profile silently won over an
        explicit request for the serial path."""
        import repro.experiments.runner as runner

        calls = []
        real_builder = runner._builder

        def spy(key, executor="serial", workers=None, engine=None):
            calls.append((key, executor, workers, engine))
            return real_builder(key, executor, workers, engine)

        monkeypatch.setattr(runner, "_builder", spy)
        profile = profile_from_dict({"engine": {"executor": "process"}})
        runner.build_run(
            "mdmc-cpu", "independent", 30, 3, executor="serial",
            profile=profile,
        )
        assert calls == [("mdmc-cpu", "serial", None, None)]
        # ...while leaving the knob unset still lets the profile fill it.
        calls.clear()
        runner.build_run(
            "mdmc-cpu", "independent", 31, 3, profile=profile
        )
        assert calls == [("mdmc-cpu", "process", None, None)]

    def test_build_run_profile_result_matches_no_profile(self):
        from repro.experiments.runner import build_run

        plain = build_run("mdmc-cpu", "independent", 40, 3, seed=9)
        profiled = build_run(
            "mdmc-cpu", "independent", 40, 3, seed=9,
            profile=profile_from_dict({"engine": {"engine": "packed"}}),
        )
        for delta in range(1, 8):
            assert plain.skycube.skyline(delta) == (
                profiled.skycube.skyline(delta)
            )

    def test_serve_cli_rejects_bad_profile(self, tmp_path):
        import os
        import subprocess
        import sys

        bad = tmp_path / "bad.toml"
        bad.write_text("[serve]\nwindw_ms = 1.0\n")
        data = tmp_path / "d.npy"
        import numpy as np

        np.save(data, np.random.default_rng(0).random((10, 3)))
        import repro

        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.dirname(os.path.dirname(repro.__file__))]
            + env.get("PYTHONPATH", "").split(os.pathsep)
        )
        result = subprocess.run(
            [sys.executable, "-m", "repro", "serve", str(data),
             "--profile", str(bad)],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert result.returncode != 0
        assert "serve.windw_ms" in result.stderr
